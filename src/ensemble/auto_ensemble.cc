#include "ensemble/auto_ensemble.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/logging.h"
#include "common/optimize.h"
#include "methods/registry.h"
#include "tsdata/characteristics.h"

namespace easytime::ensemble {

// --------------------------------------------------------- EnsembleForecaster

EnsembleForecaster::EnsembleForecaster(
    std::vector<methods::ForecasterPtr> members,
    std::vector<std::string> member_names, double val_fraction,
    double weight_shrinkage)
    : members_(std::move(members)),
      member_names_(std::move(member_names)),
      val_fraction_(val_fraction),
      weight_shrinkage_(std::clamp(weight_shrinkage, 0.0, 1.0)) {}

easytime::Status EnsembleForecaster::Fit(const std::vector<double>& train,
                                         const methods::FitContext& ctx) {
  if (members_.empty()) {
    return Status::InvalidArgument("ensemble has no members");
  }
  size_t n = train.size();
  // val_fraction <= 0 selects plain uniform averaging (used by ablations).
  size_t val_len = 0;
  if (val_fraction_ > 0.0) {
    val_len = static_cast<size_t>(
        std::round(val_fraction_ * static_cast<double>(n)));
    val_len = std::clamp<size_t>(val_len, std::min<size_t>(4, n / 4), n / 2);
  }

  weights_.assign(members_.size(), 1.0 / static_cast<double>(members_.size()));

  if (val_len >= 2 && n - val_len >= 8) {
    std::vector<double> inner_train(train.begin(),
                                    train.end() - static_cast<long>(val_len));

    // Members are fitted once on the inner-train prefix, then produce
    // forecasts from several rolling origins across the validation span
    // (shorter horizons from more origins give a lower-variance weight
    // estimate than one long forecast). Failures neutralize the member to
    // the inner-train mean rather than aborting the ensemble.
    size_t window = std::max<size_t>(2, val_len / 3);
    methods::FitContext inner_ctx = ctx;
    inner_ctx.horizon = window;
    double fallback = 0.0;
    for (double v : inner_train) fallback += v;
    fallback /= static_cast<double>(inner_train.size());

    std::vector<bool> alive(members_.size(), true);
    for (size_t i = 0; i < members_.size(); ++i) {
      if (!members_[i]->Fit(inner_train, inner_ctx).ok()) {
        alive[i] = false;
        EASYTIME_LOG(Warning) << "ensemble member '" << member_names_[i]
                              << "' failed the validation fit; neutralized";
      }
    }

    std::vector<std::vector<double>> preds(members_.size());
    std::vector<double> target;
    for (size_t start = inner_train.size(); start + window <= n;
         start += window) {
      std::vector<double> history(train.begin(),
                                  train.begin() + static_cast<long>(start));
      target.insert(target.end(),
                    train.begin() + static_cast<long>(start),
                    train.begin() + static_cast<long>(start + window));
      for (size_t i = 0; i < members_.size(); ++i) {
        std::vector<double> fc(window, fallback);
        if (alive[i]) {
          auto res = members_[i]->ForecastFrom(history, window);
          if (res.ok() && res->size() == window) fc = std::move(*res);
        }
        preds[i].insert(preds[i].end(), fc.begin(), fc.end());
      }
    }
    EASYTIME_ASSIGN_OR_RETURN(weights_, LearnSimplexWeights(preds, target));
    // Shrink toward uniform: the validation window is short, so raw learned
    // weights are high-variance.
    double uniform = 1.0 / static_cast<double>(members_.size());
    for (auto& w : weights_) {
      w = (1.0 - weight_shrinkage_) * w + weight_shrinkage_ * uniform;
    }
  }

  // Refit members on the full training segment for final forecasting.
  for (size_t i = 0; i < members_.size(); ++i) {
    Status st = members_[i]->Fit(train, ctx);
    if (!st.ok()) {
      // Neutralize the member: zero weight, renormalize.
      weights_[i] = 0.0;
      double sum = 0.0;
      for (double w : weights_) sum += w;
      if (sum <= 0.0) {
        return Status::Internal("every ensemble member failed to fit");
      }
      for (auto& w : weights_) w /= sum;
    }
  }
  fitted_ = true;
  return Status::OK();
}

easytime::Result<std::vector<double>> EnsembleForecaster::Forecast(
    size_t horizon) const {
  if (!fitted_) return Status::Internal("Forecast called before Fit");
  std::vector<double> out(horizon, 0.0);
  for (size_t i = 0; i < members_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    EASYTIME_ASSIGN_OR_RETURN(std::vector<double> fc,
                              members_[i]->Forecast(horizon));
    for (size_t h = 0; h < horizon; ++h) out[h] += weights_[i] * fc[h];
  }
  return out;
}

easytime::Result<std::vector<double>> EnsembleForecaster::ForecastFrom(
    const std::vector<double>& history, size_t horizon) {
  if (!fitted_) return Status::Internal("ForecastFrom called before Fit");
  std::vector<double> out(horizon, 0.0);
  for (size_t i = 0; i < members_.size(); ++i) {
    if (weights_[i] <= 0.0) continue;
    EASYTIME_ASSIGN_OR_RETURN(std::vector<double> fc,
                              members_[i]->ForecastFrom(history, horizon));
    for (size_t h = 0; h < horizon; ++h) out[h] += weights_[i] * fc[h];
  }
  return out;
}

// --------------------------------------------------------- AutoEnsembleEngine

AutoEnsembleEngine::AutoEnsembleEngine(AutoEnsembleOptions options)
    : options_(std::move(options)) {}

easytime::Status AutoEnsembleEngine::Pretrain(
    const tsdata::Repository& repo, const knowledge::KnowledgeBase& kb) {
  EASYTIME_FAULT_POINT("ensemble.pretrain");
  // 1. Candidate set = methods with benchmark results in the KB. Checked
  // first: a knowledge base that cannot train fails before any encoder work.
  std::map<std::string, size_t> method_counts;
  for (const auto& r : kb.results()) {
    if (r.metrics.count(options_.metric)) ++method_counts[r.method];
  }
  std::vector<std::string> candidates;
  for (const auto& [name, count] : method_counts) {
    if (count >= 2) candidates.push_back(name);
  }
  if (candidates.size() < 2) {
    return Status::InvalidArgument(
        "knowledge base must contain results (metric '" + options_.metric +
        "') for at least two methods");
  }
  pretrained_ = false;
  candidate_methods_ = std::move(candidates);

  // 2. Pretrain the representation encoder on every channel in the suite.
  encoder_ = std::make_unique<Ts2VecEncoder>(options_.ts2vec);
  std::vector<std::vector<double>> corpus;
  for (const auto* ds : repo.All()) {
    for (const auto& ch : ds->channels()) corpus.push_back(ch.values());
  }
  EASYTIME_RETURN_IF_ERROR(PretrainTs2Vec(encoder_.get(), corpus).status());

  // 3. Train the soft-label classifier: one example per dataset.
  size_t feat_dim = encoder_->repr_dim() + tsdata::kCharacteristicFeatureDim;
  classifier_ = std::make_unique<MethodClassifier>(
      candidate_methods_, feat_dim, options_.classifier);

  std::vector<ClassifierExample> examples;
  for (const auto* ds : repo.All()) {
    auto scores = kb.MethodScores(ds->name(), options_.metric);
    if (scores.size() < 2) continue;
    ClassifierExample ex;
    EASYTIME_ASSIGN_OR_RETURN(ex.features, Features(ds->primary().values()));
    ex.method_errors = std::move(scores);
    examples.push_back(std::move(ex));
  }
  EASYTIME_RETURN_IF_ERROR(classifier_->Train(examples));
  pretrained_ = true;
  EASYTIME_LOG(Info) << "auto-ensemble pretrained: " << examples.size()
                     << " examples, " << candidate_methods_.size()
                     << " candidate methods";
  return Status::OK();
}

easytime::Result<std::vector<double>> AutoEnsembleEngine::Features(
    const std::vector<double>& values) const {
  if (encoder_ == nullptr) {
    return Status::Internal("Features called before Pretrain");
  }
  std::vector<double> f = encoder_->Represent(values);
  std::vector<double> ch = tsdata::CharacteristicFeatureVector(values);
  f.insert(f.end(), ch.begin(), ch.end());
  return f;
}

easytime::Result<Recommendation> AutoEnsembleEngine::Recommend(
    const std::vector<double>& values, size_t k) const {
  EASYTIME_FAULT_POINT("ensemble.recommend");
  if (!pretrained_) {
    return Status::Internal("Recommend called before Pretrain");
  }
  if (k == 0) k = options_.top_k;
  EASYTIME_ASSIGN_OR_RETURN(std::vector<double> feats, Features(values));
  return classifier_->TopK(feats, k);
}

easytime::Result<std::unique_ptr<EnsembleForecaster>>
AutoEnsembleEngine::BuildEnsemble(const std::vector<double>& values) const {
  EASYTIME_ASSIGN_OR_RETURN(Recommendation rec,
                            Recommend(values, options_.top_k));
  std::vector<methods::ForecasterPtr> members;
  std::vector<std::string> names;
  for (const auto& [name, prob] : rec) {
    (void)prob;
    EASYTIME_ASSIGN_OR_RETURN(methods::ForecasterPtr m,
                              methods::MethodRegistry::Global().Create(name));
    members.push_back(std::move(m));
    names.push_back(name);
  }
  return std::make_unique<EnsembleForecaster>(
      std::move(members), std::move(names), options_.val_fraction,
      options_.weight_shrinkage);
}

}  // namespace easytime::ensemble
