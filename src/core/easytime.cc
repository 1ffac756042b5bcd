#include "core/easytime.h"

#include <cmath>
#include <mutex>

#include "common/fault.h"
#include "common/logging.h"
#include "methods/registry.h"
#include "tsdata/dataset_store.h"

namespace easytime::core {

EasyTime::Options::Options() {
  // A compact default: enough datasets to exercise every domain, a method
  // set spanning the three families, and a rolling protocol for the KB.
  suite.univariate_per_domain = 2;
  suite.multivariate_total = 3;
  suite.min_length = 320;
  suite.max_length = 512;

  seed_eval.strategy = eval::Strategy::kFixed;
  seed_eval.horizon = 24;
  seed_eval.metrics = {"mae", "rmse", "smape", "mase"};

  seed_methods = {"naive",   "seasonal_naive", "drift", "ses",
                  "holt",    "holt_winters_add", "theta", "ar",
                  "lag_linear", "dlinear", "knn", "gbdt", "mlp"};
}

easytime::Result<std::unique_ptr<EasyTime>> EasyTime::Create(
    const Options& options) {
  auto system = std::unique_ptr<EasyTime>(new EasyTime());
  system->options_ = options;

  // With persistence configured, warm starts load the generated benchmark
  // datasets back from the store instead of regenerating them (the dominant
  // cost of a cold Create).
  const std::string dataset_store_dir =
      options.store_dir.empty() ? std::string()
                                : options.store_dir + "/datasets";
  bool datasets_restored = false;
  if (!dataset_store_dir.empty()) {
    auto restored_or = tsdata::LoadRepositoryFromStore(
        dataset_store_dir, options.suite, &system->repository_);
    if (restored_or.ok()) {
      datasets_restored = *restored_or;
    } else {
      // A damaged dataset cache must never prevent startup: regenerate, and
      // PersistRepository below replaces the bad store wholesale.
      EASYTIME_LOG(Warning) << "EasyTime: ignoring unusable dataset store at "
                            << dataset_store_dir << " ("
                            << restored_or.status().ToString()
                            << "); regenerating the benchmark suite";
    }
  }
  if (datasets_restored) {
    EASYTIME_LOG(Info) << "EasyTime: restored " << system->repository_.size()
                       << " benchmark datasets from " << dataset_store_dir;
  } else {
    EASYTIME_RETURN_IF_ERROR(system->repository_.AddSuite(options.suite));
    EASYTIME_LOG(Info) << "EasyTime: generated " << system->repository_.size()
                       << " benchmark datasets";
    if (!dataset_store_dir.empty()) {
      EASYTIME_RETURN_IF_ERROR(tsdata::PersistRepository(
          dataset_store_dir, options.suite, system->repository_));
    }
  }

  // Streamed observations are user data the generator cannot reproduce:
  // replay the append log over the (deterministic) base suite before the
  // knowledge layers see the repository, so seeding and restore-sync
  // observe the fully-extended series.
  tsdata::AppendLog::ReplayStats append_replay;
  if (!options.store_dir.empty()) {
    tsdata::AppendLogOptions log_options;
    log_options.dir = options.store_dir + "/appends";
    log_options.compact_every = options.append_compact_every;
    EASYTIME_ASSIGN_OR_RETURN(
        system->append_log_,
        tsdata::AppendLog::Open(log_options, &system->repository_,
                                &append_replay));
  }

  // With persistence configured, a populated store restores the knowledge
  // base (snapshot + WAL tail) and the seeding evaluation is skipped.
  knowledge::KnowledgeStore::OpenInfo open_info;
  if (!options.store_dir.empty()) {
    knowledge::KnowledgeStore::Options store_options;
    store_options.dir = options.store_dir;
    store_options.compact_every = options.store_compact_every;
    EASYTIME_ASSIGN_OR_RETURN(
        system->store_,
        knowledge::KnowledgeStore::Open(store_options, &system->kb_,
                                        &open_info));
    system->restored_from_store_ = open_info.restored;
  }

  if (system->restored_from_store_) {
    EASYTIME_LOG(Info) << "EasyTime: opened warm from " << options.store_dir
                       << " (" << open_info.datasets << " datasets, "
                       << open_info.results
                       << " results); seeding evaluation skipped";
    // The KB snapshot can predate the append log's newest records (series
    // metadata is only checkpointed with evaluation commits): re-sync any
    // dataset whose restored length lags the replayed series.
    if (append_replay.applied > 0) {
      for (const auto* ds : system->repository_.All()) {
        auto meta = system->kb_.GetDataset(ds->name());
        if (meta.ok() && (*meta)->length != ds->length()) {
          (void)system->kb_.UpdateDatasetData(*ds);
        }
      }
    }
  } else {
    // Seed the knowledge base by running the pipeline.
    pipeline::BenchmarkConfig config;
    config.eval = options.seed_eval;
    for (const auto& name : options.seed_methods) {
      config.methods.push_back(pipeline::MethodSpec{name, Json::Object()});
    }
    pipeline::PipelineRunner runner(&system->repository_, config);
    EASYTIME_ASSIGN_OR_RETURN(pipeline::BenchmarkReport report, runner.Run());

    for (const auto* ds : system->repository_.All()) {
      system->kb_.AddDataset(*ds);
    }
    system->kb_.AddAllMethods();
    system->kb_.AddReport(report);
  }

  if (options.pretrain_foundation) {
    std::vector<std::vector<double>> corpus;
    for (const auto* ds : system->repository_.All()) {
      for (const auto& ch : ds->channels()) corpus.push_back(ch.values());
    }
    EASYTIME_ASSIGN_OR_RETURN(
        auto foundation_model,
        ensemble::PretrainFoundation(corpus, options.foundation,
                                     options.ensemble.ts2vec));
    EASYTIME_RETURN_IF_ERROR(
        ensemble::RegisterFoundationMethod(foundation_model));
    system->kb_.AddAllMethods();  // pick up the new method's metadata
    EASYTIME_LOG(Info) << "foundation method 'ts2vec_foundation' registered";
  }
  if (system->store_ && !system->restored_from_store_) {
    // Persist the freshly seeded knowledge as the store's first snapshot so
    // the next Create opens warm.
    EASYTIME_RETURN_IF_ERROR(system->store_->Checkpoint(system->kb_));
  }
  EASYTIME_RETURN_IF_ERROR(system->RefreshQa());
  return system;
}

easytime::Status EasyTime::RefreshQa() {
  EASYTIME_ASSIGN_OR_RETURN(qa_, qa::QaEngine::Create(kb_));
  return Status::OK();
}

easytime::Result<size_t> EasyTime::IngestReplicatedResults(
    std::vector<knowledge::ResultEntry> entries) {
  if (entries.empty()) return static_cast<size_t>(0);
  std::unique_lock lock(mu_);
  // Rebuild-through-Restore keeps the whole batch at one version bump (the
  // recovery contract) instead of N AddReport-style bumps.
  std::vector<knowledge::DatasetMeta> datasets(kb_.datasets().begin(),
                                               kb_.datasets().end());
  std::vector<knowledge::MethodMeta> methods(kb_.methods().begin(),
                                             kb_.methods().end());
  std::vector<knowledge::ResultEntry> results(kb_.results().begin(),
                                              kb_.results().end());
  const size_t added = entries.size();
  for (auto& e : entries) results.push_back(std::move(e));
  kb_.Restore(std::move(datasets), std::move(methods), std::move(results));
  EASYTIME_RETURN_IF_ERROR(RefreshQa());
  return added;
}

easytime::Result<pipeline::BenchmarkReport> EasyTime::RunAndCommit(
    pipeline::BenchmarkConfig config, const pipeline::RunHooks& hooks) {
  // Run phase under a shared lock: the pipeline only reads the repository,
  // so queries (and other evaluations) proceed concurrently.
  pipeline::BenchmarkReport report;
  {
    std::shared_lock lock(mu_);
    pipeline::PipelineRunner runner(&repository_, std::move(config));
    EASYTIME_ASSIGN_OR_RETURN(report, runner.Run(hooks));
  }
  // Commit phase under the exclusive lock: append to the knowledge base and
  // swap in a rebuilt Q&A engine atomically with respect to queries.
  std::unique_lock lock(mu_);
  kb_.AddReport(report);
  if (store_) {
    // The KB mutation precedes the store append so a compaction triggered
    // here snapshots state that covers every appended record.
    std::vector<knowledge::ResultEntry> entries;
    for (const auto* rec : report.Successful()) {
      knowledge::ResultEntry entry;
      entry.dataset = rec->dataset;
      entry.method = rec->method;
      entry.strategy = rec->strategy;
      entry.horizon = rec->horizon;
      entry.metrics = rec->metrics;
      entry.fit_seconds = rec->fit_seconds;
      entry.forecast_seconds = rec->forecast_seconds;
      entries.push_back(std::move(entry));
    }
    EASYTIME_RETURN_IF_ERROR(store_->AppendResults(entries, kb_));
  }
  EASYTIME_RETURN_IF_ERROR(RefreshQa());
  return report;
}

easytime::Result<pipeline::BenchmarkReport> EasyTime::OneClickEvaluate(
    const easytime::Json& config_json) {
  return OneClickEvaluate(config_json, pipeline::RunHooks{});
}

easytime::Result<pipeline::BenchmarkReport> EasyTime::OneClickEvaluate(
    const easytime::Json& config_json, const pipeline::RunHooks& hooks) {
  EASYTIME_ASSIGN_OR_RETURN(pipeline::BenchmarkConfig config,
                            pipeline::BenchmarkConfig::FromJson(config_json));
  return RunAndCommit(std::move(config), hooks);
}

easytime::Result<pipeline::BenchmarkReport> EasyTime::EvaluateMethodEverywhere(
    const std::string& method_name, const easytime::Json& method_config) {
  if (!methods::MethodRegistry::Global().Contains(method_name)) {
    return Status::NotFound("unknown method: " + method_name);
  }
  pipeline::BenchmarkConfig config;
  config.eval = options_.seed_eval;
  config.methods.push_back(pipeline::MethodSpec{method_name, method_config});
  return RunAndCommit(std::move(config), pipeline::RunHooks{});
}

easytime::Result<EasyTime::AppendOutcome> EasyTime::AppendObservations(
    const std::string& dataset,
    const std::vector<std::vector<double>>& channels,
    std::optional<size_t> expected_start) {
  if (FaultRegistry::AnyArmed()) {
    EASYTIME_RETURN_IF_ERROR(FaultRegistry::Global().Check("core.append"));
  }
  // Validate the batch shape up front: nothing below may fail after the
  // record has been durably logged.
  if (channels.empty() || channels[0].empty()) {
    return Status::InvalidArgument("append must carry at least one value");
  }
  const size_t batch = channels[0].size();
  for (const auto& ch : channels) {
    if (ch.size() != batch) {
      return Status::InvalidArgument(
          "append channels have unequal lengths; channels must stay aligned");
    }
    for (double v : ch) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("appended values must be finite");
      }
    }
  }

  // Per-dataset serialization: WAL order equals offset order within one
  // dataset (the append log's replay contract), while appends to different
  // datasets still overlap and share group-commit fsyncs.
  std::mutex* dataset_mu;
  {
    std::lock_guard<std::mutex> lock(append_index_mu_);
    dataset_mu = &append_mus_[dataset];
  }
  std::lock_guard<std::mutex> serialize(*dataset_mu);

  size_t start = 0;
  {
    std::shared_lock lock(mu_);
    EASYTIME_ASSIGN_OR_RETURN(const tsdata::Dataset* ds,
                              repository_.Get(dataset));
    if (channels.size() != ds->num_channels()) {
      return Status::InvalidArgument(
          "append carries " + std::to_string(channels.size()) +
          " channels; dataset '" + dataset + "' has " +
          std::to_string(ds->num_channels()));
    }
    start = ds->length();
  }
  if (expected_start.has_value() && *expected_start != start) {
    if (*expected_start < start) {
      return Status::InvalidArgument(
          "duplicate append: start " + std::to_string(*expected_start) +
          " is already ingested (series length " + std::to_string(start) +
          ")");
    }
    return Status::InvalidArgument(
        "out-of-order append: start " + std::to_string(*expected_start) +
        " leaves a gap (series length " + std::to_string(start) + ")");
  }

  // Durability point: the batch is on disk before anyone can observe it.
  if (append_log_) {
    tsdata::AppendRecord record;
    record.dataset = dataset;
    record.start = start;
    record.channels = channels;
    EASYTIME_RETURN_IF_ERROR(append_log_->Append(record));
  }

  knowledge::KnowledgeBase::DataUpdate update;
  {
    std::unique_lock lock(mu_);
    EASYTIME_ASSIGN_OR_RETURN(tsdata::Dataset* ds,
                              repository_.GetMutable(dataset));
    EASYTIME_RETURN_IF_ERROR(ds->AppendObservations(channels));
    update = kb_.UpdateDatasetData(*ds);
  }

  AppendOutcome out;
  out.appended = batch;
  out.length = start + batch;
  out.characteristics_refreshed = update.characteristics_refreshed;
  out.data_version = update.data_version;
  return out;
}

easytime::Result<tsdata::Series> EasyTime::SeriesSnapshot(
    const std::string& dataset, size_t channel) const {
  std::shared_lock lock(mu_);
  EASYTIME_ASSIGN_OR_RETURN(const tsdata::Dataset* ds,
                            repository_.Get(dataset));
  if (channel >= ds->num_channels()) {
    return Status::InvalidArgument(
        "dataset '" + dataset + "' has " +
        std::to_string(ds->num_channels()) + " channels; no channel " +
        std::to_string(channel));
  }
  return ds->channel(channel);
}

easytime::Status EasyTime::EnsureEnsembleTrained() const {
  if (ensemble_trained_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(ensemble_mu_);
  if (ensemble_trained_.load(std::memory_order_relaxed)) return Status::OK();
  // The caller's hold on mu_ keeps the repository and the knowledge base
  // still for the whole training.
  ensemble_ = ensemble::AutoEnsembleEngine(options_.ensemble);
  Status st = ensemble_.Pretrain(repository_, kb_);
  if (!st.ok()) {
    // Unavailable: the engine may train on a later call (the serving layer
    // answers recommend from its global ranking meanwhile).
    return Status::Unavailable("automated ensemble is not trained: " +
                               st.ToString());
  }
  ensemble_trained_.store(true, std::memory_order_release);
  return Status::OK();
}

easytime::Result<ensemble::Recommendation> EasyTime::Recommend(
    const std::string& dataset_name, size_t k) const {
  std::shared_lock lock(mu_);
  EASYTIME_ASSIGN_OR_RETURN(const tsdata::Dataset* ds,
                            repository_.Get(dataset_name));
  EASYTIME_RETURN_IF_ERROR(EnsureEnsembleTrained());
  return ensemble_.Recommend(ds->primary().values(), k);
}

easytime::Result<ensemble::Recommendation> EasyTime::RecommendForValues(
    const std::vector<double>& values, size_t k) const {
  std::shared_lock lock(mu_);
  EASYTIME_RETURN_IF_ERROR(EnsureEnsembleTrained());
  return ensemble_.Recommend(values, k);
}

easytime::Result<EasyTime::EnsembleEvaluation> EasyTime::EvaluateWithEnsemble(
    const std::string& dataset_name, const eval::EvalConfig& config) const {
  std::shared_lock lock(mu_);
  EASYTIME_ASSIGN_OR_RETURN(const tsdata::Dataset* ds,
                            repository_.Get(dataset_name));
  const std::vector<double>& values = ds->primary().values();

  EASYTIME_RETURN_IF_ERROR(EnsureEnsembleTrained());
  EASYTIME_ASSIGN_OR_RETURN(auto ens, ensemble_.BuildEnsemble(values));
  eval::Evaluator evaluator(config);

  EnsembleEvaluation out;
  EASYTIME_ASSIGN_OR_RETURN(out.ensemble,
                            evaluator.EvaluateValues(ens.get(), values));
  out.weights = ens->weights();

  for (const auto& name : ens->member_names()) {
    EASYTIME_ASSIGN_OR_RETURN(methods::ForecasterPtr m,
                              methods::MethodRegistry::Global().Create(name));
    EASYTIME_ASSIGN_OR_RETURN(eval::EvalResult r,
                              evaluator.EvaluateValues(m.get(), values));
    out.members.emplace_back(name, std::move(r));
  }
  return out;
}

easytime::Result<qa::QaResponse> EasyTime::Ask(const std::string& question) {
  std::shared_lock lock(mu_);
  if (!qa_) return Status::Internal("Q&A engine not initialized");
  return qa_->Ask(question);
}

easytime::Result<qa::QaResponse> EasyTime::AskSql(
    const std::string& sql, const easytime::Deadline& deadline) {
  std::shared_lock lock(mu_);
  if (!qa_) return Status::Internal("Q&A engine not initialized");
  return qa_->AskSql(sql, deadline);
}

}  // namespace easytime::core
