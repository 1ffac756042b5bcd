// Automated Ensemble (demo scenario S2, Figs. 2 and 4): bring up EasyTime,
// "upload" a new dataset, ask for method recommendations, build the
// automated ensemble, and compare it against the individual methods.
//
//   ./build/examples/auto_ensemble_demo

#include <cstdio>

#include "core/easytime.h"
#include "pipeline/plot.h"
#include "tsdata/characteristics.h"
#include "tsdata/generator.h"

using namespace easytime;

int main() {
  // Seed the benchmark knowledge. The offline phase (TS2Vec encoder +
  // soft-label classifier) runs on the first Recommend below, over the
  // repository as it stands then.
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 2;
  opt.suite.multivariate_total = 2;
  opt.seed_eval.horizon = 24;
  opt.ensemble.top_k = 3;
  std::printf("seeding EasyTime (benchmark evaluation)...\n");
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "create: %s\n", system.status().ToString().c_str());
    return 1;
  }

  // Online phase: the user uploads a new series (label 1 in Fig. 4).
  tsdata::GeneratorConfig cfg;
  cfg.name = "uploaded_sensor";
  cfg.domain = tsdata::Domain::kEnvironment;
  cfg.length = 420;
  cfg.period = 12;
  cfg.season_amp = 4.0;
  cfg.trend_slope = 0.05;
  cfg.ar_coef = 0.4;
  cfg.noise_std = 0.7;
  cfg.seed = 777;
  tsdata::Dataset uploaded = tsdata::GenerateDataset(cfg);
  if (Status st = (*system)->repository()->Add(uploaded); !st.ok()) {
    std::fprintf(stderr, "upload: %s\n", st.ToString().c_str());
    return 1;
  }

  // Characteristics + recommendation (labels 3/4); this first Recommend
  // trains the TS2Vec encoder and the classifier.
  auto ch = tsdata::ExtractCharacteristics(uploaded);
  std::printf("\nuploaded '%s': %s\n", uploaded.name().c_str(),
              ch.Describe().c_str());
  auto rec = (*system)->Recommend("uploaded_sensor", 3);
  if (!rec.ok()) {
    std::fprintf(stderr, "recommend: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("recommended methods:\n");
  for (const auto& [name, prob] : *rec) {
    std::printf("  %-18s p=%.3f\n", name.c_str(), prob);
  }

  // The "AutoML" button (label 8): ensemble the top-k and evaluate,
  // alongside each member (labels 9/10).
  eval::EvalConfig protocol;
  protocol.strategy = eval::Strategy::kFixed;
  protocol.horizon = 24;
  protocol.metrics = {"mae", "rmse", "smape"};
  auto comparison = (*system)->EvaluateWithEnsemble("uploaded_sensor",
                                                    protocol);
  if (!comparison.ok()) {
    std::fprintf(stderr, "ensemble: %s\n",
                 comparison.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-22s %8s %8s %8s\n", "model", "MAE", "RMSE", "sMAPE");
  std::printf("%-22s %8.3f %8.3f %7.2f%%\n", "auto_ensemble",
              comparison->ensemble.metrics.at("mae"),
              comparison->ensemble.metrics.at("rmse"),
              comparison->ensemble.metrics.at("smape"));
  for (size_t i = 0; i < comparison->members.size(); ++i) {
    const auto& [name, res] = comparison->members[i];
    std::printf("%-22s %8.3f %8.3f %7.2f%%   (weight %.2f)\n", name.c_str(),
                res.metrics.at("mae"), res.metrics.at("rmse"),
                res.metrics.at("smape"), comparison->weights[i]);
  }

  // Forecast visualization (label 9), terminal style.
  std::printf("\nforecast vs actual:\n");
  const auto& values = uploaded.primary().values();
  std::vector<double> past(
      values.begin(),
      values.end() -
          static_cast<long>(comparison->ensemble.last_actual.size()));
  std::printf("%s", pipeline::RenderForecastPlot(
                        past, comparison->ensemble.last_actual,
                        comparison->ensemble.last_forecast)
                        .c_str());
  return 0;
}
