// Foundation-model support in the method layer: pretrain the zero-shot
// "ts2vec_foundation" method on the benchmark corpus, then evaluate it like
// any registered method — on every dataset, through one-click evaluation,
// with results landing in the same knowledge base and Q&A tables.
//
//   ./build/examples/foundation_demo

#include <cstdio>

#include "core/easytime.h"

using namespace easytime;

int main() {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 2;
  opt.suite.multivariate_total = 2;
  opt.seed_eval.horizon = 24;
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "mean"};
  opt.pretrain_foundation = true;      // <- the interesting part
  opt.foundation.lookback = 48;
  opt.foundation.horizon = 24;
  opt.ensemble.ts2vec.epochs = 8;

  std::printf("pretraining the ts2vec_foundation method on the benchmark "
              "corpus...\n");
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "create: %s\n", system.status().ToString().c_str());
    return 1;
  }

  // Zero-shot evaluation on every dataset: Fit() records history only.
  auto report = (*system)->EvaluateMethodEverywhere("ts2vec_foundation");
  if (!report.ok()) {
    std::fprintf(stderr, "evaluate: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("zero-shot evaluation: %zu/%zu datasets ok in %.1fs\n\n",
              report->Successful().size(), report->records.size(),
              report->wall_seconds);

  // Where does it land against the locally-trained classics?
  auto resp = (*system)->Ask("rank methods by mae");
  if (!resp.ok()) {
    std::fprintf(stderr, "%s\n", resp.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", resp->Render().c_str());

  std::printf("note: the foundation model never trains on the evaluated "
              "series — all accuracy comes from the pretrained encoder + "
              "cross-corpus head.\n");
  return 0;
}
