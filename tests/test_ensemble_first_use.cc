// The Automated Ensemble's offline phase runs on first use: Create does no
// training, the first ensemble call trains once (however many threads make
// it), a failure is retried by the next call, a server warm-started from a
// store trains inside Start(), and a knowledge base that cannot train still
// starts and serves a degraded recommend.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/easytime.h"
#include "ensemble/auto_ensemble.h"
#include "serve/server.h"

namespace easytime {
namespace {

constexpr char kPretrainPoint[] = "ensemble.pretrain";

core::EasyTime::Options SmallOptions() {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae", "rmse"};
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "ses", "drift"};
  opt.ensemble.top_k = 2;
  opt.ensemble.ts2vec.epochs = 3;
  opt.ensemble.ts2vec.repr_dim = 8;
  opt.ensemble.ts2vec.hidden_dim = 10;
  opt.ensemble.ts2vec.depth = 2;
  opt.ensemble.classifier.epochs = 80;
  return opt;
}

std::unique_ptr<core::EasyTime> MustCreate(
    const core::EasyTime::Options& opt) {
  auto system = core::EasyTime::Create(opt);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return system.ok() ? std::move(*system) : nullptr;
}

class EnsembleFirstUse : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  static void ArmCountOnly(double delay_ms) {
    FaultSpec spec;
    spec.kind = FaultKind::kDelay;
    spec.delay_ms = delay_ms;
    ASSERT_TRUE(FaultRegistry::Global().Arm(kPretrainPoint, spec).ok());
  }
  static FaultPointStats PretrainStats() {
    return FaultRegistry::Global().PointStats(kPretrainPoint);
  }
};

TEST_F(EnsembleFirstUse, ConcurrentFirstRecommendsTrainOnce) {
  // The delay holds the one training open long enough for every other
  // thread to arrive and wait on it.
  ArmCountOnly(50.0);
  auto system = MustCreate(SmallOptions());
  ASSERT_NE(system, nullptr);
  EXPECT_EQ(PretrainStats().passes, 0u) << "Create trained the ensemble";

  const std::string dataset = system->repository()->names()[0];
  constexpr size_t kThreads = 6;
  std::vector<Result<ensemble::Recommendation>> results(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      results[t] = t % 2 == 0
                       ? system->Recommend(dataset)
                       : system->RecommendForValues(
                             system->repository()
                                 ->Get(dataset)
                                 .ValueOrDie()
                                 ->primary()
                                 .values());
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(PretrainStats().triggers, 1u);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    EXPECT_EQ(*results[t], *results[0]) << "thread " << t;
  }
}

TEST_F(EnsembleFirstUse, FirstRecommendMatchesAnEnginePretrainedDirectly) {
  const core::EasyTime::Options opt = SmallOptions();
  auto system = MustCreate(opt);
  ASSERT_NE(system, nullptr);

  ensemble::AutoEnsembleEngine direct(opt.ensemble);
  ASSERT_TRUE(direct.Pretrain(*system->repository(), system->knowledge()).ok());

  for (const std::string& name : system->repository()->names()) {
    const std::vector<double>& values =
        system->repository()->Get(name).ValueOrDie()->primary().values();
    auto facade = system->Recommend(name);
    auto expected = direct.Recommend(values);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ(facade->size(), expected->size()) << name;
    for (size_t i = 0; i < facade->size(); ++i) {
      EXPECT_EQ((*facade)[i].first, (*expected)[i].first) << name;
      // Bit-identical, not approximately equal: the same training.
      EXPECT_EQ((*facade)[i].second, (*expected)[i].second) << name;
    }
    auto by_values = system->RecommendForValues(values, 3);
    auto expected3 = direct.Recommend(values, 3);
    ASSERT_TRUE(by_values.ok() && expected3.ok());
    EXPECT_EQ(*by_values, *expected3) << name;
  }
}

TEST_F(EnsembleFirstUse, FailedTrainingIsRetriedAndSuccessIsFinal) {
  auto system = MustCreate(SmallOptions());
  ASSERT_NE(system, nullptr);
  const std::string dataset = system->repository()->names()[0];

  FaultSpec once;
  once.max_triggers = 1;
  ASSERT_TRUE(FaultRegistry::Global().Arm(kPretrainPoint, once).ok());

  eval::EvalConfig config;
  config.horizon = 12;
  config.metrics = {"mae"};
  auto failed = system->EvaluateWithEnsemble(dataset, config);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_NE(failed.status().message().find("injected fault"),
            std::string::npos)
      << failed.status().ToString();

  // The next call trains; later calls do not train again.
  auto rec = system->Recommend(dataset);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(PretrainStats().passes, 2u);
  auto evaluated = system->EvaluateWithEnsemble(dataset, config);
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
  EXPECT_EQ(evaluated->members.size(), 2u);
  ASSERT_TRUE(system->Recommend(dataset).ok());
  EXPECT_EQ(PretrainStats().passes, 2u);
}

TEST_F(EnsembleFirstUse, WarmStartedServerTrainsInsideStart) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("easytime_first_use_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  core::EasyTime::Options opt = SmallOptions();
  opt.store_dir = dir;
  ASSERT_NE(MustCreate(opt), nullptr);  // seeds and checkpoints the store

  ArmCountOnly(0.0);
  auto warm = MustCreate(opt);
  ASSERT_NE(warm, nullptr);
  ASSERT_TRUE(warm->restored_from_store());
  EXPECT_EQ(PretrainStats().passes, 0u) << "Create trained the ensemble";
  {
    serve::ForecastServer server(warm.get());
    server.Start();
    EXPECT_EQ(PretrainStats().triggers, 1u)
        << "the warmed recommends did not train";
    server.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(EnsembleFirstUse, OneMethodKnowledgeBaseStartsAndDegradesRecommend) {
  core::EasyTime::Options opt = SmallOptions();
  opt.seed_methods = {"naive"};
  auto system = MustCreate(opt);
  ASSERT_NE(system, nullptr);
  const std::string dataset = system->repository()->names()[0];

  auto direct = system->Recommend(dataset);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsUnavailable()) << direct.status().ToString();
  EXPECT_NE(direct.status().message().find("at least two methods"),
            std::string::npos)
      << direct.status().ToString();

  serve::ForecastServer server(system.get());
  server.Start();
  Json params = Json::Object();
  params.Set("dataset", dataset);
  auto reply = server.Call("recommend", params);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->GetBool("degraded", false)) << reply->Dump();
  ASSERT_EQ(reply->Get("recommendations").size(), 1u);
  EXPECT_EQ(reply->Get("recommendations").items()[0].GetString("method", ""),
            "naive");
  server.Stop();
}

}  // namespace
}  // namespace easytime
