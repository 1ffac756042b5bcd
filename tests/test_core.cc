#include "core/easytime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/fault.h"
#include "store/record_store.h"
#include "test_util.h"
#include "tsdata/dataset_store.h"

namespace easytime::core {
namespace {

EasyTime::Options FixtureOptions() {
  EasyTime::Options opt;
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

class EasyTimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto system = EasyTime::Create(FixtureOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = system->release();
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static EasyTime* system_;
};

EasyTime* EasyTimeTest::system_ = nullptr;

// Dataset persistence: a store-backed Create persists the generated suite,
// and the next Create rebuilds the repository from disk — bit-identical
// values, no regeneration.
TEST(EasyTimeDatasetStoreTest, WarmStartLoadsDatasetsFromTheStore) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           "easytime_dataset_store")
                              .string();
  std::filesystem::remove_all(dir);

  EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae"};
  opt.seed_methods = {"naive", "drift"};
  opt.store_dir = dir;

  std::vector<std::string> names;
  std::vector<std::vector<double>> values;
  {
    auto cold = EasyTime::Create(opt);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_FALSE((*cold)->restored_from_store());
    for (const auto* ds : (*cold)->repository()->All()) {
      names.push_back(ds->name());
      for (const auto& ch : ds->channels()) values.push_back(ch.values());
    }
    ASSERT_FALSE(names.empty());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/datasets"))
      << "cold start must persist the generated datasets";

  auto warm = EasyTime::Create(opt);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE((*warm)->restored_from_store());
  std::vector<std::string> warm_names;
  std::vector<std::vector<double>> warm_values;
  for (const auto* ds : (*warm)->repository()->All()) {
    warm_names.push_back(ds->name());
    for (const auto& ch : ds->channels()) warm_values.push_back(ch.values());
  }
  EXPECT_EQ(warm_names, names) << "same datasets in the same order";
  ASSERT_EQ(warm_values.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(warm_values[i], values[i])
        << "restored channel " << i << " must round-trip bit-exactly";
  }
  std::filesystem::remove_all(dir);
}

// Reconfiguring the suite must invalidate the on-disk dataset cache: the
// persisted fingerprint no longer matches, so Create regenerates instead of
// silently serving the stale benchmark.
TEST(EasyTimeDatasetStoreTest, WarmStartRegeneratesWhenSuiteOptionsChange) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           "easytime_dataset_store_suite_change")
                              .string();
  std::filesystem::remove_all(dir);

  EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae"};
  opt.seed_methods = {"naive"};
  opt.store_dir = dir;
  {
    auto cold = EasyTime::Create(opt);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_EQ((*cold)->repository()->size(), 11u);
  }

  opt.suite.univariate_per_domain = 2;  // 10 more datasets than persisted
  auto recreated = EasyTime::Create(opt);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  EXPECT_EQ((*recreated)->repository()->size(), 21u)
      << "the stale dataset cache must not override the new suite";
  std::filesystem::remove_all(dir);
}

// A damaged dataset cache (here: a record that fails JSON decoding, behind a
// valid manifest) must not prevent startup — Create falls back to
// regeneration and rewrites the store so the NEXT start opens warm again.
TEST(EasyTimeDatasetStoreTest, DamagedDatasetStoreFallsBackToRegeneration) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           "easytime_dataset_store_damaged")
                              .string();
  std::filesystem::remove_all(dir);

  EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae"};
  opt.seed_methods = {"naive"};
  opt.store_dir = dir;
  {
    auto cold = EasyTime::Create(opt);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  }

  const std::string ds_dir = dir + "/datasets";
  std::filesystem::remove_all(ds_dir);
  {
    auto rs = store::RecordStore::Open(ds_dir, store::RecordStoreOptions{});
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE((*rs)->Append("definitely not a dataset").ok());
    ASSERT_TRUE(
        (*rs)->Append(tsdata::DatasetStoreManifest(opt.suite, 1)).ok());
  }

  auto damaged = EasyTime::Create(opt);
  ASSERT_TRUE(damaged.ok())
      << "a corrupt dataset cache must not block startup: "
      << damaged.status().ToString();
  EXPECT_EQ((*damaged)->repository()->size(), 11u);

  // The fallback replaced the bad store, so this start is warm again.
  auto warm = EasyTime::Create(opt);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->repository()->size(), 11u);
  std::filesystem::remove_all(dir);
}

TEST_F(EasyTimeTest, CreateSeedsEverything) {
  EXPECT_EQ(system_->repository()->size(), 11u);  // 10 domains + 1 mv
  EXPECT_EQ(system_->knowledge().results().size(), 11u * 5u);

  // Create does no ensemble training; the first Recommend trains, once. A
  // zero-delay fault counts the passes through the training path.
  FaultSpec count_only;
  count_only.kind = FaultKind::kDelay;
  count_only.delay_ms = 0.0;
  ASSERT_TRUE(FaultRegistry::Global().Arm("ensemble.pretrain", count_only).ok());
  auto fresh = EasyTime::Create(FixtureOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const std::string dataset = (*fresh)->repository()->names()[0];
  EXPECT_EQ(FaultRegistry::Global().PointStats("ensemble.pretrain").passes, 0u)
      << "untrained after Create";
  ASSERT_TRUE((*fresh)->Recommend(dataset).ok());
  ASSERT_TRUE((*fresh)->Recommend(dataset).ok());
  EXPECT_EQ(FaultRegistry::Global().PointStats("ensemble.pretrain").passes, 1u)
      << "trained after the first Recommend";
  FaultRegistry::Global().DisarmAll();
}

TEST_F(EasyTimeTest, OneClickEvaluateFromJsonConfig) {
  // S1: user edits a config and clicks once.
  auto cfg = Json::Parse(R"({
    "methods": ["holt"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]}
  })").ValueOrDie();
  size_t before = system_->knowledge().results().size();
  auto report = system_->OneClickEvaluate(cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records.size(), system_->repository()->size());
  EXPECT_GT(system_->knowledge().results().size(), before);

  // The new results are immediately visible to Q&A.
  auto resp = system_->Ask("What is the average mae of holt?");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->table.rows.empty());
}

TEST_F(EasyTimeTest, EvaluateMethodEverywhere) {
  auto report = system_->EvaluateMethodEverywhere("window_average");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), system_->repository()->size());
  EXPECT_FALSE(system_->EvaluateMethodEverywhere("not_a_method").ok());
}

TEST_F(EasyTimeTest, RecommendOnRepositoryDataset) {
  std::string name = system_->repository()->names()[0];
  auto rec = system_->Recommend(name, 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), 2u);
  EXPECT_FALSE(system_->Recommend("ghost_dataset").ok());
}

TEST_F(EasyTimeTest, RecommendForUploadedValues) {
  auto v = ::easytime::testing::MakeSeasonalSeries(160, 24, 5.0, 0.0, 0.3);
  auto rec = system_->RecommendForValues(v, 3);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), 3u);
}

TEST_F(EasyTimeTest, EvaluateWithEnsembleComparesMembers) {
  // S2: the AutoML button — ensemble vs individual methods on a dataset.
  std::string name = system_->repository()->names()[1];
  eval::EvalConfig cfg;
  cfg.horizon = 12;
  cfg.metrics = {"mae"};
  auto result = system_->EvaluateWithEnsemble(name, cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->members.size(), 2u);
  EXPECT_EQ(result->weights.size(), 2u);
  EXPECT_TRUE(result->ensemble.metrics.count("mae"));
  for (const auto& [mname, mres] : result->members) {
    EXPECT_TRUE(mres.metrics.count("mae")) << mname;
  }
}

TEST_F(EasyTimeTest, AskEndToEnd) {
  // S3: the Fig. 5-style question.
  auto resp = system_->Ask(
      "What are the top-3 methods (ordered by MAE) on univariate datasets?");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->verified);
  EXPECT_LE(resp->table.rows.size(), 3u);
  EXPECT_FALSE(resp->answer.empty());
  EXPECT_FALSE(system_->Ask("tell me a joke").ok());
}

TEST_F(EasyTimeTest, AskSqlPath) {
  auto resp = system_->AskSql("SELECT COUNT(*) FROM results");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->table.rows.size(), 1u);
  EXPECT_GT(resp->table.rows[0][0].AsInteger(), 0);
}

}  // namespace
}  // namespace easytime::core
