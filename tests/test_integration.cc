// Cross-module integration tests: the full user journeys the demo paper
// walks through, exercised end-to-end without mocks.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/easytime.h"
#include "pipeline/plot.h"
#include "test_util.h"
#include "tsdata/generator.h"
#include "tsdata/split.h"

namespace easytime {
namespace {

namespace fs = std::filesystem;

/// Journey 1: a practitioner's CSV file -> repository -> pipeline -> KB ->
/// Q&A answer that mentions the uploaded data.
TEST(Integration, CsvUploadToQueryableResults) {
  // Write a user CSV to disk.
  fs::path dir = fs::temp_directory_path() / "easytime_it_upload";
  fs::create_directories(dir);
  {
    std::ofstream f(dir / "shop_sales.csv");
    f << "sales\n";
    auto v = testing::MakeSeasonalSeries(240, 12, 6.0, 0.1, 0.4);
    for (double x : v) f << x << "\n";
  }

  // Repository loads the directory.
  tsdata::Repository repo;
  ASSERT_TRUE(repo.LoadDirectory(dir.string()).ok());
  ASSERT_TRUE(repo.Contains("shop_sales"));

  // Pipeline run on the uploaded data only.
  pipeline::BenchmarkConfig config;
  config.datasets = {"shop_sales"};
  config.methods = {pipeline::MethodSpec{"theta", Json::Object()},
                    pipeline::MethodSpec{"seasonal_naive", Json::Object()}};
  config.eval.horizon = 12;
  config.eval.metrics = {"mae"};
  auto report = pipeline::PipelineRunner(&repo, config).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Successful().size(), 2u);

  // Knowledge base ingests it; Q&A can answer about it.
  knowledge::KnowledgeBase kb;
  kb.AddDataset(**repo.Get("shop_sales"));
  kb.AddAllMethods();
  kb.AddReport(*report);
  auto qa = qa::QaEngine::Create(kb);
  ASSERT_TRUE(qa.ok());
  auto resp = (*qa)->Ask("Is theta or seasonal_naive better by mae?");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->table.rows.size(), 2u);
  fs::remove_all(dir);
}

/// Journey 2: recommend -> ensemble -> forecast -> visualize, starting from
/// raw values (the Upload Dataset button path).
TEST(Integration, UploadRecommendEnsembleVisualize) {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae"};
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "ses"};
  opt.ensemble.top_k = 2;
  opt.ensemble.ts2vec.epochs = 3;
  opt.ensemble.ts2vec.repr_dim = 8;
  opt.ensemble.ts2vec.hidden_dim = 10;
  opt.ensemble.ts2vec.depth = 2;
  opt.ensemble.classifier.epochs = 60;
  auto system = core::EasyTime::Create(opt);
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  auto uploaded = testing::MakeSeasonalSeries(260, 24, 5.0, 0.0, 0.3, 999);
  auto rec = (*system)->RecommendForValues(uploaded, 2);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->size(), 2u);

  // Ensemble-evaluate the upload (the frontend's comparison view) and
  // render the report plot of its forecast window.
  tsdata::Dataset dataset("uploaded");
  ASSERT_TRUE(dataset.AddChannel(tsdata::Series("uploaded", uploaded)).ok());
  ASSERT_TRUE((*system)->repository()->Add(dataset).ok());
  eval::EvalConfig protocol;
  protocol.horizon = 24;
  protocol.metrics = {"mae"};
  auto cmp = (*system)->EvaluateWithEnsemble("uploaded", protocol);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp->members.size(), 2u);
  const auto& window = cmp->ensemble;
  ASSERT_EQ(window.last_forecast.size(), 24u);
  auto bounds = tsdata::ComputeSplit(uploaded.size(), protocol.split);
  ASSERT_TRUE(bounds.ok());
  std::vector<double> history(uploaded.begin(),
                              uploaded.begin() + bounds->val_end);

  std::string plot = pipeline::RenderForecastPlot(
      history, window.last_actual, window.last_forecast);
  EXPECT_NE(plot.find('x'), std::string::npos);
  EXPECT_NE(plot.find('.'), std::string::npos);
}

/// Journey 3: the results a user adds via one-click evaluation become part
/// of the ensemble engine's world after re-pretraining.
TEST(Integration, OneClickResultsFeedTheRecommender) {
  tsdata::SuiteSpec suite;
  suite.univariate_per_domain = 1;
  suite.multivariate_total = 0;
  suite.min_length = 160;
  suite.max_length = 200;
  eval::EvalConfig cfg;
  cfg.horizon = 8;
  cfg.metrics = {"mae"};
  auto seeded = knowledge::SeedKnowledge(suite, cfg, {"naive", "ses"});
  ASSERT_TRUE(seeded.ok());

  // Only two candidates initially.
  ensemble::AutoEnsembleOptions eopt;
  eopt.ts2vec.epochs = 2;
  eopt.ts2vec.repr_dim = 8;
  eopt.ts2vec.hidden_dim = 10;
  eopt.ts2vec.depth = 2;
  eopt.classifier.epochs = 40;
  ensemble::AutoEnsembleEngine engine(eopt);
  ASSERT_TRUE(engine.Pretrain(seeded->repository, seeded->kb).ok());
  EXPECT_EQ(engine.candidate_methods().size(), 2u);

  // One-click evaluate a third method into the KB, re-pretrain: the
  // candidate set grows.
  pipeline::BenchmarkConfig config;
  config.methods = {pipeline::MethodSpec{"theta", Json::Object()}};
  config.eval = cfg;
  auto report = pipeline::PipelineRunner(&seeded->repository, config).Run();
  ASSERT_TRUE(report.ok());
  seeded->kb.AddReport(*report);
  ASSERT_TRUE(engine.Pretrain(seeded->repository, seeded->kb).ok());
  EXPECT_EQ(engine.candidate_methods().size(), 3u);
}

/// Journey 4: the KB round-trips through CSV persistence and still answers
/// the same question identically.
TEST(Integration, KnowledgePersistenceRoundTrip) {
  tsdata::SuiteSpec suite;
  suite.univariate_per_domain = 1;
  suite.multivariate_total = 0;
  suite.min_length = 160;
  suite.max_length = 180;
  eval::EvalConfig cfg;
  cfg.horizon = 8;
  cfg.metrics = {"mae"};
  auto seeded = knowledge::SeedKnowledge(suite, cfg, {"naive", "theta"});
  ASSERT_TRUE(seeded.ok());

  std::string path =
      (fs::temp_directory_path() / "easytime_it_kb.csv").string();
  ASSERT_TRUE(seeded->kb.SaveResultsCsv(path).ok());

  knowledge::KnowledgeBase restored;
  for (const auto* ds : seeded->repository.All()) restored.AddDataset(*ds);
  restored.AddAllMethods();
  ASSERT_TRUE(restored.LoadResultsCsv(path).ok());

  auto qa1 = qa::QaEngine::Create(seeded->kb).ValueOrDie();
  auto qa2 = qa::QaEngine::Create(restored).ValueOrDie();
  const char* q = "Is naive or theta better by mae?";
  auto a1 = qa1->Ask(q).ValueOrDie();
  auto a2 = qa2->Ask(q).ValueOrDie();
  EXPECT_EQ(a1.table.rows[0][0].AsText(), a2.table.rows[0][0].AsText());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easytime
