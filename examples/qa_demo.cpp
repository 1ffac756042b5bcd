// Natural-language Q&A (demo scenario S3, Figs. 3 and 5): stand up the
// system, then answer benchmark questions in natural language with charts,
// SQL, and result tables.
//
//   ./build/examples/qa_demo              # runs the scripted demo questions
//   ./build/examples/qa_demo "question"   # asks your own question

#include <cstdio>

#include "core/easytime.h"

using namespace easytime;

int main(int argc, char** argv) {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 2;
  opt.suite.multivariate_total = 3;
  opt.seed_eval.horizon = 24;  // long-term per the Q&A vocabulary
  std::printf("seeding the benchmark knowledge base...\n\n");
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "create: %s\n", system.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> questions;
  if (argc > 1) {
    questions.push_back(argv[1]);
  } else {
    questions = {
        // The exact Fig. 5 question shape.
        "What are the top-8 methods (ordered by MAE) for long term "
        "forecasting on all multivariate datasets with trends?",
        // The abstract's motivating question.
        "Which method is best for long term forecasting on time series "
        "with strong seasonality?",
        "Is theta or ses better on datasets with trends?",
        "How many datasets per domain?",
        "What is the average smape of naive on traffic datasets?",
        // A follow-up: inherits the previous question's intent + filters.
        "what about on web datasets?",
        // Out-of-scope: rejected before any SQL executes.
        "Will the sales in Shanghai increase next month?",
    };
  }

  for (const auto& q : questions) {
    std::printf("================================================\n");
    auto resp = (*system)->Ask(q);
    if (!resp.ok()) {
      std::printf("Q: %s\nA: (declined) %s\n\n", q.c_str(),
                  resp.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n", resp->Render().c_str());
  }
  return 0;
}
