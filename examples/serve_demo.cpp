// Serving demo: stand up the full EasyTime system, put the ForecastServer
// in front of it, and talk to it exactly the way a client would — one JSON
// request line in, one JSON response line out — over both the in-process
// client and the loopback TCP listener.
//
//   ./build/examples/serve_demo

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/easytime.h"
#include "serve/event_loop.h"
#include "serve/server.h"

using namespace easytime;

namespace {

// A tiny blocking line client for the demo's TCP leg.
std::string RoundTrip(uint16_t port, const std::string& line) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "(socket failed)";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "(connect failed)";
  }
  std::string data = line + "\n";
  ::send(fd, data.data(), data.size(), 0);
  std::string reply;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
  ::close(fd);
  return reply;
}

}  // namespace

int main() {
  // 1. Build a small system (same knobs as the test suite, so this runs in
  //    seconds; drop the overrides for the full benchmark suite).
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "ses", "drift"};
  opt.ensemble.ts2vec.epochs = 3;
  opt.ensemble.classifier.epochs = 80;
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "create: %s\n", system.status().ToString().c_str());
    return 1;
  }

  // 2. Start the serving layer.
  serve::ForecastServer server(system->get());
  server.Start();
  std::string dataset = (*system)->repository()->names()[0];

  // 3. The in-process client: line-delimited JSON.
  std::printf("== in-process ==\n");
  std::string forecast_line =
      R"({"id": 1, "endpoint": "forecast", "params": {"dataset": ")" +
      dataset + R"(", "method": "theta", "horizon": 6}})";
  std::printf("<- %s\n", server.HandleLine(forecast_line).c_str());
  // The repeat is a cache hit — look for "cached": true.
  std::printf("<- %s\n",
              server
                  .HandleLine(
                      R"({"id": 2, "endpoint": "forecast", "params": )"
                      R"({"dataset": ")" +
                      dataset + R"(", "method": "theta", "horizon": 6}})")
                  .c_str());

  // 4. An async evaluation job with progress polling.
  std::string submit =
      R"({"id": 3, "endpoint": "evaluate", "params": {"methods": ["drift"],)"
      R"( "evaluation": {"strategy": "fixed", "horizon": 6,)"
      R"( "metrics": ["mae"]}}})";
  auto submitted = Json::Parse(server.HandleLine(submit));
  std::printf("<- %s\n", submitted->Dump().c_str());
  int64_t job = submitted->Get("result").GetInt("job", -1);
  for (;;) {
    auto status = Json::Parse(server.HandleLine(
        R"({"endpoint": "job_status", "params": {"job": )" +
        std::to_string(job) + "}}"));
    std::string state = status->Get("result").GetString("state", "?");
    std::printf("   job %lld: %s\n", static_cast<long long>(job),
                state.c_str());
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // 5. The same protocol over loopback TCP.
  serve::EventLoopServer tcp(&server, serve::EventLoopServer::Options());
  if (auto st = tcp.Start(); !st.ok()) {
    std::fprintf(stderr, "tcp: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("== tcp 127.0.0.1:%u ==\n", tcp.port());
  std::printf("<- %s\n",
              RoundTrip(tcp.port(), R"({"id": 4, "endpoint": "ping"})")
                  .c_str());
  std::printf("<- %s\n",
              RoundTrip(tcp.port(),
                        R"({"id": 5, "endpoint": "ask", "params": )"
                        R"({"question": "What is the best method for )" +
                            dataset + R"(?"}})")
                  .c_str());

  // 6. Serving telemetry.
  std::printf("== stats ==\n%s\n",
              server.StatsJson().Dump(2).c_str());

  tcp.Stop();
  server.Stop();
  return 0;
}
