// SQL-native forecasting demo: stage a sales table through the server's
// "sql" endpoint, then forecast it with the TS_FORECAST and TS_FORECAST_BY
// table-valued functions — first through the in-process client, then over
// the loopback TCP listener, the exact wire a dashboard would use.
//
//   ./build/examples/sql_forecast_demo

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

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

std::string SqlLine(int id, const std::string& query) {
  Json req = Json::Object();
  req.Set("id", static_cast<int64_t>(id));
  req.Set("endpoint", "sql");
  Json params = Json::Object();
  params.Set("query", query);
  req.Set("params", std::move(params));
  return req.Dump();
}

void PrintRows(const std::string& title, const std::string& response) {
  auto parsed = Json::Parse(response);
  if (!parsed.ok() || !parsed->GetBool("ok", false)) {
    std::printf("%s -> %s\n", title.c_str(), response.c_str());
    return;
  }
  const Json& result = parsed->Get("result");
  std::printf("== %s (%zu rows) ==\n", title.c_str(),
              result.Get("rows").size());
  const Json& cols = result.Get("columns");
  for (size_t c = 0; c < cols.size(); ++c) {
    std::printf("%s%s", c ? "  " : "   ", cols.items()[c].AsString().c_str());
  }
  std::printf("\n");
  const Json& rows = result.Get("rows");
  for (size_t r = 0; r < rows.size() && r < 8; ++r) {
    std::printf("   ");
    for (const Json& v : rows.items()[r].items()) {
      if (v.is_string()) {
        std::printf("%s  ", v.AsString().c_str());
      } else {
        std::printf("%.3f  ", v.AsDouble());
      }
    }
    std::printf("\n");
  }
  if (rows.size() > 8) std::printf("   ... %zu more\n", rows.size() - 8);
}

}  // namespace

int main() {
  // 1. A small system (test-suite knobs so this runs in seconds).
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
  serve::ForecastServer server(system->get());
  server.Start();

  // 2. Stage monthly sales for three regions through the sql endpoint: the
  //    same DDL/DML any SQL client would send.
  PrintRows("create",
            server.HandleLine(SqlLine(
                1, "CREATE TABLE sales (region TEXT, month INTEGER, "
                   "revenue REAL)")));
  std::string insert = "INSERT INTO sales VALUES ";
  const char* regions[] = {"east", "north", "west"};
  bool first = true;
  for (int r = 0; r < 3; ++r) {
    for (int m = 0; m < 48; ++m) {
      double revenue = 100.0 + 20.0 * r + 0.8 * m +
                       12.0 * std::sin(2.0 * 3.14159265 * m / 12.0);
      if (!first) insert += ", ";
      first = false;
      insert += std::string("('") + regions[r] + "', " + std::to_string(m) +
                ", " + std::to_string(revenue) + ")";
    }
  }
  PrintRows("insert", server.HandleLine(SqlLine(2, insert)));

  // 3. One series, in process: point forecasts with a 95% band.
  PrintRows(
      "TS_FORECAST (in-process)",
      server.HandleLine(SqlLine(
          3,
          "SELECT forecast_step, forecast_timestamp, point_forecast, lower, "
          "upper, model_name FROM TS_FORECAST(sales, month, revenue, "
          "model := 'theta', horizon := 6, confidence := 0.95, "
          "period := 12)")));

  // 4. Every region at once: TS_FORECAST_BY fans the fits out across the
  //    thread pool and returns deterministically ordered groups.
  PrintRows(
      "TS_FORECAST_BY (in-process)",
      server.HandleLine(SqlLine(
          4, "SELECT region, forecast_step, point_forecast, lower, upper "
             "FROM TS_FORECAST_BY(sales, region, month, revenue, "
             "model := 'ses', horizon := 3)")));

  // 5. The same queries over loopback TCP.
  serve::EventLoopServer tcp(&server,
                              serve::EventLoopServer::Options());
  if (auto st = tcp.Start(); !st.ok()) {
    std::fprintf(stderr, "tcp: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("== tcp 127.0.0.1:%u ==\n", tcp.port());
  PrintRows("TS_FORECAST (tcp)",
            RoundTrip(tcp.port(),
                      SqlLine(5, "SELECT * FROM TS_FORECAST(sales, month, "
                                 "revenue, horizon := 4)")));
  PrintRows(
      "TS_FORECAST_BY (tcp)",
      RoundTrip(tcp.port(),
                SqlLine(6, "SELECT region, forecast_step, point_forecast "
                           "FROM TS_FORECAST_BY(sales, region, month, "
                           "revenue, model := 'drift', horizon := 2)")));

  tcp.Stop();
  server.Stop();
  return 0;
}
