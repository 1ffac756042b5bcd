// Storage-engine benchmark (DESIGN.md §9): measures the numbers the store
// exists for and emits them as JSON (BENCH_store.json via
// bench/run_store.sh):
//
//   1. bulk_write     — buffered appends closed by one Sync() (the dataset
//                       cache's path), records/sec
//   2. durable_append — appends/sec under sync_every_append with 1 appender
//                       vs N concurrent appenders sharing group-commit fsyncs
//   3. recovery       — reopen (replay) time as the record count grows
//   4. compaction     — on-disk bytes before vs after a snapshot retires the
//                       log
//
// Throughputs are the median and spread of 5 trials.
//
//   ./build/bench/bench_store [output.json]

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "store/record_store.h"

using namespace easytime;

namespace {

namespace fs = std::filesystem;

const char* kDir = "/tmp/easytime_bench_store";

std::string Payload(uint64_t i) {
  // ~120 bytes, roughly the size of one serialized checkpoint record.
  std::string p = "{\"dataset\":\"bench_ds\",\"method\":\"bench_method\","
                  "\"metrics\":{\"mae\":1.5,\"rmse\":2.25},\"i\":" +
                  std::to_string(i) + "}";
  p.resize(120, ' ');
  return p;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void Die(const Status& status) {
  std::fprintf(stderr, "bench_store: %s\n", status.ToString().c_str());
  std::exit(1);
}

// ---- 1. bulk write ---------------------------------------------------------

/// Buffered appends closed by one Sync() — the dataset-cache path.
/// Returns records per second.
double BulkWriteThroughput(size_t n) {
  fs::remove_all(kDir);
  auto rs = store::RecordStore::Open(kDir, store::RecordStoreOptions{},
                                     nullptr);
  if (!rs.ok()) Die(rs.status());
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    auto seq = (*rs)->Append(Payload(i));
    if (!seq.ok()) Die(seq.status());
  }
  auto synced = (*rs)->Sync();
  if (!synced.ok()) Die(synced);
  double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
}

// ---- 2. durable appends: 1 appender vs N ----------------------------------

struct DurableNumbers {
  double records_per_sec = 0.0;
  double mean_batch_records = 0.0;
};

/// \p appenders threads each make \p appends_per_thread durable appends
/// (sync_every_append): concurrent appenders share fsyncs.
DurableNumbers DurableThroughput(size_t appenders,
                                 size_t appends_per_thread) {
  fs::remove_all(kDir);
  store::RecordStoreOptions opt;
  opt.sync_every_append = true;
  auto rs = store::RecordStore::Open(kDir, opt, nullptr);
  if (!rs.ok()) Die(rs.status());

  std::atomic<size_t> failures{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(appenders);
  for (size_t t = 0; t < appenders; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < appends_per_thread; ++i) {
        auto seq = (*rs)->Append(Payload(t * appends_per_thread + i));
        if (!seq.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  double seconds = watch.ElapsedSeconds();
  if (failures.load() != 0) Die(Status::IOError("durable append failed"));

  DurableNumbers out;
  const auto stats = (*rs)->group_commit_stats();
  const double n = static_cast<double>(appenders * appends_per_thread);
  out.records_per_sec = seconds > 0.0 ? n / seconds : 0.0;
  out.mean_batch_records =
      stats.batches > 0
          ? static_cast<double>(stats.records) / static_cast<double>(stats.batches)
          : 0.0;
  return out;
}

// ---- 3. recovery time vs record count -------------------------------------

double RecoveryMs(size_t n) {
  fs::remove_all(kDir);
  {
    auto rs = store::RecordStore::Open(kDir, store::RecordStoreOptions{},
                                       nullptr);
    if (!rs.ok()) Die(rs.status());
    for (size_t i = 0; i < n; ++i) {
      auto seq = (*rs)->Append(Payload(i));
      if (!seq.ok()) Die(seq.status());
    }
    auto synced = (*rs)->Sync();
    if (!synced.ok()) Die(synced);
  }
  Stopwatch watch;
  store::RecordStoreRecovery recovery;
  auto rs = store::RecordStore::Open(kDir, store::RecordStoreOptions{},
                                     &recovery);
  if (!rs.ok()) Die(rs.status());
  double ms = watch.ElapsedSeconds() * 1000.0;
  if (recovery.tail.size() != n) {
    std::fprintf(stderr, "bench_store: recovered %zu of %zu records\n",
                 recovery.tail.size(), n);
    std::exit(1);
  }
  return ms;
}

// ---- 4. compaction ratio --------------------------------------------------

struct CompactionNumbers {
  uint64_t wal_bytes_before = 0;
  uint64_t dir_bytes_after = 0;
  double ratio = 0.0;
  double recovery_ms_before = 0.0;
  double recovery_ms_after = 0.0;
};

CompactionNumbers CompactionRatio(size_t n) {
  fs::remove_all(kDir);
  store::RecordStoreOptions opt;
  opt.segment_bytes = 1 << 18;  // force a real segment chain
  opt.keep_snapshots = 1;       // retire the whole log on compaction
  auto rs = store::RecordStore::Open(kDir, opt, nullptr);
  if (!rs.ok()) Die(rs.status());
  for (size_t i = 0; i < n; ++i) {
    auto seq = (*rs)->Append(Payload(i));
    if (!seq.ok()) Die(seq.status());
  }
  auto synced = (*rs)->Sync();
  if (!synced.ok()) Die(synced);

  CompactionNumbers out;
  out.wal_bytes_before = DirBytes(kDir);
  {
    Stopwatch watch;
    store::RecordStoreRecovery recovery;
    auto reopened = store::RecordStore::Open(kDir, opt, &recovery);
    if (!reopened.ok()) Die(reopened.status());
    out.recovery_ms_before = watch.ElapsedSeconds() * 1000.0;
  }
  // A compacted state is far smaller than the log that produced it — here
  // the current value per key, as the knowledge/checkpoint stores keep.
  const std::string state = "{\"records\":1,\"last\":" + Payload(n - 1) + "}";
  auto compacted = (*rs)->Compact(state);
  if (!compacted.ok()) Die(compacted);
  (*rs).reset();
  out.dir_bytes_after = DirBytes(kDir);
  out.ratio = out.dir_bytes_after > 0
                  ? static_cast<double>(out.wal_bytes_before) /
                        static_cast<double>(out.dir_bytes_after)
                  : 0.0;
  Stopwatch watch;
  store::RecordStoreRecovery recovery;
  auto reopened = store::RecordStore::Open(kDir, opt, &recovery);
  if (!reopened.ok()) Die(reopened.status());
  out.recovery_ms_after = watch.ElapsedSeconds() * 1000.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kTrials = 5;
  Json out = Json::Object();
  benchutil::SetBuildInfo(&out);

  constexpr size_t kBulkN = 20000;
  std::vector<double> bulk_rps;
  for (int trial = 0; trial < kTrials; ++trial) {
    bulk_rps.push_back(BulkWriteThroughput(kBulkN));
  }
  Json bulk_json = Json::Object();
  bulk_json.Set("payload_bytes", static_cast<int64_t>(120));
  bulk_json.Set("records", static_cast<int64_t>(kBulkN));
  bulk_json.Set("threads", static_cast<int64_t>(1));
  bulk_json.Set("records_per_sec", benchutil::TrialSummary(bulk_rps));
  out.Set("bulk_write", std::move(bulk_json));

  // Durable appends/sec with 1 appender vs N sharing fsyncs; the speedup is
  // of the medians against the 1-appender median.
  Json durable_json = Json::Array();
  double single_median = 0.0;
  for (size_t appenders : {size_t{1}, size_t{8}, size_t{32}}) {
    const size_t per_thread = appenders == 1 ? 500 : 250;
    std::vector<double> rps, batch;
    for (int trial = 0; trial < kTrials; ++trial) {
      const DurableNumbers d = DurableThroughput(appenders, per_thread);
      rps.push_back(d.records_per_sec);
      batch.push_back(d.mean_batch_records);
    }
    Json point = Json::Object();
    point.Set("threads", static_cast<int64_t>(appenders));
    point.Set("records", static_cast<int64_t>(appenders * per_thread));
    Json rps_json = benchutil::TrialSummary(rps);
    const double median = rps_json.GetDouble("median", 0.0);
    if (appenders == 1) single_median = median;
    point.Set("records_per_sec", std::move(rps_json));
    point.Set("mean_batch_records", benchutil::TrialSummary(batch));
    point.Set("speedup_vs_1_appender",
              single_median > 0.0 ? median / single_median : 0.0);
    durable_json.Append(std::move(point));
  }
  out.Set("durable_append", std::move(durable_json));

  Json recovery_json = Json::Array();
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{50000}}) {
    Json point = Json::Object();
    point.Set("records", static_cast<int64_t>(n));
    point.Set("threads", static_cast<int64_t>(1));
    point.Set("recovery_ms", RecoveryMs(n));
    recovery_json.Append(std::move(point));
  }
  out.Set("recovery", std::move(recovery_json));

  CompactionNumbers compaction = CompactionRatio(20000);
  Json compaction_json = Json::Object();
  compaction_json.Set("records", static_cast<int64_t>(20000));
  compaction_json.Set("threads", static_cast<int64_t>(1));
  compaction_json.Set("wal_bytes_before",
                      static_cast<int64_t>(compaction.wal_bytes_before));
  compaction_json.Set("dir_bytes_after",
                      static_cast<int64_t>(compaction.dir_bytes_after));
  compaction_json.Set("ratio", compaction.ratio);
  compaction_json.Set("recovery_ms_before", compaction.recovery_ms_before);
  compaction_json.Set("recovery_ms_after", compaction.recovery_ms_after);
  out.Set("compaction", std::move(compaction_json));

  fs::remove_all(kDir);

  std::string payload = out.Dump(2);
  std::printf("%s\n", payload.c_str());
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fputs(payload.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  return 0;
}
