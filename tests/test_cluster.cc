// Sharded serving tier tests (DESIGN.md §14): consistent-hash placement
// (stable owners, bounded-load overflow), frozen-store catch-up with the
// torn-tail guard, worker supervision, and the full router integration —
// routing, fan-out merges, at-most-once appends, and the SIGKILL failover
// that promotes a replica without losing an acked append.
//
// The integration tests spawn real easytime_shard_worker processes (path
// baked in via EASYTIME_WORKER_BIN); worker bring-up seeds a small suite,
// so those tests are seconds-not-milliseconds and assert a lot per cluster.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/replicator.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "cluster/supervisor.h"
#include "common/json.h"
#include "serve/client.h"
#include "store/record_store.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "tsdata/series.h"

namespace easytime::cluster {
namespace {

namespace fs = std::filesystem;
using easytime::Json;

std::string TestDir(const std::string& leaf) {
  std::string dir =
      (fs::path(::testing::TempDir()) / ("easytime_cluster_" + leaf)).string();
  fs::remove_all(dir);
  return dir;
}

// ----- shard map ------------------------------------------------------------

TEST(Fnv1a64Test, MatchesReferenceVectorsAndIsStable) {
  // Published FNV-1a 64-bit vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1a64("traffic_u0"), Fnv1a64(std::string("traffic_u0")));
}

TEST(ShardMapTest, OwnerIsStableAndIndependentOfInsertionOrder) {
  ShardMap a;
  ShardMap b;
  a.AddShard("shard-0");
  a.AddShard("shard-1");
  a.AddShard("shard-2");
  b.AddShard("shard-2");
  b.AddShard("shard-0");
  b.AddShard("shard-1");
  for (int i = 0; i < 200; ++i) {
    const std::string key = "dataset_" + std::to_string(i);
    auto oa = a.Owner(key);
    auto ob = b.Owner(key);
    ASSERT_TRUE(oa.ok());
    ASSERT_TRUE(ob.ok());
    EXPECT_EQ(*oa, *ob) << key;
  }
}

TEST(ShardMapTest, OwnerFailsOnEmptyRingAndDistributesOtherwise) {
  ShardMap map;
  EXPECT_FALSE(map.Owner("anything").ok());
  map.AddShard("shard-0");
  map.AddShard("shard-1");
  map.AddShard("shard-2");
  std::map<std::string, int> counts;
  for (int i = 0; i < 600; ++i) {
    auto owner = map.Owner("key_" + std::to_string(i));
    ASSERT_TRUE(owner.ok());
    counts[*owner]++;
  }
  // With 64 vnodes each, every shard owns a meaningful slice.
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [id, n] : counts) EXPECT_GT(n, 60) << id;
}

TEST(ShardMapTest, RemoveShardOnlyMovesTheRemovedShardsKeys) {
  ShardMap map;
  map.AddShard("shard-0");
  map.AddShard("shard-1");
  map.AddShard("shard-2");
  std::map<std::string, std::string> before;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "key_" + std::to_string(i);
    before[key] = *map.Owner(key);
  }
  map.RemoveShard("shard-1");
  for (const auto& [key, owner] : before) {
    auto now = map.Owner(key);
    ASSERT_TRUE(now.ok());
    if (owner != "shard-1") {
      EXPECT_EQ(*now, owner) << key;  // consistent hashing: others stay put
    } else {
      EXPECT_NE(*now, "shard-1") << key;
    }
  }
}

TEST(ShardMapTest, BoundedLoadPickRoutesAroundSaturatedShards) {
  ShardMap map;
  map.AddShard("shard-0");
  map.AddShard("shard-1");
  map.AddShard("shard-2");

  // Zero load everywhere: Pick agrees with Owner (affinity preserved).
  std::map<std::string, size_t> idle = {
      {"shard-0", 0}, {"shard-1", 0}, {"shard-2", 0}};
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(*map.Pick(key, idle), *map.Owner(key)) << key;
  }

  // One shard saturated: none of its keys stay; other shards keep theirs.
  // total = 90, ceiling = ceil(1.25 * 91 / 3) = 38.
  std::map<std::string, size_t> hot = {
      {"shard-0", 90}, {"shard-1", 0}, {"shard-2", 0}};
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto picked = map.Pick(key, hot);
    ASSERT_TRUE(picked.ok());
    EXPECT_NE(*picked, "shard-0") << key;
    if (*map.Owner(key) != "shard-0") {
      EXPECT_EQ(*picked, *map.Owner(key)) << key;
    }
  }

  // Everyone saturated: somebody must do the work — fall back to the owner.
  std::map<std::string, size_t> slammed = {
      {"shard-0", 500}, {"shard-1", 500}, {"shard-2", 500}};
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(*map.Pick(key, slammed), *map.Owner(key)) << key;
  }
}

// ----- frozen-store catch-up ------------------------------------------------

TEST(SyncFrozenStoreDirTest, CopiesValidRecordsAndCutsTornTail) {
  const std::string src = TestDir("sync_src");
  const std::string dst = TestDir("sync_dst");
  {
    store::WalOptions wopt;
    wopt.segment_bytes = 256;  // force several sealed segments
    auto wal = store::Wal::Open(src, wopt, 0, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 0; i < 40; ++i) {
      auto seq = (*wal)->Append("record-" + std::to_string(i));
      ASSERT_TRUE(seq.ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  ASSERT_TRUE(store::WriteSnapshot(src, 20, "state-through-20").ok());
  // Simulate death mid-append: garbage on the active segment's tail.
  {
    auto segments = store::ListWalSegments(src);
    ASSERT_TRUE(segments.ok());
    ASSERT_GT(segments->size(), 1u);
    std::ofstream out(segments->back().path,
                      std::ios::binary | std::ios::app);
    out << "\x13\x37garbage torn tail";
  }

  auto report = SyncFrozenStoreDir(src, dst);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->last_seq, 40u);
  EXPECT_GT(report->segments_copied, 1u);

  // The copy recovers to exactly the 40 acked records, torn tail gone.
  std::vector<uint64_t> seqs;
  auto wal = store::Wal::Open(
      dst, store::WalOptions(), 0,
      [&](uint64_t seq, std::string&&) { seqs.push_back(seq); });
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(seqs.size(), 40u);
  EXPECT_EQ(seqs.front(), 1u);
  EXPECT_EQ(seqs.back(), 40u);

  // The newest snapshot arrives whole and durably renamed into place.
  EXPECT_EQ(report->snapshots_copied, 1u);
  auto snap = store::LoadLatestSnapshot(dst);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->seq, 20u);
  EXPECT_EQ(snap->state, "state-through-20");
  for (const auto& entry : std::filesystem::directory_iterator(dst)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// A corrupt newest snapshot at the source: recovery there falls back to the
// older retained snapshot plus the WAL past it, and recovery from the
// promoted copy must find exactly the same records.
TEST(SyncFrozenStoreDirTest, CorruptNewestSnapshotFallsBackAsAtTheSource) {
  const std::string src = TestDir("sync_corrupt_src");
  const std::string src_copy = TestDir("sync_corrupt_src_copy");
  const std::string dst = TestDir("sync_corrupt_dst");
  store::RecordStoreOptions options;
  options.segment_bytes = 128;
  options.keep_snapshots = 2;
  {
    auto st = store::RecordStore::Open(src, options);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    for (int i = 1; i <= 30; ++i) {
      ASSERT_TRUE((*st)->Append("record-" + std::to_string(i)).ok());
      if (i % 10 == 0 && i < 30) {
        ASSERT_TRUE((*st)->Compact("state-through-" + std::to_string(i)).ok());
      }
    }
    ASSERT_TRUE((*st)->Sync().ok());
  }
  auto snapshots = store::ListSnapshots(src);
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots.back().seq, 20u);
  {
    std::fstream f(snapshots.back().path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff middle = f.tellg() / 2;
    f.seekg(middle);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(middle);
    f.write(&byte, 1);
  }

  auto report = SyncFrozenStoreDir(src, dst);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->snapshots_copied, 2u);
  // Recovery deletes the corrupt snapshot it skips: read the source from a
  // copy so both recoveries start from the same bytes.
  std::filesystem::copy(src, src_copy,
                        std::filesystem::copy_options::recursive);

  store::RecordStoreRecovery at_src;
  store::RecordStoreRecovery at_dst;
  ASSERT_TRUE(store::RecordStore::Open(src_copy, options, &at_src).ok());
  ASSERT_TRUE(store::RecordStore::Open(dst, options, &at_dst).ok());
  ASSERT_TRUE(at_src.has_snapshot);
  EXPECT_EQ(at_src.snapshot_seq, 10u);
  EXPECT_EQ(at_src.snapshot, "state-through-10");
  ASSERT_EQ(at_src.tail.size(), 20u);
  EXPECT_EQ(at_src.tail.back().second, "record-30");

  EXPECT_EQ(at_dst.has_snapshot, at_src.has_snapshot);
  EXPECT_EQ(at_dst.snapshot_seq, at_src.snapshot_seq);
  EXPECT_EQ(at_dst.snapshot, at_src.snapshot);
  EXPECT_EQ(at_dst.tail, at_src.tail);
  EXPECT_EQ(at_dst.last_seq, at_src.last_seq);
  EXPECT_EQ(at_dst.corrupt_snapshots, 1u);
}

TEST(SyncFrozenStoreDirTest, MissingSourceIsEmptyNotError) {
  const std::string dst = TestDir("sync_nosrc_dst");
  auto report = SyncFrozenStoreDir(TestDir("sync_nosrc_src"), dst);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->segments_copied, 0u);
  EXPECT_EQ(report->last_seq, 0u);
}

TEST(WalSegmentImportTest, StaleReshipCannotRollBackDurableRecords) {
  const std::string src = TestDir("reship_src");
  const std::string dst = TestDir("reship_dst");
  std::string file;
  {
    store::WalOptions wopt;
    wopt.segment_bytes = 1 << 20;
    auto wal = store::Wal::Open(src, wopt, 0, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE((*wal)->Append("r").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    auto segments = store::ListWalSegments(src);
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    file = segments->front().file;
  }
  auto full = store::ExportWalSegment(src + "/" + file, file);
  ASSERT_TRUE(full.ok());
  auto imported = store::ImportWalSegment(dst, file, *full);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported->records, 10u);

  // A stale re-ship carrying fewer valid records must be rejected.
  const std::string stale = full->substr(0, full->size() - 10);
  auto rejected = store::ImportWalSegment(dst, file, stale);
  EXPECT_FALSE(rejected.ok());
  auto still = store::ExportWalSegment(dst + "/" + file, file);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->size(), full->size());
}

// ----- supervisor -----------------------------------------------------------

TEST(SupervisorTest, SpawnFailsCleanlyOnMissingBinaryOrSilentWorker) {
  const std::string dir = TestDir("supervisor_bad");
  fs::create_directories(dir);
  Supervisor::Options opt;
  opt.spawn_timeout_ms = 1500.0;
  Supervisor supervisor(opt);

  WorkerSpec missing;
  missing.name = "missing";
  missing.argv = {dir + "/does-not-exist"};
  missing.port_file = dir + "/missing.port";
  EXPECT_FALSE(supervisor.Spawn(missing).ok());

  // A worker that runs but never publishes its port times out.
  WorkerSpec silent;
  silent.name = "silent";
  silent.argv = {"/bin/sleep", "30"};
  silent.port_file = dir + "/silent.port";
  auto spawned = supervisor.Spawn(silent);
  EXPECT_FALSE(spawned.ok());
}

TEST(SupervisorTest, SpawnReadsPortFileAndRestartBacksOff) {
  const std::string dir = TestDir("supervisor_ok");
  fs::create_directories(dir);
  // A stand-in worker: publish a port atomically, then sleep.
  const std::string script = dir + "/worker.sh";
  {
    std::ofstream out(script);
    // exec: the shell BECOMES the sleep, so Supervisor::Kill's signal hits
    // it — a forked sleep would survive and hold the test's output pipe.
    out << "#!/bin/sh\nprintf '4242\\n' > \"$1.tmp\"\nmv \"$1.tmp\" \"$1\"\n"
           "exec sleep 60\n";
  }
  fs::permissions(script, fs::perms::owner_all);

  Supervisor::Options opt;
  opt.spawn_timeout_ms = 5000.0;
  opt.restart_backoff_ms = 5000.0;  // wide window so the test never races it
  Supervisor supervisor(opt);
  WorkerSpec spec;
  spec.name = "w";
  spec.argv = {"/bin/sh", script, dir + "/w.port"};
  spec.port_file = dir + "/w.port";
  auto port = supervisor.Spawn(spec);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  EXPECT_EQ(*port, 4242);
  EXPECT_TRUE(supervisor.Alive("w"));
  EXPECT_EQ(supervisor.PortOf("w"), 4242);

  auto wait_dead = [&] {
    for (int i = 0; i < 200 && supervisor.Alive("w"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(supervisor.Alive("w"));
  };

  // Restarting a live worker is refused.
  auto live = supervisor.Restart("w");
  EXPECT_FALSE(live.ok());

  // The first restart after a crash is immediate (a long-lived worker dying
  // once is not a crash loop)…
  ASSERT_TRUE(supervisor.Kill("w", SIGKILL).ok());
  wait_dead();
  auto restarted = supervisor.Restart("w");
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(*restarted, 4242);
  EXPECT_EQ(supervisor.Restarts("w"), 1u);

  // …but a second crash inside the backoff window is refused until it
  // elapses (Unavailable — the health loop just retries next tick).
  ASSERT_TRUE(supervisor.Kill("w", SIGKILL).ok());
  wait_dead();
  auto backing_off = supervisor.Restart("w");
  EXPECT_FALSE(backing_off.ok());
  EXPECT_TRUE(backing_off.status().IsUnavailable())
      << backing_off.status().ToString();
  EXPECT_EQ(supervisor.Restarts("w"), 1u);
  supervisor.Terminate("w", 100.0);
}

TEST(SupervisorTest, BringUpWaitDoesNotBlockOtherSupervisorCalls) {
  const std::string dir = TestDir("supervisor_nonblock");
  fs::create_directories(dir);
  // A stand-in worker that takes ~1 s to publish its port, like a shard
  // worker running its cold-store seeding evaluation.
  const std::string script = dir + "/slow.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nsleep 1\nprintf '4243\\n' > \"$1.tmp\"\n"
           "mv \"$1.tmp\" \"$1\"\nexec sleep 60\n";
  }
  fs::permissions(script, fs::perms::owner_all);

  Supervisor::Options opt;
  opt.spawn_timeout_ms = 15000.0;
  Supervisor supervisor(opt);
  WorkerSpec spec;
  spec.name = "slow";
  spec.argv = {"/bin/sh", script, dir + "/slow.port"};
  spec.port_file = dir + "/slow.port";

  std::thread spawner([&] {
    auto port = supervisor.Spawn(spec);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
  });
  // Let the spawner enter the bring-up wait, then hit the supervisor from
  // another thread: health-check-shaped calls must return promptly instead
  // of stalling behind the whole bring-up (the old single-lock behavior).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(supervisor.Alive("slow"));
  EXPECT_EQ(supervisor.PortOf("slow"), 0) << "port not published yet";
  EXPECT_TRUE(supervisor.StatsJson().Get("slow").is_object());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 500.0);
  // A concurrent Spawn of the same name is refused, not doubled.
  EXPECT_FALSE(supervisor.Spawn(spec).ok());
  spawner.join();
  EXPECT_EQ(supervisor.PortOf("slow"), 4243);
  supervisor.Terminate("slow", 100.0);
}

// ----- router integration ---------------------------------------------------

Json ParseLine(const std::string& line) {
  auto parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? std::move(*parsed) : Json::Object();
}

Json Call(ClusterRouter& router, int64_t id, const std::string& endpoint,
          Json params) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("endpoint", endpoint);
  req.Set("params", std::move(params));
  return ParseLine(router.HandleLine(req.Dump()));
}

Json AppendParams(const std::string& dataset,
                  const std::vector<double>& values) {
  Json params = Json::Object();
  params.Set("dataset", dataset);
  Json arr = Json::Array();
  for (double v : values) arr.Append(v);
  params.Set("values", std::move(arr));
  return params;
}

// shard id -> one dataset of the "small" preset's suite that it owns.
std::map<std::string, std::string> DatasetPerShard(
    const ClusterRouter& router) {
  std::map<std::string, std::string> owned;
  for (int d = 0; d < tsdata::kNumDomains; ++d) {
    const std::string name =
        std::string(tsdata::DomainName(static_cast<tsdata::Domain>(d))) +
        "_u0";
    auto owner = router.OwnerShard(name);
    EXPECT_TRUE(owner.ok()) << owner.status().ToString();
    if (owner.ok()) owned.emplace(*owner, name);
  }
  return owned;
}

ClusterRouter::Options BaseOptions(const std::string& work_dir) {
  ClusterRouter::Options opt;
  opt.worker_binary = EASYTIME_WORKER_BIN;
  opt.work_dir = work_dir;
  opt.preset = "small";
  opt.health_interval_ms = 0.0;  // tests drive HealthCheckNow deterministically
  opt.ship_interval_ms = 0.0;    // and ShipOnce likewise
  opt.retry.max_attempts = 2;
  opt.retry.base_delay_ms = 2.0;
  return opt;
}

TEST(ClusterRouterTest, RoutesAppendsAndMergesFanOuts) {
  ClusterRouter::Options opt = BaseOptions(TestDir("router_route"));
  opt.shards = 2;
  opt.replicate = false;
  ClusterRouter router(opt);
  auto started = router.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  // ping answers at the router, not a shard.
  Json pong = Call(router, 1, "ping", Json::Object());
  ASSERT_TRUE(pong.GetBool("ok", false)) << pong.Dump();
  EXPECT_EQ(pong.Get("result").GetString("scope", ""), "cluster");

  const std::string dataset = "traffic_u0";
  auto owner = router.OwnerShard(dataset);
  ASSERT_TRUE(owner.ok());
  const std::string other =
      *owner == "shard-0" ? "shard-1" : "shard-0";

  // Appends land on the owner, and only on the owner.
  Json appended =
      Call(router, 2, "append", AppendParams(dataset, {1.0, 2.0, 3.0}));
  ASSERT_TRUE(appended.GetBool("ok", false)) << appended.Dump();
  EXPECT_EQ(appended.Get("result").GetInt("appended", 0), 3);
  const int64_t length = appended.Get("result").GetInt("length", 0);
  EXPECT_GT(length, 3);

  // A dataset read routes to the same owner and sees the append.
  Json forecast_params = Json::Object();
  forecast_params.Set("dataset", dataset);
  forecast_params.Set("method", "ses");
  forecast_params.Set("horizon", int64_t{4});
  Json forecast = Call(router, 3, "forecast", forecast_params);
  ASSERT_TRUE(forecast.GetBool("ok", false)) << forecast.Dump();
  EXPECT_FALSE(forecast.Get("result").GetBool("degraded", false));

  // Cluster stats: merged scope, per-shard sections, router counters; the
  // owner (and only the owner) saw the append.
  Json stats = Call(router, 4, "stats", Json::Object());
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  const Json& result = stats.Get("result");
  EXPECT_EQ(result.GetString("scope", ""), "cluster");
  EXPECT_EQ(result.GetInt("shards_responding", 0), 2);
  EXPECT_GT(result.Get("totals").GetInt("requests", 0), 0);
  EXPECT_GT(result.Get("router").GetInt("requests_routed", 0), 0);
  const Json& per_shard = result.Get("shards");
  ASSERT_TRUE(per_shard.Get(*owner).is_object());
  ASSERT_TRUE(per_shard.Get(other).is_object());
  EXPECT_EQ(per_shard.Get(*owner).GetString("scope", ""), "process");
  EXPECT_EQ(per_shard.Get(*owner)
                .Get("endpoints")
                .Get("append")
                .GetInt("requests", 0),
            1);
  EXPECT_FALSE(per_shard.Get(other).Get("endpoints").Has("append"));

  // recommend merges every shard's ranking.
  Json rec_params = Json::Object();
  rec_params.Set("dataset", dataset);
  Json rec = Call(router, 5, "recommend", rec_params);
  ASSERT_TRUE(rec.GetBool("ok", false)) << rec.Dump();
  EXPECT_EQ(rec.Get("result").GetInt("shards_merged", 0), 2);
  ASSERT_GT(rec.Get("result").Get("recommendations").size(), 0u);
  EXPECT_NE(rec.Get("result")
                .Get("recommendations")
                .items()
                .front()
                .GetString("method", ""),
            "");

  // Unknown dataset: a clean NotFound from the owner, not degraded noise.
  Json missing_params = Json::Object();
  missing_params.Set("dataset", "no_such_dataset");
  missing_params.Set("method", "ses");
  missing_params.Set("horizon", int64_t{4});
  Json missing = Call(router, 6, "forecast", missing_params);
  ASSERT_FALSE(missing.GetBool("ok", true));
  EXPECT_EQ(missing.Get("error").GetString("code", ""), "NotFound");

  // An async job is stamped with its shard, and job_status finds it both
  // pinned and via the fan-out.
  auto eval_parsed = Json::Parse(R"({
    "datasets": ["traffic_u0"],
    "methods": ["naive"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  ASSERT_TRUE(eval_parsed.ok());
  Json eval_params = std::move(*eval_parsed);
  Json submitted = Call(router, 7, "evaluate", eval_params);
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const std::string job_shard =
      submitted.Get("result").GetString("shard", "");
  const int64_t job = submitted.Get("result").GetInt("job", -1);
  EXPECT_TRUE(job_shard == "shard-0" || job_shard == "shard-1");
  ASSERT_GE(job, 0);
  Json status_params = Json::Object();
  status_params.Set("job", job);
  Json fanned = Call(router, 8, "job_status", status_params);
  EXPECT_TRUE(fanned.GetBool("ok", false)) << fanned.Dump();
  status_params.Set("shard", job_shard);
  Json pinned = Call(router, 9, "job_status", status_params);
  EXPECT_TRUE(pinned.GetBool("ok", false)) << pinned.Dump();

  // The TCP front-end speaks the same protocol.
  ASSERT_NE(router.port(), 0);
  serve::TcpClient client(router.port());
  auto net = client.Call("ping", Json::Object());
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_TRUE(net->GetBool("pong", false));

  router.Stop();
}

// Each worker numbers its jobs from 1, so two shards both hold a job 1. An
// un-pinned lookup of such an id must refuse rather than act on whichever
// shard answers first (possibly another client's job); the "shard" pin from
// the submit ack finds each one. Also covers the flush_cache and recommend
// merges.
TEST(ClusterRouterTest, CollidingJobIdsNeedTheShardPin) {
  ClusterRouter::Options opt = BaseOptions(TestDir("router_jobs"));
  opt.shards = 2;
  opt.replicate = false;
  ClusterRouter router(opt);
  auto started = router.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  // flush_cache sums every shard's dropped entries. A stored-dataset
  // forecast lands on its dataset's owner and leaves one cache entry there;
  // four distinct ones per shard fill both shards' caches.
  const std::map<std::string, std::string> owned = DatasetPerShard(router);
  ASSERT_EQ(owned.size(), 2u);
  for (int i = 0; i < 8; ++i) {
    Json params = Json::Object();
    params.Set("dataset", owned.at(i % 2 ? "shard-1" : "shard-0"));
    params.Set("method", "naive");
    params.Set("horizon", int64_t{2 + i});
    Json forecast = Call(router, 10 + i, "forecast", std::move(params));
    ASSERT_TRUE(forecast.GetBool("ok", false)) << forecast.Dump();
  }
  Json stats = Call(router, 20, "stats", Json::Object());
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  int64_t cached = 0;
  for (const char* shard : {"shard-0", "shard-1"}) {
    const int64_t entries =
        stats.Get("result").Get("shards").Get(shard).Get("cache").GetInt(
            "entries", -1);
    EXPECT_GE(entries, 4) << shard;
    cached += entries;
  }
  EXPECT_GE(cached, 8);
  Json flushed = Call(router, 21, "flush_cache", Json::Object());
  ASSERT_TRUE(flushed.GetBool("ok", false)) << flushed.Dump();
  EXPECT_EQ(flushed.Get("result").GetInt("flushed", -1), cached);
  EXPECT_EQ(flushed.Get("result").GetInt("shards_responding", -1), 2);
  EXPECT_FALSE(flushed.Get("result").GetBool("degraded", false));
  Json again = Call(router, 22, "flush_cache", Json::Object());
  EXPECT_EQ(again.Get("result").GetInt("flushed", -1), 0) << again.Dump();

  // recommend's "k" cuts the merged ranking after the shards' scores are
  // averaged: the k=1 reply is exactly the head of the full ranking.
  Json rec_params = Json::Object();
  rec_params.Set("dataset", "traffic_u0");
  Json all = Call(router, 23, "recommend", rec_params);
  ASSERT_TRUE(all.GetBool("ok", false)) << all.Dump();
  EXPECT_EQ(all.Get("result").GetInt("shards_merged", -1), 2);
  const auto& ranking = all.Get("result").Get("recommendations").items();
  ASSERT_GE(ranking.size(), 2u);
  EXPECT_GE(ranking[0].GetDouble("score", 0.0),
            ranking[1].GetDouble("score", 0.0));
  rec_params.Set("k", int64_t{1});
  Json top = Call(router, 24, "recommend", rec_params);
  ASSERT_TRUE(top.GetBool("ok", false)) << top.Dump();
  const auto& cut = top.Get("result").Get("recommendations").items();
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0].Dump(), ranking[0].Dump());

  // Submits are fungible work: vary the horizon until both shards have
  // acked a job and one of them holds more jobs than the other.
  std::map<std::string, int64_t> last_job;  // shard -> newest acked id
  for (int h = 2; h < 40; ++h) {
    if (last_job.size() == 2 && last_job["shard-0"] != last_job["shard-1"]) {
      break;
    }
    auto parsed = Json::Parse(
        R"({"datasets": ["traffic_u0"], "methods": ["naive"], "evaluation":)"
        R"( {"strategy": "fixed", "horizon": )" +
        std::to_string(h) + R"(, "metrics": ["mae"]}})");
    ASSERT_TRUE(parsed.ok());
    Json ack = Call(router, 100 + h, "evaluate", std::move(*parsed));
    ASSERT_TRUE(ack.GetBool("ok", false)) << ack.Dump();
    const std::string shard = ack.Get("result").GetString("shard", "");
    const int64_t job = ack.Get("result").GetInt("job", -1);
    EXPECT_EQ(job, last_job[shard] + 1) << shard << " numbers its own jobs";
    last_job[shard] = job;
  }
  ASSERT_EQ(last_job.size(), 2u);
  ASSERT_NE(last_job["shard-0"], last_job["shard-1"]);

  // Both shards know job 1: an un-pinned status or cancel is refused and
  // acts on neither.
  Json job_one = Json::Object();
  job_one.Set("job", int64_t{1});
  for (const char* endpoint : {"job_status", "cancel"}) {
    Json resp = Call(router, 200, endpoint, job_one);
    ASSERT_FALSE(resp.GetBool("ok", true)) << endpoint << ": " << resp.Dump();
    EXPECT_EQ(resp.Get("error").GetString("code", ""), "InvalidArgument")
        << resp.Dump();
  }
  Json after = Call(router, 201, "stats", Json::Object());
  for (const char* shard : {"shard-0", "shard-1"}) {
    EXPECT_EQ(after.Get("result")
                  .Get("shards")
                  .Get(shard)
                  .Get("jobs")
                  .GetInt("cancelled", -1),
              0)
        << shard;
  }

  // Pinned lookups find each shard's own job 1 (and only that shard's).
  for (const char* shard : {"shard-0", "shard-1"}) {
    Json pinned = job_one;
    pinned.Set("shard", shard);
    Json status = Call(router, 202, "job_status", pinned);
    ASSERT_TRUE(status.GetBool("ok", false)) << status.Dump();
    EXPECT_EQ(status.Get("result").GetInt("job", -1), 1);
    EXPECT_NE(status.Get("result").GetString("state", ""), "cancelled");
  }

  // An id exactly one shard knows is answered un-pinned; an id nobody
  // knows is NotFound, pinned or not.
  const std::string busier =
      last_job["shard-0"] > last_job["shard-1"] ? "shard-0" : "shard-1";
  Json unique = Json::Object();
  unique.Set("job", last_job[busier]);
  Json found = Call(router, 203, "job_status", unique);
  ASSERT_TRUE(found.GetBool("ok", false)) << found.Dump();
  EXPECT_EQ(found.GetInt("id", -1), 203);
  EXPECT_EQ(found.Get("result").GetInt("job", -1), last_job[busier]);
  Json nobody = Json::Object();
  nobody.Set("job", int64_t{999});
  Json missing = Call(router, 204, "job_status", nobody);
  EXPECT_EQ(missing.Get("error").GetString("code", ""), "NotFound")
      << missing.Dump();
  nobody.Set("shard", busier);
  Json missing_pinned = Call(router, 205, "cancel", nobody);
  EXPECT_EQ(missing_pinned.Get("error").GetString("code", ""), "NotFound")
      << missing_pinned.Dump();

  router.Stop();
}

// SQL tables live in one worker process, so every statement must reach the
// shard that ran the CREATE TABLE, even while that shard is the busier one
// and bounded-load routing would send fungible work to the other.
TEST(ClusterRouterTest, SqlStatementsMeetOnOneShardEvenWhenItIsBusy) {
  ClusterRouter::Options opt = BaseOptions(TestDir("router_sql"));
  opt.shards = 2;
  opt.replicate = false;
  ClusterRouter router(opt);
  auto started = router.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  auto sql = [&router](int64_t id, const std::string& query) {
    Json params = Json::Object();
    params.Set("query", query);
    return Call(router, id, "sql", std::move(params));
  };

  Json created = sql(1, "CREATE TABLE routed_ts (t INTEGER, v REAL)");
  ASSERT_TRUE(created.GetBool("ok", false)) << created.Dump();
  Json stats = Call(router, 2, "stats", Json::Object());
  std::string sql_shard;
  for (const char* shard : {"shard-0", "shard-1"}) {
    if (stats.Get("result").Get("shards").Get(shard).Get("endpoints").Has(
            "sql")) {
      sql_shard = shard;
    }
  }
  ASSERT_FALSE(sql_shard.empty()) << stats.Dump();
  const std::map<std::string, std::string> owned = DatasetPerShard(router);
  ASSERT_EQ(owned.count(sql_shard), 1u);

  // Two slow forecasts in flight on that shard put it at the bounded-load
  // ceiling (2 outstanding of 3 placed, over 2 shards): fungible work now
  // goes to the other shard. The statements must not.
  std::vector<std::thread> slow;
  for (int i = 0; i < 2; ++i) {
    slow.emplace_back([&router, &owned, &sql_shard, i] {
      Json params = Json::Object();
      params.Set("dataset", owned.at(sql_shard));
      params.Set("method", "naive");
      params.Set("horizon", int64_t{3 + i});
      params.Set("sleep_ms", 800.0);
      Json reply = Call(router, 10 + i, "forecast", std::move(params));
      EXPECT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    });
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.ClusterStatusJson().Get("shards").Get(sql_shard).GetInt(
             "outstanding", 0) < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string insert = "INSERT INTO routed_ts VALUES ";
  for (int t = 0; t < 24; ++t) {
    if (t) insert += ", ";
    insert += "(" + std::to_string(t) + ", " + std::to_string(10 + t % 4) + ")";
  }
  Json inserted = sql(3, insert);
  Json forecast = sql(4,
                      "SELECT * FROM TS_FORECAST(routed_ts, t, v, "
                      "model := 'naive', horizon := 3)");
  for (auto& t : slow) t.join();
  ASSERT_TRUE(inserted.GetBool("ok", false)) << inserted.Dump();
  ASSERT_TRUE(forecast.GetBool("ok", false)) << forecast.Dump();
  EXPECT_EQ(forecast.Get("result").Get("rows").size(), 3u) << forecast.Dump();

  // Every statement ran on the one shard.
  Json after = Call(router, 5, "stats", Json::Object());
  EXPECT_EQ(after.Get("result")
                .Get("shards")
                .Get(sql_shard)
                .Get("endpoints")
                .Get("sql")
                .GetInt("requests", -1),
            3)
      << after.Dump();
  router.Stop();
}

// A forward retries no longer than the request's "deadline_ms": against a
// shard with no live primary and no replica, a request with a small budget
// is answered before the router's first (long) backoff would end.
TEST(ClusterRouterTest, ForwardsStopRetryingAtTheRequestDeadline) {
  ClusterRouter::Options opt = BaseOptions(TestDir("router_deadline"));
  opt.shards = 1;
  opt.replicate = false;
  opt.retry.max_attempts = 3;
  opt.retry.base_delay_ms = 4000.0;  // jittered: the first backoff >= 2 s
  opt.retry.max_delay_ms = 8000.0;
  ClusterRouter router(opt);
  auto started = router.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_TRUE(router.KillShardPrimary("shard-0", SIGKILL).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Json forecast = Json::Object();
  forecast.Set("dataset", "traffic_u0");
  forecast.Set("method", "naive");
  forecast.Set("horizon", int64_t{3});
  forecast.Set("deadline_ms", 100.0);
  Json append = AppendParams("traffic_u0", {1.0});
  append.Set("deadline_ms", 100.0);
  int64_t id = 1;
  for (const auto& [endpoint, params] :
       {std::pair<const char*, Json>{"forecast", forecast},
        std::pair<const char*, Json>{"append", append}}) {
    const auto t0 = std::chrono::steady_clock::now();
    Json reply = Call(router, id++, endpoint, params);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_FALSE(reply.GetBool("ok", true)) << endpoint << ": " << reply.Dump();
    EXPECT_EQ(reply.Get("error").GetString("code", ""), "Unavailable")
        << endpoint << ": " << reply.Dump();
    EXPECT_LT(ms, 1500.0) << endpoint << " waited out a backoff past its "
                          << "100 ms deadline";
  }
  router.Stop();
}

TEST(ClusterRouterTest, SigkillFailoverPromotesReplicaWithoutLosingAcks) {
  ClusterRouter::Options opt = BaseOptions(TestDir("router_failover"));
  opt.shards = 1;
  opt.replicate = true;
  ClusterRouter router(opt);
  auto started = router.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  const std::string dataset = "traffic_u0";

  // Acked appends: these are durable the moment the ack arrives.
  Json first =
      Call(router, 1, "append", AppendParams(dataset, {1.0, 2.0, 3.0, 4.0}));
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  Json second =
      Call(router, 2, "append", AppendParams(dataset, {5.0, 6.0, 7.0}));
  ASSERT_TRUE(second.GetBool("ok", false)) << second.Dump();
  const int64_t acked_length = second.Get("result").GetInt("length", 0);
  ASSERT_GT(acked_length, 0);

  // Exercise the live shipping pass (sealed segments only — with a small
  // write volume there may be nothing sealed yet; lag metrics must appear
  // either way).
  router.replicator()->ShipOnce();
  Json ship = router.replicator()->StatsJson();
  ASSERT_TRUE(ship.Get("shard-0").is_object()) << ship.Dump();
  EXPECT_GE(ship.Get("shard-0").GetInt("primary_last_seq", -1), 0);

  // Kill -9 the primary mid-flight.
  ASSERT_TRUE(router.KillShardPrimary("shard-0", SIGKILL).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // While the shard is down: reads degrade to the replica (stale, tagged,
  // never wrong), appends refuse with Unavailable instead of lying.
  Json forecast_params = Json::Object();
  forecast_params.Set("dataset", dataset);
  forecast_params.Set("method", "ses");
  forecast_params.Set("horizon", int64_t{4});
  Json degraded = Call(router, 3, "forecast", forecast_params);
  ASSERT_TRUE(degraded.GetBool("ok", false)) << degraded.Dump();
  EXPECT_TRUE(degraded.Get("result").GetBool("degraded", false));

  Json refused = Call(router, 4, "append", AppendParams(dataset, {9.9}));
  ASSERT_FALSE(refused.GetBool("ok", true)) << refused.Dump();
  EXPECT_EQ(refused.Get("error").GetString("code", ""), "Unavailable");

  // Job submits are at-most-once like appends: with the only primary dead
  // they refuse with Unavailable rather than blind-retrying the submit.
  auto submit_parsed = Json::Parse(R"({
    "datasets": ["traffic_u0"],
    "methods": ["naive"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  ASSERT_TRUE(submit_parsed.ok());
  Json submit = Call(router, 8, "evaluate", std::move(*submit_parsed));
  ASSERT_FALSE(submit.GetBool("ok", true)) << submit.Dump();
  EXPECT_EQ(submit.Get("error").GetString("code", ""), "Unavailable");

  // An un-pinned job lookup cannot claim NotFound while the shard that may
  // own the job is unreachable — that would make a fanned cancel a silent
  // no-op and report live jobs as gone.
  Json lookup_params = Json::Object();
  lookup_params.Set("job", int64_t{12345});
  Json lookup = Call(router, 9, "job_status", lookup_params);
  ASSERT_FALSE(lookup.GetBool("ok", true)) << lookup.Dump();
  EXPECT_EQ(lookup.Get("error").GetString("code", ""), "Unavailable");

  // Drive failover: detect death, promote, finish. Promotion replays the
  // dead primary's frozen store, so give it real time.
  router.HealthCheckNow();  // detects the corpse, asks the replica to promote
  bool promoted = false;
  for (int i = 0; i < 1200 && !promoted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    router.HealthCheckNow();
    Json status = router.ClusterStatusJson();
    const Json& shard = status.Get("shards").Get("shard-0");
    promoted = shard.GetInt("failovers", 0) > 0 &&
               !shard.GetBool("promoting", true) &&
               !shard.GetBool("down", true);
  }
  ASSERT_TRUE(promoted) << router.ClusterStatusJson().Dump();

  // No acked append lost: the promoted store continues the exact offset
  // chain. An explicit "start" at the acked length must fit…
  Json resume_params = AppendParams(dataset, {8.0, 9.0});
  resume_params.Set("start", acked_length);
  Json resumed = Call(router, 5, "append", resume_params);
  ASSERT_TRUE(resumed.GetBool("ok", false)) << resumed.Dump();
  EXPECT_EQ(resumed.Get("result").GetInt("length", 0), acked_length + 2);
  // …and a stale offset (as if an acked batch had vanished) must not.
  Json stale_params = AppendParams(dataset, {1.5});
  stale_params.Set("start", acked_length - 3);
  Json stale = Call(router, 6, "append", stale_params);
  EXPECT_FALSE(stale.GetBool("ok", true)) << stale.Dump();

  // Reads are first-class again (no degraded tag), and the failover left a
  // fresh replica behind for the next crash.
  Json healthy = Call(router, 7, "forecast", forecast_params);
  ASSERT_TRUE(healthy.GetBool("ok", false)) << healthy.Dump();
  EXPECT_FALSE(healthy.Get("result").GetBool("degraded", false));

  Json status = router.ClusterStatusJson();
  const Json& shard = status.Get("shards").Get("shard-0");
  EXPECT_EQ(shard.GetString("primary", ""), "shard-0-r0");
  EXPECT_EQ(shard.GetString("replica", ""), "shard-0-r1");
  EXPECT_NE(shard.GetInt("replica_port", 0), 0);

  router.Stop();
}

}  // namespace
}  // namespace easytime::cluster
