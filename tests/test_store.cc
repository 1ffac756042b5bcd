// Storage engine tests (DESIGN.md §9): CRC framing, WAL append/rotate/
// recover, torn-tail and bit-flip corruption corpus, snapshot fallback,
// compaction's segment-deletion guard, fault injection on the store.*
// points and a frame write cut short by RLIMIT_FSIZE (one failure rule:
// the log stays failed until reopen), fork/SIGKILL torture for
// kill-mid-append and kill-mid-compaction, and the KnowledgeStore round
// trip on top of it all.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "kill_test_util.h"
#include "knowledge/knowledge_store.h"
#include "store/crc32.h"
#include "store/record_store.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace easytime::store {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string TestDir(const std::string& leaf) {
  std::string dir =
      (fs::path(::testing::TempDir()) / ("easytime_" + leaf)).string();
  fs::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void FlipByte(const std::string& path, size_t offset) {
  std::string content = ReadFile(path);
  ASSERT_LT(offset, content.size());
  content[offset] = static_cast<char>(content[offset] ^ 0x40);
  WriteFile(path, content);
}

std::vector<std::string> WalFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// CRC32

TEST(StoreCrcTest, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(StoreCrcTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t first = Crc32(data.substr(0, split));
    uint32_t both = Crc32(data.substr(split), first);
    EXPECT_EQ(both, Crc32(data)) << "split at " << split;
  }
}

TEST(StoreCrcTest, SliceBy8MatchesBytewiseReference) {
  // Reference: classic byte-at-a-time loop over the reflected polynomial.
  auto reference = [](const std::string& s) {
    uint32_t c = 0xFFFFFFFFu;
    for (unsigned char byte : s) {
      c ^= byte;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return ~c;
  };
  std::string s;
  for (int i = 0; i < 300; ++i) {
    s.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
    EXPECT_EQ(Crc32(s), reference(s)) << "length " << s.size();
  }
}

// ---------------------------------------------------------------------------
// WAL

TEST(StoreWalTest, AppendAndReplayRoundTrip) {
  const std::string dir = TestDir("wal_roundtrip");
  {
    auto wal = Wal::Open(dir, WalOptions{}, 0, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 1; i <= 20; ++i) {
      auto seq = (*wal)->Append("payload-" + std::to_string(i));
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_EQ(*seq, static_cast<uint64_t>(i));
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<std::pair<uint64_t, std::string>> replayed;
  WalRecoveryStats stats;
  auto wal = Wal::Open(
      dir, WalOptions{}, 0,
      [&](uint64_t seq, std::string&& p) { replayed.emplace_back(seq, p); },
      &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(replayed.size(), 20u);
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(replayed[i - 1].first, static_cast<uint64_t>(i));
    EXPECT_EQ(replayed[i - 1].second, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(stats.records_replayed, 20u);
  EXPECT_EQ(stats.bytes_dropped, 0u);
  EXPECT_EQ((*wal)->last_seq(), 20u);
  fs::remove_all(dir);
}

TEST(StoreWalTest, RotatesSegmentsAndRecoversAcrossThem) {
  const std::string dir = TestDir("wal_rotate");
  WalOptions opt;
  opt.segment_bytes = 64;  // a couple of records per segment
  {
    auto wal = Wal::Open(dir, opt, 0, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 12; ++i) {
      ASSERT_TRUE((*wal)->Append("rec-" + std::to_string(i)).ok());
    }
    EXPECT_GE((*wal)->SegmentPaths().size(), 3u)
        << "64-byte segments must rotate";
  }
  size_t replayed = 0;
  uint64_t expect = 1;
  auto wal = Wal::Open(dir, opt, 0, [&](uint64_t seq, std::string&& p) {
    EXPECT_EQ(seq, expect);
    EXPECT_EQ(p, "rec-" + std::to_string(seq));
    ++expect;
    ++replayed;
  });
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(replayed, 12u);
  // Appends continue the chain after reopen.
  auto seq = (*wal)->Append("rec-13");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 13u);
  fs::remove_all(dir);
}

TEST(StoreWalTest, AfterSeqSkipsCoveredRecords) {
  const std::string dir = TestDir("wal_afterseq");
  {
    auto wal = Wal::Open(dir, WalOptions{}, 0, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*wal)->Append("r" + std::to_string(i)).ok());
    }
  }
  std::vector<uint64_t> seqs;
  WalRecoveryStats stats;
  auto wal = Wal::Open(
      dir, WalOptions{}, 7,
      [&](uint64_t seq, std::string&&) { seqs.push_back(seq); }, &stats);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{8, 9, 10}));
  EXPECT_EQ(stats.records_skipped, 7u);
  fs::remove_all(dir);
}

TEST(StoreWalTest, TornTailIsTruncatedAndAppendsContinue) {
  const std::string dir = TestDir("wal_torn");
  {
    auto wal = Wal::Open(dir, WalOptions{}, 0, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE((*wal)->Append("payload-" + std::to_string(i)).ok());
    }
  }
  auto files = WalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  // Chop mid-record: drop the last 4 bytes of the final frame.
  const std::string before = ReadFile(files[0]);
  fs::resize_file(files[0], before.size() - 4);

  size_t replayed = 0;
  WalRecoveryStats stats;
  auto wal = Wal::Open(
      dir, WalOptions{}, 0,
      [&](uint64_t, std::string&&) { ++replayed; }, &stats);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(replayed, 4u) << "only the torn final record may be lost";
  EXPECT_GT(stats.bytes_dropped, 0u);
  EXPECT_EQ((*wal)->last_seq(), 4u);
  // The chain continues seamlessly past the truncation point.
  auto seq = (*wal)->Append("payload-5b");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 5u);
  fs::remove_all(dir);
}

TEST(StoreWalTest, BitFlipCorpusKeepsTheValidPrefix) {
  // Records have fixed size: header 16 + per-record (16-byte frame + 11-byte
  // payload). Flipping any byte of record k must keep records 0..k-1 and
  // drop k and everything after — never crash, never return garbage.
  const size_t kHeader = 16, kFrame = 16, kPayload = 11;
  const size_t kRecordBytes = kFrame + kPayload;
  for (size_t victim = 0; victim < 6; ++victim) {
    for (size_t offset_in_rec : {size_t{0}, size_t{5}, size_t{8},
                                 size_t{kFrame}, size_t{kRecordBytes - 1}}) {
      const std::string dir = TestDir("wal_bitflip");
      {
        auto wal = Wal::Open(dir, WalOptions{}, 0, nullptr);
        ASSERT_TRUE(wal.ok());
        for (int i = 0; i < 6; ++i) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "payload-%03d", i);
          ASSERT_TRUE((*wal)->Append(buf).ok());
        }
      }
      auto files = WalFiles(dir);
      ASSERT_EQ(files.size(), 1u);
      FlipByte(files[0], kHeader + victim * kRecordBytes + offset_in_rec);

      std::vector<std::string> replayed;
      WalRecoveryStats stats;
      auto wal = Wal::Open(
          dir, WalOptions{}, 0,
          [&](uint64_t, std::string&& p) { replayed.push_back(p); }, &stats);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_EQ(replayed.size(), victim)
          << "flip in record " << victim << " at +" << offset_in_rec;
      for (size_t i = 0; i < replayed.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "payload-%03zu", i);
        EXPECT_EQ(replayed[i], buf);
      }
      EXPECT_GT(stats.bytes_dropped, 0u);
      fs::remove_all(dir);
    }
  }
}

TEST(StoreWalTest, MissingMiddleSegmentDropsEverythingAfterTheHole) {
  const std::string dir = TestDir("wal_hole");
  WalOptions opt;
  opt.segment_bytes = 64;
  {
    auto wal = Wal::Open(dir, opt, 0, nullptr);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 12; ++i) {
      ASSERT_TRUE((*wal)->Append("rec-" + std::to_string(i)).ok());
    }
    ASSERT_GE((*wal)->SegmentPaths().size(), 3u);
  }
  auto files = WalFiles(dir);
  fs::remove(files[1]);  // punch a hole in the chain

  std::vector<uint64_t> seqs;
  WalRecoveryStats stats;
  auto wal = Wal::Open(
      dir, opt, 0, [&](uint64_t seq, std::string&&) { seqs.push_back(seq); },
      &stats);
  ASSERT_TRUE(wal.ok());
  // Only the first segment's records survive; later segments cannot apply.
  ASSERT_FALSE(seqs.empty());
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);
  }
  EXPECT_LT(seqs.size(), 12u);
  EXPECT_GT(stats.segments_dropped, 0u);
  fs::remove_all(dir);
}

TEST(StoreWalTest, RemoveSegmentsCoveredByDeletesOnlyCoveredPrefix) {
  const std::string dir = TestDir("wal_remove");
  WalOptions opt;
  opt.segment_bytes = 64;
  auto wal = Wal::Open(dir, opt, 0, nullptr);
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE((*wal)->Append("rec-" + std::to_string(i)).ok());
  }
  const size_t before = (*wal)->SegmentPaths().size();
  ASSERT_GE(before, 3u);
  ASSERT_TRUE((*wal)->RemoveSegmentsCoveredBy(5).ok());
  const size_t after = (*wal)->SegmentPaths().size();
  EXPECT_LT(after, before);
  // Everything above seq 5 must still replay after reopen.
  (*wal).reset();
  std::vector<uint64_t> seqs;
  auto reopened = Wal::Open(
      dir, opt, 5, [&](uint64_t seq, std::string&&) { seqs.push_back(seq); });
  ASSERT_TRUE(reopened.ok());
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), 12u);
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Snapshots

TEST(StoreSnapshotTest, WriteAndLoadRoundTrip) {
  const std::string dir = TestDir("snap_roundtrip");
  fs::create_directories(dir);
  ASSERT_TRUE(WriteSnapshot(dir, 42, "state-42").ok());
  auto loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seq, 42u);
  EXPECT_EQ(loaded->state, "state-42");
  EXPECT_EQ(loaded->corrupt_skipped, 0u);
  fs::remove_all(dir);
}

TEST(StoreSnapshotTest, CorruptNewestFallsBackToPreviousImage) {
  const std::string dir = TestDir("snap_fallback");
  fs::create_directories(dir);
  ASSERT_TRUE(WriteSnapshot(dir, 10, "older-state").ok());
  ASSERT_TRUE(WriteSnapshot(dir, 20, "newer-state").ok());
  auto snaps = ListSnapshots(dir);
  ASSERT_EQ(snaps.size(), 2u);
  FlipByte(snaps[1].path, 30);  // corrupt the newer image's body

  auto loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seq, 10u);
  EXPECT_EQ(loaded->state, "older-state");
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
  fs::remove_all(dir);
}

TEST(StoreSnapshotTest, PruneKeepsTheNewestAndReportsOldestRetained) {
  const std::string dir = TestDir("snap_prune");
  fs::create_directories(dir);
  for (uint64_t seq : {5u, 10u, 15u, 20u}) {
    ASSERT_TRUE(WriteSnapshot(dir, seq, "s" + std::to_string(seq)).ok());
  }
  auto oldest = PruneSnapshots(dir, 2);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(*oldest, 15u);
  auto snaps = ListSnapshots(dir);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].seq, 15u);
  EXPECT_EQ(snaps[1].seq, 20u);
  // Fewer snapshots than keep: nothing deleted, sentinel 0 returned.
  auto none = PruneSnapshots(dir, 3);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
  EXPECT_EQ(ListSnapshots(dir).size(), 2u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RecordStore (snapshot + WAL tail)

TEST(StoreRecordStoreTest, AppendRecoverRoundTripWithoutSnapshot) {
  const std::string dir = TestDir("rs_roundtrip");
  {
    auto rs = RecordStore::Open(dir, RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE((*rs)->Append("rec-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*rs)->Sync().ok());
  }
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(rec.has_snapshot);
  ASSERT_EQ(rec.tail.size(), 8u);
  for (size_t i = 0; i < rec.tail.size(); ++i) {
    EXPECT_EQ(rec.tail[i].first, i + 1);
    EXPECT_EQ(rec.tail[i].second, "rec-" + std::to_string(i + 1));
  }
  EXPECT_EQ(rec.last_seq, 8u);
  fs::remove_all(dir);
}

TEST(StoreRecordStoreTest, CompactionSnapshotsAndRecoveryReplaysOnlyTheTail) {
  const std::string dir = TestDir("rs_compact");
  {
    auto rs = RecordStore::Open(dir, RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(rs.ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE((*rs)->Append("pre-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*rs)->Compact("full-state-at-5").ok());
    EXPECT_EQ((*rs)->snapshot_seq(), 5u);
    EXPECT_EQ((*rs)->appends_since_compaction(), 0u);
    for (int i = 6; i <= 7; ++i) {
      ASSERT_TRUE((*rs)->Append("post-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*rs)->Sync().ok());
  }
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snapshot, "full-state-at-5");
  EXPECT_EQ(rec.snapshot_seq, 5u);
  ASSERT_EQ(rec.tail.size(), 2u);
  EXPECT_EQ(rec.tail[0].second, "post-6");
  EXPECT_EQ(rec.tail[1].second, "post-7");
  fs::remove_all(dir);
}

TEST(StoreRecordStoreTest, SegmentsSurviveUntilASecondSnapshotExists) {
  const std::string dir = TestDir("rs_guard");
  RecordStoreOptions opt;
  opt.segment_bytes = 1;  // every record in its own segment
  opt.keep_snapshots = 2;
  auto rs = RecordStore::Open(dir, opt, nullptr);
  ASSERT_TRUE(rs.ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE((*rs)->Append("r" + std::to_string(i)).ok());
  }
  const size_t segments_before = WalFiles(dir).size();
  ASSERT_TRUE((*rs)->Compact("state-4").ok());
  // One snapshot only: the deletion guard must keep every segment so a
  // corrupt snapshot can still fall back to pure WAL replay.
  EXPECT_EQ(WalFiles(dir).size(), segments_before);
  ASSERT_TRUE((*rs)->Append("r5").ok());
  ASSERT_TRUE((*rs)->Compact("state-5").ok());
  // Two snapshots: segments covered by the OLDEST retained (seq 4) go.
  EXPECT_LT(WalFiles(dir).size(), segments_before);
  EXPECT_EQ(ListSnapshots(dir).size(), 2u);
  fs::remove_all(dir);
}

TEST(StoreRecordStoreTest, TruncatedTailLosesAtMostTheTornFinalRecord) {
  const std::string dir = TestDir("rs_torn");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  {
    auto rs = RecordStore::Open(dir, opt, nullptr);
    ASSERT_TRUE(rs.ok());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*rs)->Append("rec-" + std::to_string(i)).ok());
    }
  }
  auto files = WalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) - 3);

  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rec.tail.size(), 9u) << "at most the torn final record is lost";
  EXPECT_EQ(rec.tail.back().second, "rec-9");
  EXPECT_GT(rec.bytes_dropped, 0u);
  fs::remove_all(dir);
}

TEST(StoreRecordStoreTest, CorruptNewestSnapshotFallsBackAndReplaysMore) {
  const std::string dir = TestDir("rs_snapfallback");
  RecordStoreOptions opt;
  opt.keep_snapshots = 2;
  {
    auto rs = RecordStore::Open(dir, opt, nullptr);
    ASSERT_TRUE(rs.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE((*rs)->Append("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*rs)->Compact("state-at-3").ok());
    for (int i = 4; i <= 5; ++i) {
      ASSERT_TRUE((*rs)->Append("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*rs)->Compact("state-at-5").ok());
    ASSERT_TRUE((*rs)->Append("r6").ok());
    ASSERT_TRUE((*rs)->Sync().ok());
  }
  auto snaps = ListSnapshots(dir);
  ASSERT_EQ(snaps.size(), 2u);
  FlipByte(snaps[1].path, 28);  // corrupt the newest image

  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snapshot, "state-at-3");
  EXPECT_EQ(rec.snapshot_seq, 3u);
  EXPECT_EQ(rec.corrupt_snapshots, 1u);
  // The WAL still holds 4..6 because the deletion guard only trusts the
  // oldest retained snapshot — nothing is lost.
  ASSERT_EQ(rec.tail.size(), 3u);
  EXPECT_EQ(rec.tail[0].second, "r4");
  EXPECT_EQ(rec.tail[2].second, "r6");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault injection on the store.* points

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(StoreFaultTest, AppendFaultPropagatesAndTheStoreSurvives) {
  const std::string dir = TestDir("fault_append");
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, nullptr);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE((*rs)->Append("before").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kIOError;
  ASSERT_TRUE(FaultRegistry::Global().Arm("store.append", spec).ok());
  auto failed = (*rs)->Append("dropped");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE((*rs)->Append("after").ok());
  ASSERT_TRUE((*rs)->Sync().ok());
  (*rs).reset();

  RecordStoreRecovery rec;
  auto reopened = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(rec.tail.size(), 2u) << "the faulted append must leave no trace";
  EXPECT_EQ(rec.tail[0].second, "before");
  EXPECT_EQ(rec.tail[1].second, "after");
  fs::remove_all(dir);
}

TEST_F(StoreFaultTest, FsyncFaultFailsSyncAndCompactButNotTheData) {
  const std::string dir = TestDir("fault_fsync");
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, nullptr);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE((*rs)->Append("r1").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kIOError;
  ASSERT_TRUE(FaultRegistry::Global().Arm("store.fsync", spec).ok());
  EXPECT_FALSE((*rs)->Sync().ok());
  // Compact syncs the WAL before snapshotting, so it fails too — and must
  // not have deleted anything.
  EXPECT_FALSE((*rs)->Compact("state").ok());
  EXPECT_TRUE(ListSnapshots(dir).empty());

  // A failed fsync is final for this open: a retry that succeeds proves
  // nothing about pages the failed one may have marked clean.
  FaultRegistry::Global().DisarmAll();
  EXPECT_EQ((*rs)->Sync().code(), StatusCode::kIOError);
  EXPECT_EQ((*rs)->Compact("state").code(), StatusCode::kIOError);
  EXPECT_EQ((*rs)->Append("r2").status().code(), StatusCode::kIOError);
  EXPECT_TRUE(ListSnapshots(dir).empty());
  rs->reset();

  // Reopen recovers what is on disk and the store works again.
  RecordStoreRecovery rec;
  rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].second, "r1");
  EXPECT_TRUE((*rs)->Sync().ok());
  EXPECT_TRUE((*rs)->Compact("state").ok());
  EXPECT_EQ(ListSnapshots(dir).size(), 1u);
  rs->reset();
  fs::remove_all(dir);
}

// A frame write that fails part-way poisons the log. The segment fd is not
// O_APPEND, so a later frame would land past the torn one, and recovery,
// which cuts the log at the torn frame, would drop it after it was acked.
// RLIMIT_FSIZE makes the write stop mid-frame; a forked child sets it, so
// the limit binds no other test.
TEST_F(StoreFaultTest, PartialFrameWritePoisonsTheLogUntilReopen) {
  const std::string dir = TestDir("fault_partial_write");
  constexpr size_t kAcked = 3;
  const std::string payload(40, 'p');  // 16-byte frame header + 40 = 56
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Exit 0 when every expectation held, else the code of the first miss.
    RecordStoreOptions opt;
    opt.sync_every_append = true;
    auto rs = RecordStore::Open(dir, opt, nullptr);
    if (!rs.ok()) _exit(10);
    signal(SIGXFSZ, SIG_IGN);  // the failed write returns EFBIG instead
    struct rlimit lim;
    if (getrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(11);
    const rlim_t unlimited = lim.rlim_cur;
    // The segment header, kAcked frames and half of the next frame.
    lim.rlim_cur = 16 + kAcked * 56 + 28;
    if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(12);
    for (size_t i = 0; i < kAcked; ++i) {
      if (!(*rs)->Append(payload).ok()) _exit(13);
    }
    if ((*rs)->Append(payload).ok()) _exit(14);  // fails mid-frame
    lim.rlim_cur = unlimited;
    if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(15);
    if ((*rs)->Append("after").ok()) _exit(16);
    if ((*rs)->Sync().ok()) _exit(17);
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0)
      << "child exit code names the failed step (16/17: the log took an "
         "append or sync after a torn frame write)";

  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rec.bytes_dropped, 28u) << "recovery cuts the torn half-frame";
  ASSERT_EQ(rec.tail.size(), kAcked)
      << "every record acked before the failure must replay";
  for (size_t i = 0; i < kAcked; ++i) {
    EXPECT_EQ(rec.tail[i].first, i + 1);
    EXPECT_EQ(rec.tail[i].second, payload);
  }
  EXPECT_TRUE((*rs)->Append("after-reopen").ok());
  EXPECT_TRUE((*rs)->Sync().ok());
  rs->reset();
  fs::remove_all(dir);
}

TEST_F(StoreFaultTest, SnapshotFaultFailsCompactionButReplayStillRecovers) {
  const std::string dir = TestDir("fault_snapshot");
  {
    auto rs = RecordStore::Open(dir, RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(rs.ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE((*rs)->Append("r" + std::to_string(i)).ok());
    }
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.code = StatusCode::kIOError;
    ASSERT_TRUE(FaultRegistry::Global().Arm("store.snapshot", spec).ok());
    EXPECT_FALSE((*rs)->Compact("state").ok());
    EXPECT_TRUE(ListSnapshots(dir).empty());
    FaultRegistry::Global().DisarmAll();
    ASSERT_TRUE((*rs)->Sync().ok());
  }
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(rec.has_snapshot);
  EXPECT_EQ(rec.tail.size(), 4u)
      << "a failed compaction must never lose WAL records";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// fork/SIGKILL torture. Each writer child signals its first acknowledged
// append (kill_test_util.h), and only then does the kill timer start: a
// slow fsync must not leave the kill window empty.

constexpr std::chrono::milliseconds kFirstAckTimeout = 30s;

TEST(StoreKillTest, KillMidAppendKeepsAValidContiguousPrefix) {
  const std::string dir = TestDir("kill_append");
  testutil::FirstAckPipe ack;
  ASSERT_TRUE(ack.ok());
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: fsync-per-append writer, killed mid-stream by the parent.
    RecordStoreOptions opt;
    opt.sync_every_append = true;
    opt.segment_bytes = 2048;
    auto rs = RecordStore::Open(dir, opt, nullptr);
    if (!rs.ok()) _exit(1);
    for (uint64_t i = 1;; ++i) {
      if (!(*rs)->Append("rec-" + std::to_string(i)).ok()) _exit(2);
      ack.Acked();
    }
  }
  const bool acked = ack.WaitForFirstAck(kFirstAckTimeout);
  if (acked) std::this_thread::sleep_for(200ms);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(acked) << "the writer acked no append";
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_GT(rec.tail.size(), 0u) << "200ms of fsynced appends must survive";
  for (size_t i = 0; i < rec.tail.size(); ++i) {
    ASSERT_EQ(rec.tail[i].first, i + 1) << "sequence chain must be contiguous";
    ASSERT_EQ(rec.tail[i].second, "rec-" + std::to_string(i + 1))
        << "every recovered record must be intact";
  }
  // The store keeps working after crash recovery.
  auto seq = (*rs)->Append("post-crash");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, rec.last_seq + 1);
  fs::remove_all(dir);
}

TEST(StoreKillTest, KillMidCompactionNeverLosesAcknowledgedRecords) {
  const std::string dir = TestDir("kill_compact");
  testutil::FirstAckPipe ack;
  ASSERT_TRUE(ack.ok());
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: append + compact continuously; each snapshot records how many
    // records it covers, so the parent can reconstruct the full set.
    RecordStoreOptions opt;
    opt.sync_every_append = true;
    opt.segment_bytes = 512;
    opt.keep_snapshots = 2;
    auto rs = RecordStore::Open(dir, opt, nullptr);
    if (!rs.ok()) _exit(1);
    for (uint64_t i = 1;; ++i) {
      if (!(*rs)->Append("rec-" + std::to_string(i)).ok()) _exit(2);
      ack.Acked();
      if (i % 4 == 0) {
        easytime::Json state = easytime::Json::Object();
        state.Set("n", static_cast<int64_t>((*rs)->last_seq()));
        if (!(*rs)->Compact(state.Dump()).ok()) _exit(3);
      }
    }
  }
  const bool acked = ack.WaitForFirstAck(kFirstAckTimeout);
  if (acked) std::this_thread::sleep_for(250ms);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(acked) << "the writer acked no append";
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  RecordStoreRecovery rec;
  RecordStoreOptions opt;
  opt.keep_snapshots = 2;
  auto rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  uint64_t covered = 0;
  if (rec.has_snapshot) {
    auto state = easytime::Json::Parse(rec.snapshot);
    ASSERT_TRUE(state.ok()) << "snapshots must never be half-written";
    covered = static_cast<uint64_t>(state->GetInt("n", -1));
    ASSERT_EQ(covered, rec.snapshot_seq)
        << "a snapshot must cover exactly the records up to its seq";
  }
  // Snapshot + tail reconstruct a contiguous record set 1..last_seq.
  uint64_t expect = covered + 1;
  for (const auto& [seq, payload] : rec.tail) {
    ASSERT_EQ(seq, expect);
    ASSERT_EQ(payload, "rec-" + std::to_string(seq));
    ++expect;
  }
  EXPECT_GT(expect - 1, 0u) << "the run must have persisted something";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// WAL group commit

TEST(StoreGroupCommitTest, ConcurrentAppendersAllDurableAndCoalesced) {
  const std::string dir = TestDir("group_commit");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  {
    auto rs = RecordStore::Open(dir, opt, nullptr);
    ASSERT_TRUE(rs.ok());
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string payload =
              "t" + std::to_string(t) + "-" + std::to_string(i);
          if (!(*rs)->Append(payload).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    const WalGroupCommitStats stats = (*rs)->group_commit_stats();
    EXPECT_EQ(stats.records, uint64_t{kThreads * kPerThread});
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LT(stats.batches, stats.records)
        << "group commit must coalesce concurrent appends";
  }
  // Every acked append is on disk: reopen and count the contiguous chain.
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rec.tail.size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < rec.tail.size(); ++i) {
    EXPECT_EQ(rec.tail[i].first, i + 1);
  }
  fs::remove_all(dir);
}

TEST(StoreGroupCommitTest, SingleAppenderStillGetsDurability) {
  const std::string dir = TestDir("group_commit_single");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  {
    auto rs = RecordStore::Open(dir, opt, nullptr);
    ASSERT_TRUE(rs.ok());
    for (int i = 1; i <= 5; ++i) {
      auto seq = (*rs)->Append("r" + std::to_string(i));
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(*seq, static_cast<uint64_t>(i));
    }
    EXPECT_EQ((*rs)->group_commit_stats().records, 5u);
  }
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rec.tail.size(), 5u);
  fs::remove_all(dir);
}

TEST_F(StoreFaultTest, GroupCommitFsyncFaultFailsTheWaitingAppend) {
  const std::string dir = TestDir("group_commit_fault");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  auto rs = RecordStore::Open(dir, opt, nullptr);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE((*rs)->Append("before").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kIOError;
  ASSERT_TRUE(FaultRegistry::Global().Arm("store.fsync", spec).ok());
  auto failed = (*rs)->Append("unacked");
  ASSERT_FALSE(failed.ok()) << "a failed batch fsync must fail its waiters";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  // Fail-stop until reopen, even once the fault clears.
  FaultRegistry::Global().DisarmAll();
  EXPECT_EQ((*rs)->Append("after").status().code(), StatusCode::kIOError);
  rs->reset();

  RecordStoreRecovery rec;
  rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_GE(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].second, "before");
  for (const auto& [seq, payload] : rec.tail) {
    EXPECT_NE(payload, "after") << "a refused-before-write append never lands";
  }
  EXPECT_TRUE((*rs)->Append("after-reopen").ok());
  rs->reset();
  fs::remove_all(dir);
}

// Rotation's segment-close fsync fails while Sync()'s own fsyncs (of the
// NEW segment) keep succeeding. No
// record written after the failure may be acked durable — the failed
// segment's tail can be torn on disk, and recovery would then drop every
// later segment as an unreachable suffix.
TEST_F(StoreFaultTest, RotationCloseFsyncFailurePoisonsGroupCommitAcks) {
  const std::string dir = TestDir("group_commit_rotate_fault");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  opt.segment_bytes = 256;  // one biggish record fills a segment
  {
    auto rs = RecordStore::Open(dir, opt, nullptr);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE((*rs)->Append(std::string(300, 'a')).ok());

    // Only the close fsync fails; Sync()'s "store.fsync" stays live.
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.code = StatusCode::kIOError;
    ASSERT_TRUE(
        FaultRegistry::Global().Arm("store.segment_close_fsync", spec).ok());
    auto rotated = (*rs)->Append("lives-in-the-new-segment");
    ASSERT_FALSE(rotated.ok())
        << "a record behind a possibly-torn segment must not be acked";
    EXPECT_EQ(rotated.status().code(), StatusCode::kIOError);

    // The failure is fail-stop for this open: even after the fault clears,
    // the chain behind new records may still be torn on disk.
    FaultRegistry::Global().DisarmAll();
    EXPECT_FALSE((*rs)->Append("still-poisoned").ok());
  }
  // Reopen recovers the valid prefix and appends durably again.
  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GE(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].second, std::string(300, 'a'));
  EXPECT_TRUE((*rs)->Append("after-reopen").ok());
  fs::remove_all(dir);
}

// The fail-stop rule holds on both durability paths: the buffered one
// (Append, then Sync) that the dataset cache uses, and sync_every_append.
TEST_F(StoreFaultTest, SegmentCloseFsyncFailureFailsLaterSyncsOnEveryPath) {
  for (const bool sync_every_append : {false, true}) {
    SCOPED_TRACE(sync_every_append ? "sync_every_append" : "buffered");
    const std::string dir = TestDir("close_fsync_fail_stop");
    RecordStoreOptions opt;
    opt.sync_every_append = sync_every_append;
    opt.segment_bytes = 256;
    // The durability call of each path: Append alone, or Append then Sync.
    const auto append_durably = [&](RecordStore* rs, const std::string& p) {
      auto seq = rs->Append(p);
      if (!seq.ok() || sync_every_append) return seq.status();
      return rs->Sync();
    };
    {
      auto rs = RecordStore::Open(dir, opt, nullptr);
      ASSERT_TRUE(rs.ok());
      ASSERT_TRUE(append_durably(rs->get(), std::string(300, 'a')).ok());

      FaultSpec spec;
      spec.kind = FaultKind::kError;
      spec.code = StatusCode::kIOError;
      ASSERT_TRUE(
          FaultRegistry::Global().Arm("store.segment_close_fsync", spec).ok());
      easytime::Status st = append_durably(rs->get(), "behind-a-torn-segment");
      ASSERT_FALSE(st.ok()) << "a record behind a possibly-torn segment must "
                               "not be reported durable";
      EXPECT_EQ(st.code(), StatusCode::kIOError);

      FaultRegistry::Global().DisarmAll();
      st = append_durably(rs->get(), "still-poisoned");
      EXPECT_EQ(st.code(), StatusCode::kIOError);
      EXPECT_EQ((*rs)->Sync().code(), StatusCode::kIOError);
    }
    RecordStoreRecovery rec;
    auto rs = RecordStore::Open(dir, opt, &rec);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_GE(rec.tail.size(), 1u);
    EXPECT_EQ(rec.tail[0].second, std::string(300, 'a'));
    EXPECT_TRUE(append_durably(rs->get(), "after-reopen").ok());
    rs->reset();
    fs::remove_all(dir);
  }
}

// A durable append is judged against every fsync that covered its record,
// including one that failed before the appender reached Sync: a retry fsync
// after a failure proves nothing about pages the failed one dropped.
TEST_F(StoreFaultTest, FsyncFailureBeforeAppendReachesSyncFailsTheAppend) {
  const std::string dir = TestDir("fsync_fail_before_append_sync");
  RecordStoreOptions opt;
  opt.sync_every_append = true;
  auto rs = RecordStore::Open(dir, opt, nullptr);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE((*rs)->Append("before").ok());

  // Hold the next appender between its write and its Sync.
  FaultSpec hold;
  hold.kind = FaultKind::kDelay;
  hold.delay_ms = 1000;
  hold.max_triggers = 1;
  ASSERT_TRUE(
      FaultRegistry::Global().Arm("store.append_written", hold).ok());
  std::atomic<bool> appended{false};
  easytime::Status append_st;
  std::thread appender([&] {
    append_st = (*rs)->Append("covered-by-a-failed-fsync").status();
    appended = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (FaultRegistry::Global().PointStats("store.append_written").triggers ==
             0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ((*rs)->last_seq(), 2u) << "the held record must be written";

  // Another caller's fsync covers the held record and fails.
  FaultSpec fail;
  fail.kind = FaultKind::kError;
  fail.code = StatusCode::kIOError;
  fail.max_triggers = 1;
  ASSERT_TRUE(FaultRegistry::Global().Arm("store.fsync", fail).ok());
  EXPECT_EQ((*rs)->Sync().code(), StatusCode::kIOError);
  EXPECT_FALSE(appended.load()) << "the failure must land while the record "
                                   "is held back from Sync";

  appender.join();
  EXPECT_EQ(append_st.code(), StatusCode::kIOError)
      << "a record a failed fsync covered must never be acked durable";
  // Fail-stop until reopen, even once the fault clears.
  FaultRegistry::Global().DisarmAll();
  EXPECT_EQ((*rs)->Append("after").status().code(), StatusCode::kIOError);
  EXPECT_EQ((*rs)->Sync().code(), StatusCode::kIOError);
  rs->reset();

  RecordStoreRecovery rec;
  rs = RecordStore::Open(dir, opt, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_GE(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].second, "before");
  EXPECT_EQ(rec.tail.back().second, "covered-by-a-failed-fsync")
      << "a refused record the WAL already held may replay; a record "
         "refused before its write may not";
  EXPECT_TRUE((*rs)->Append("after-reopen").ok());
  rs->reset();
  fs::remove_all(dir);
}

TEST(StoreKillTest, KillMidGroupCommitNeverLosesAnAckedRecord) {
  const std::string dir = TestDir("kill_group_commit");
  // Shared ack table: the child flips acked[seq] only AFTER Append returned,
  // i.e. after the batch fsync covering seq reported success. The parent
  // then asserts every acked record survived the SIGKILL.
  constexpr size_t kMaxSeq = 1 << 20;
  auto* acked = static_cast<volatile unsigned char*>(
      mmap(nullptr, kMaxSeq, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  ASSERT_NE(acked, MAP_FAILED);
  testutil::FirstAckPipe ack;
  ASSERT_TRUE(ack.ok());

  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    RecordStoreOptions opt;
    opt.sync_every_append = true;
    opt.segment_bytes = 4096;  // exercise rotation under group commit too
    auto rs = RecordStore::Open(dir, opt, nullptr);
    if (!rs.ok()) _exit(1);
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([&, t] {
        for (uint64_t i = 0;; ++i) {
          auto seq =
              (*rs)->Append("t" + std::to_string(t) + "-" + std::to_string(i));
          if (!seq.ok()) _exit(2);
          if (*seq < kMaxSeq) acked[*seq] = 1;
          ack.Acked();
        }
      });
    }
    for (auto& w : workers) w.join();  // unreachable; killed by the parent
    _exit(0);
  }
  const bool first_ack = ack.WaitForFirstAck(kFirstAckTimeout);
  if (first_ack) std::this_thread::sleep_for(300ms);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(first_ack) << "the writer acked no append";
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  RecordStoreRecovery rec;
  auto rs = RecordStore::Open(dir, RecordStoreOptions{}, &rec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Recovery yields a contiguous chain 1..last_seq (no torn batch replayed
  // past a gap), and that chain must cover every acknowledged record.
  uint64_t expect = 1;
  for (const auto& [seq, payload] : rec.tail) {
    ASSERT_EQ(seq, expect) << "recovered chain must be contiguous";
    ASSERT_FALSE(payload.empty());
    ++expect;
  }
  uint64_t max_acked = 0;
  for (size_t s = 1; s < kMaxSeq; ++s) {
    if (acked[s]) max_acked = s;
  }
  EXPECT_GT(max_acked, 0u) << "300ms of group commits must ack something";
  for (size_t s = 1; s <= max_acked; ++s) {
    if (acked[s]) {
      ASSERT_LE(s, rec.last_seq)
          << "acked record " << s << " lost by the crash";
    }
  }
  munmap(const_cast<unsigned char*>(acked), kMaxSeq);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// KnowledgeStore round trip

knowledge::ResultEntry MakeResult(const std::string& dataset,
                                  const std::string& method, double mae) {
  knowledge::ResultEntry e;
  e.dataset = dataset;
  e.method = method;
  e.strategy = "fixed";
  e.horizon = 24;
  e.metrics = {{"mae", mae}, {"rmse", mae * 1.5}};
  e.fit_seconds = 0.25;
  e.forecast_seconds = 0.01;
  return e;
}

void SeedKb(knowledge::KnowledgeBase* kb) {
  std::vector<knowledge::DatasetMeta> datasets(2);
  datasets[0].name = "d1";
  datasets[0].domain = "traffic";
  datasets[0].length = 400;
  datasets[0].characteristics.seasonality = 0.1 + 0.2;  // not representable
  datasets[0].characteristics.trend = 1.0 / 3.0;
  datasets[0].characteristics.period = 24;
  datasets[1].name = "d2";
  datasets[1].domain = "energy";
  datasets[1].multivariate = true;
  datasets[1].num_channels = 3;
  std::vector<knowledge::MethodMeta> methods(2);
  methods[0].name = "naive";
  methods[0].family = "statistical";
  methods[1].name = "theta";
  methods[1].family = "statistical";
  std::vector<knowledge::ResultEntry> results;
  results.push_back(MakeResult("d1", "naive", 0.1));
  results.push_back(MakeResult("d1", "theta", 1.0 / 7.0));
  results.push_back(MakeResult("d2", "naive", 0.3));
  kb->Restore(std::move(datasets), std::move(methods), std::move(results));
}

TEST(StoreKnowledgeTest, ResultEntryJsonRoundTripIsExact) {
  knowledge::ResultEntry e = MakeResult("d1", "theta", 1.0 / 7.0);
  e.metrics["smape"] = 0.1 + 0.2;
  e.metrics["bad"] = std::nan("");
  auto back = knowledge::ResultEntryFromJson(knowledge::ResultEntryToJson(e));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset, e.dataset);
  EXPECT_EQ(back->method, e.method);
  EXPECT_EQ(back->horizon, e.horizon);
  EXPECT_EQ(back->metrics.at("mae"), e.metrics.at("mae"))
      << "doubles must round-trip bit-exactly";
  EXPECT_EQ(back->metrics.at("smape"), e.metrics.at("smape"));
  EXPECT_TRUE(std::isnan(back->metrics.at("bad")))
      << "non-finite metrics keep their key";
}

TEST(StoreKnowledgeTest, CheckpointThenReopenRestoresIdenticalRows) {
  const std::string dir = TestDir("ks_roundtrip");
  knowledge::KnowledgeBase kb;
  SeedKb(&kb);

  knowledge::KnowledgeStore::Options opt;
  opt.dir = dir;
  {
    knowledge::KnowledgeStore::OpenInfo info;
    auto ks = knowledge::KnowledgeStore::Open(opt, &kb, &info);
    ASSERT_TRUE(ks.ok()) << ks.status().ToString();
    EXPECT_FALSE(info.restored) << "an empty store must not touch the KB";
    ASSERT_TRUE((*ks)->Checkpoint(kb).ok());
  }

  knowledge::KnowledgeBase restored;
  const uint64_t version_before = restored.version();
  knowledge::KnowledgeStore::OpenInfo info;
  auto ks = knowledge::KnowledgeStore::Open(opt, &restored, &info);
  ASSERT_TRUE(ks.ok()) << ks.status().ToString();
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(restored.version(), version_before + 1)
      << "bulk restore must advance version() exactly once";
  ASSERT_EQ(restored.NumDatasets(), kb.NumDatasets());
  ASSERT_EQ(restored.NumMethods(), kb.NumMethods());
  ASSERT_EQ(restored.NumResults(), kb.NumResults());
  auto d1 = restored.GetDataset("d1");
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ((*d1)->characteristics.seasonality, 0.1 + 0.2);
  EXPECT_EQ((*d1)->characteristics.trend, 1.0 / 3.0);
  EXPECT_EQ((*d1)->characteristics.period, 24u);
  EXPECT_EQ(restored.MethodScores("d1", "mae"), kb.MethodScores("d1", "mae"));
  fs::remove_all(dir);
}

TEST(StoreKnowledgeTest, AppendedResultsReplayFromTheWalTail) {
  const std::string dir = TestDir("ks_tail");
  knowledge::KnowledgeStore::Options opt;
  opt.dir = dir;
  opt.compact_every = 0;  // keep appends in the tail, no auto-snapshot
  {
    knowledge::KnowledgeBase kb;
    SeedKb(&kb);
    auto ks = knowledge::KnowledgeStore::Open(opt, &kb, nullptr);
    ASSERT_TRUE(ks.ok());
    ASSERT_TRUE((*ks)->Checkpoint(kb).ok());
    // Simulate a committed evaluation: KB first, then the durable append.
    std::vector<knowledge::ResultEntry> fresh;
    fresh.push_back(MakeResult("d2", "theta", 0.7));
    ASSERT_TRUE((*ks)->AppendResults(fresh, kb).ok());
  }
  knowledge::KnowledgeBase restored;
  knowledge::KnowledgeStore::OpenInfo info;
  auto ks = knowledge::KnowledgeStore::Open(opt, &restored, &info);
  ASSERT_TRUE(ks.ok());
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(restored.NumResults(), 4u)
      << "3 snapshotted results + 1 WAL-tail result";
  auto scores = restored.MethodScores("d2", "mae");
  EXPECT_EQ(scores.at("theta"), 0.7);
  fs::remove_all(dir);
}

TEST(StoreKnowledgeTest, TornKnowledgeWalTailLosesOnlyTheLastAppend) {
  const std::string dir = TestDir("ks_torn");
  knowledge::KnowledgeStore::Options opt;
  opt.dir = dir;
  opt.compact_every = 0;
  {
    knowledge::KnowledgeBase kb;
    SeedKb(&kb);
    auto ks = knowledge::KnowledgeStore::Open(opt, &kb, nullptr);
    ASSERT_TRUE(ks.ok());
    std::vector<knowledge::ResultEntry> a{MakeResult("d1", "ses", 0.4)};
    std::vector<knowledge::ResultEntry> b{MakeResult("d2", "ses", 0.5)};
    ASSERT_TRUE((*ks)->AppendResults(a, kb).ok());
    ASSERT_TRUE((*ks)->AppendResults(b, kb).ok());
  }
  auto files = WalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) - 5);

  knowledge::KnowledgeBase restored;
  knowledge::KnowledgeStore::OpenInfo info;
  auto ks = knowledge::KnowledgeStore::Open(opt, &restored, &info);
  ASSERT_TRUE(ks.ok());
  ASSERT_TRUE(info.restored);
  EXPECT_EQ(info.recovery.tail.size(), 1u);
  auto scores_d1 = restored.MethodScores("d1", "mae");
  EXPECT_EQ(scores_d1.count("ses"), 1u) << "the intact append must survive";
  auto scores_d2 = restored.MethodScores("d2", "mae");
  EXPECT_EQ(scores_d2.count("ses"), 0u) << "only the torn append is lost";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace easytime::store
