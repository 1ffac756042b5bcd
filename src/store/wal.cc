#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "store/crc32.h"
#include "store/file_io.h"

namespace easytime::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'E', 'Z', 'T', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = 16;  // magic + u64 start_seq
constexpr size_t kFrameBytes = 16;   // u32 len + u32 crc + u64 seq
constexpr size_t kMaxPayload = size_t{1} << 28;  // sanity bound per record

/// CRC of one record: the sequence number (little-endian) then the payload,
/// so a frame whose seq was bit-flipped fails validation too.
uint32_t RecordCrc(uint64_t seq, std::string_view payload) {
  std::string seq_le;
  seq_le.reserve(8);
  PutU64(&seq_le, seq);
  return Crc32(payload.data(), payload.size(), Crc32(seq_le.data(), 8));
}

std::string SegmentName(uint64_t start_seq) {
  return HexName("wal-", start_seq, ".log");
}

bool ParseSegmentName(const std::string& name, uint64_t* start_seq) {
  return ParseHexName(name, "wal-", ".log", start_seq);
}

}  // namespace

// ---------------------------------------------------------------------------
// Segment export/import (replication shipping, DESIGN.md §14)
// ---------------------------------------------------------------------------

easytime::Result<WalSegmentInfo> ValidateWalSegmentImage(
    std::string_view bytes, const std::string& file,
    const WalRecordFn& on_record) {
  uint64_t expect_start = 0;
  if (!ParseSegmentName(file, &expect_start)) {
    return easytime::Status::InvalidArgument(
        "not a WAL segment file name: " + file);
  }
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, 8) != 0) {
    return easytime::Status::IOError("bad WAL segment magic in " + file);
  }
  if (GetU64(bytes.data() + 8) != expect_start) {
    return easytime::Status::IOError(
        "WAL segment header seq disagrees with file name " + file);
  }
  WalSegmentInfo info;
  info.file = file;
  info.start_seq = expect_start;
  info.file_bytes = bytes.size();
  size_t off = kHeaderBytes;
  size_t valid_end = off;
  uint64_t rec_expect = expect_start;
  while (off + kFrameBytes <= bytes.size()) {
    const char* p = bytes.data() + off;
    uint32_t len = GetU32(p);
    uint32_t crc = GetU32(p + 4);
    uint64_t seq = GetU64(p + 8);
    if (len > kMaxPayload || off + kFrameBytes + len > bytes.size()) break;
    std::string_view payload(p + kFrameBytes, len);
    if (RecordCrc(seq, payload) != crc) break;
    if (seq != rec_expect) break;
    if (on_record) on_record(seq, payload);
    ++info.records;
    rec_expect = seq + 1;
    off += kFrameBytes + len;
    valid_end = off;
  }
  info.last_seq = rec_expect > expect_start ? rec_expect - 1
                                            : expect_start - 1;
  info.valid_bytes = valid_end;
  info.torn = valid_end < bytes.size();
  return info;
}

easytime::Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir) {
  std::vector<WalSegmentInfo> out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t start = 0;
    if (!entry.is_regular_file() ||
        !ParseSegmentName(entry.path().filename().string(), &start)) {
      continue;
    }
    EASYTIME_ASSIGN_OR_RETURN(std::string content,
                              ReadWholeFile(entry.path().string()));
    auto info_or = ValidateWalSegmentImage(
        content, entry.path().filename().string());
    if (!info_or.ok()) return info_or.status();
    info_or->path = entry.path().string();
    out.push_back(std::move(*info_or));
  }
  if (ec) {
    return easytime::Status::IOError("cannot list WAL directory " + dir +
                                     ": " + ec.message());
  }
  std::sort(out.begin(), out.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.start_seq < b.start_seq;
            });
  return out;
}

easytime::Result<std::string> ExportWalSegment(const std::string& path,
                                               const std::string& file) {
  EASYTIME_ASSIGN_OR_RETURN(std::string content, ReadWholeFile(path));
  EASYTIME_ASSIGN_OR_RETURN(WalSegmentInfo info,
                            ValidateWalSegmentImage(content, file));
  content.resize(info.valid_bytes);  // a torn tail never ships
  return content;
}

easytime::Result<WalSegmentInfo> ImportWalSegment(const std::string& dir,
                                                  const std::string& file,
                                                  std::string_view bytes) {
  EASYTIME_ASSIGN_OR_RETURN(WalSegmentInfo info,
                            ValidateWalSegmentImage(bytes, file));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return easytime::Status::IOError("cannot create import directory " + dir +
                                     ": " + ec.message());
  }
  const std::string dest = dir + "/" + file;
  if (fs::exists(dest, ec)) {
    // Idempotent re-ship, but never backwards: a shorter image than what is
    // already durable would roll acknowledged records back on replay.
    EASYTIME_ASSIGN_OR_RETURN(std::string existing, ReadWholeFile(dest));
    auto have = ValidateWalSegmentImage(existing, file);
    if (have.ok() && have->valid_bytes > info.valid_bytes) {
      return easytime::Status::InvalidArgument(
          "stale segment re-ship for " + file + ": import has " +
          std::to_string(info.valid_bytes) + " valid bytes, follower has " +
          std::to_string(have->valid_bytes));
    }
  }
  EASYTIME_RETURN_IF_ERROR(WriteFileDurably(
      dir, file, {bytes.substr(0, static_cast<size_t>(info.valid_bytes))}));
  info.path = dest;
  info.file_bytes = info.valid_bytes;
  info.torn = false;
  return info;
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseActiveLocked();
}

easytime::Result<std::unique_ptr<Wal>> Wal::Open(
    const std::string& dir, const WalOptions& options, uint64_t after_seq,
    const ReplayFn& replay, WalRecoveryStats* stats) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return easytime::Status::IOError("cannot create WAL directory " + dir +
                                     ": " + ec.message());
  }
  auto wal = std::unique_ptr<Wal>(new Wal(dir, options));
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t start = 0;
    if (entry.is_regular_file() &&
        ParseSegmentName(entry.path().filename().string(), &start)) {
      wal->segments_.push_back(Segment{start, entry.path().string()});
    }
  }
  if (ec) {
    return easytime::Status::IOError("cannot list WAL directory " + dir +
                                     ": " + ec.message());
  }
  std::sort(wal->segments_.begin(), wal->segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_seq < b.start_seq;
            });
  WalRecoveryStats local;
  EASYTIME_RETURN_IF_ERROR(
      wal->Recover(after_seq, replay, stats ? stats : &local));
  wal->durable_seq_ = wal->last_seq_;  // nothing pending after recovery
  return wal;
}

easytime::Status Wal::Recover(uint64_t after_seq, const ReplayFn& replay,
                              WalRecoveryStats* stats) {
  uint64_t expect = 0;    // seq the next segment must start at
  bool anchored = false;  // expect is meaningful (some segment was scanned)
  bool replay_started = false;
  bool chain_broken = false;
  std::vector<Segment> surviving;
  std::error_code ec;

  for (const Segment& seg : segments_) {
    if (chain_broken) {
      // Everything past a corruption is the bad suffix: drop it.
      uint64_t sz = fs::exists(seg.path, ec) ? fs::file_size(seg.path, ec) : 0;
      stats->bytes_dropped += sz;
      ++stats->segments_dropped;
      fs::remove(seg.path, ec);
      continue;
    }
    ++stats->segments_scanned;
    auto content_or = ReadWholeFile(seg.path);
    if (!content_or.ok()) return content_or.status();
    const std::string& content = *content_or;

    // A hole in the chain (e.g. a manually deleted segment) or a bad header:
    // records past it cannot be applied to any recoverable state.
    const auto drop_segment = [&] {
      stats->bytes_dropped += content.size();
      ++stats->segments_dropped;
      fs::remove(seg.path, ec);
      chain_broken = true;
    };
    if (anchored && seg.start_seq != expect) {
      drop_segment();
      continue;
    }
    // The first record above the recovered snapshot must continue it. The
    // chain is contiguous, so only a segment's first record can break that:
    // a segment starting past after_seq + 1 before replay began holds
    // unreachable state and is cut back to its header.
    const bool unreachable = !replay_started && seg.start_seq > after_seq + 1;
    auto info = ValidateWalSegmentImage(
        content, SegmentName(seg.start_seq),
        [&](uint64_t seq, std::string_view payload) {
          if (unreachable) return;
          if (seq > after_seq) {
            replay_started = true;
            if (replay) replay(seq, std::string(payload));
            ++stats->records_replayed;
          } else {
            ++stats->records_skipped;
          }
        });
    if (!info.ok()) {
      drop_segment();
      continue;
    }
    const size_t valid_end =
        unreachable ? kHeaderBytes : static_cast<size_t>(info->valid_bytes);
    if (valid_end < content.size()) {
      stats->bytes_dropped += content.size() - valid_end;
      fs::resize_file(seg.path, valid_end, ec);
      if (ec) {
        return easytime::Status::IOError("cannot truncate corrupt WAL tail " +
                                         seg.path + ": " + ec.message());
      }
      chain_broken = true;  // later segments belong to the dropped suffix
    }
    expect = unreachable ? seg.start_seq : info->last_seq + 1;
    anchored = true;
    surviving.push_back(seg);
  }

  segments_ = std::move(surviving);
  last_seq_ = (anchored && expect > 0) ? expect - 1 : 0;
  if (last_seq_ < after_seq) {
    // Every surviving record is already folded into the snapshot the caller
    // recovered; restarting the chain just above it keeps seqs contiguous.
    for (const Segment& seg : segments_) fs::remove(seg.path, ec);
    segments_.clear();
    last_seq_ = after_seq;
  }
  return easytime::Status::OK();
}

easytime::Status Wal::OpenFreshSegmentLocked() {
  const uint64_t start = last_seq_ + 1;
  std::string path = dir_ + "/" + SegmentName(start);
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return easytime::Status::IOError("cannot create WAL segment " + path +
                                     ": " + std::strerror(errno));
  }
  std::string header(kMagic, 8);
  PutU64(&header, start);
  easytime::Status st = WriteFully(fd, header.data(), header.size());
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  fd_ = fd;
  active_bytes_ = kHeaderBytes;
  if (!segments_.empty() && segments_.back().start_seq == start) {
    segments_.back().path = path;  // re-created over an empty leftover
  } else {
    segments_.push_back(Segment{start, path});
  }
  return SyncDir(dir_);
}

easytime::Result<uint64_t> Wal::Append(std::string_view payload) {
  std::unique_lock<std::mutex> lock(mu_);
  EASYTIME_FAULT_POINT("store.append");
  EASYTIME_RETURN_IF_ERROR(poisoned_);
  if (payload.size() > kMaxPayload) {
    return easytime::Status::InvalidArgument(
        "WAL record exceeds the 256 MiB payload bound");
  }
  if (fd_ < 0 || active_bytes_ >= options_.segment_bytes) {
    CloseActiveLocked();
    EASYTIME_RETURN_IF_ERROR(poisoned_);  // the close fsync failed
    easytime::Status opened = OpenFreshSegmentLocked();
    if (!opened.ok()) return PoisonLocked(std::move(opened));
  }
  const uint64_t seq = last_seq_ + 1;
  std::string frame;
  frame.reserve(kFrameBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, RecordCrc(seq, payload));
  PutU64(&frame, seq);
  frame.append(payload.data(), payload.size());
  easytime::Status st = WriteFully(fd_, frame.data(), frame.size());
  // A frame written part-way stays on disk: the next write would land past
  // it, so only recovery may cut it.
  if (!st.ok()) return PoisonLocked(std::move(st));
  active_bytes_ += frame.size();
  last_seq_ = seq;
  lock.unlock();
  if (options_.sync_every_append) {
    // Fault point "store.append_written": lets tests hold a written record
    // back from Sync while another caller's fsync covers it.
    EASYTIME_FAULT_POINT("store.append_written");
    EASYTIME_RETURN_IF_ERROR(SyncThrough(seq));
  }
  return seq;
}

easytime::Status Wal::Sync() { return SyncThrough(last_seq()); }

easytime::Status Wal::SyncThrough(uint64_t seq) {
  std::unique_lock<std::mutex> ack(ack_mu_);
  for (;;) {
    // Failure wins over durability: a poisoned log acks nothing more.
    EASYTIME_RETURN_IF_ERROR(poisoned_);
    if (durable_seq_ >= seq) return easytime::Status::OK();
    if (!syncing_) break;
    ack_cv_.wait(ack);  // an fsync is running: it may cover seq
  }
  // Lead: one fsync acknowledges every record written so far. It runs on a
  // dup of the active fd OUTSIDE both mutexes, so appenders keep writing the
  // next batch meanwhile. Records <= target in earlier, rotated segments
  // were fsync'd by CloseActiveLocked (or poisoned the log).
  syncing_ = true;
  ack.unlock();
  uint64_t target;
  int dupfd;
  bool had_fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = last_seq_;
    had_fd = fd_ >= 0;
    dupfd = had_fd ? ::dup(fd_) : -1;
  }
  easytime::Status st = [&]() -> easytime::Status {
    EASYTIME_FAULT_POINT("store.fsync");
    if (had_fd && dupfd < 0) {
      return easytime::Status::IOError("wal fsync: dup failed");
    }
    if (dupfd >= 0 && ::fsync(dupfd) != 0) {
      return easytime::Status::IOError(std::string("wal fsync failed: ") +
                                       std::strerror(errno));
    }
    return easytime::Status::OK();
  }();
  if (dupfd >= 0) ::close(dupfd);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    PoisonLocked(std::move(st));
  }
  ack.lock();
  syncing_ = false;
  // An fsync that finishes after the log was poisoned acks nothing: it may
  // have run over pages a failed fsync already marked clean.
  if (poisoned_.ok()) {
    ++gc_stats_.batches;
    gc_stats_.records += target - durable_seq_;
    durable_seq_ = target;
  }
  st = poisoned_;
  ack.unlock();
  ack_cv_.notify_all();
  return st;
}

easytime::Status Wal::PoisonLocked(easytime::Status st) {
  // Lock order is mu_ -> ack_mu_, so this cannot deadlock with Sync().
  std::lock_guard<std::mutex> ack(ack_mu_);
  if (poisoned_.ok()) {
    EASYTIME_LOG(Warning) << "wal: " << dir_ << " fails until reopened: "
                          << st.ToString();
    poisoned_ = std::move(st);
  }
  return poisoned_;
}

void Wal::CloseActiveLocked() {
  if (fd_ < 0) return;
  // Fault point "store.segment_close_fsync": lets tests fail exactly the
  // rotation-close fsync while Sync()'s fsyncs keep succeeding.
  easytime::Status close_st = easytime::Status::OK();
  if (::easytime::FaultRegistry::AnyArmed()) {
    close_st = ::easytime::FaultRegistry::Global().Check(
        "store.segment_close_fsync");
  }
  if (close_st.ok() && ::fsync(fd_) != 0) {
    close_st = easytime::Status::IOError(
        std::string("wal fsync on segment close failed: ") +
        std::strerror(errno));
  }
  if (!close_st.ok()) PoisonLocked(std::move(close_st));
  ::close(fd_);
  fd_ = -1;
  active_bytes_ = 0;
}

easytime::Status Wal::RemoveSegmentsCoveredBy(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0 && last_seq_ <= seq) {
    CloseActiveLocked();  // fully covered active segment may go too
  }
  size_t removed = 0;
  while (removed < segments_.size()) {
    const bool is_last = removed + 1 == segments_.size();
    if (is_last && fd_ >= 0) break;  // never delete the open segment
    uint64_t covered_end =
        is_last ? last_seq_ : segments_[removed + 1].start_seq - 1;
    if (covered_end > seq) break;
    std::error_code ec;
    fs::remove(segments_[removed].path, ec);
    if (ec) {
      return easytime::Status::IOError("cannot remove WAL segment " +
                                       segments_[removed].path + ": " +
                                       ec.message());
    }
    ++removed;
  }
  if (removed > 0) {
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<ptrdiff_t>(removed));
    EASYTIME_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return easytime::Status::OK();
}

uint64_t Wal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

std::vector<std::string> Wal::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(segments_.size());
  for (const auto& s : segments_) out.push_back(s.path);
  return out;
}

WalGroupCommitStats Wal::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(ack_mu_);
  return gc_stats_;
}

}  // namespace easytime::store
