#include "cluster/replicator.h"

#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "store/file_io.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace easytime::cluster {

namespace {
namespace fs = std::filesystem;

/// Ships sealed (or, for a final catch-up, all) segments under \p dir to
/// \p endpoint, skipping files already recorded in \p shipped.
struct DirShipOutcome {
  uint64_t segments = 0;
  uint64_t bytes = 0;
  uint64_t records_applied = 0;
  uint64_t applied_seq = 0;   ///< follower's watermark after the last apply
  uint64_t last_seq = 0;      ///< newest valid record under dir
  easytime::Status status = easytime::Status::OK();
};

DirShipOutcome ShipSegments(const std::string& dir,
                            const std::string& endpoint,
                            serve::TcpClient& client,
                            std::map<std::string, uint64_t>* shipped,
                            const std::string& key_prefix) {
  DirShipOutcome out;
  auto segments = store::ListWalSegments(dir);
  if (!segments.ok()) {
    out.status = segments.status();
    return out;
  }
  if (segments->empty()) return out;
  out.last_seq = segments->back().last_seq;
  // Sealed segments only: the active (highest start_seq) file still grows,
  // and its torn-prone tail belongs to promotion's frozen-disk catch-up.
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    const store::WalSegmentInfo& seg = (*segments)[i];
    const std::string key = key_prefix + seg.file;
    auto it = shipped->find(key);
    if (it != shipped->end() && it->second >= seg.valid_bytes) continue;
    auto bytes = store::ExportWalSegment(seg.path, seg.file);
    if (!bytes.ok()) {
      out.status = bytes.status();
      return out;
    }
    easytime::Json params = easytime::Json::Object();
    params.Set("file", seg.file);
    params.Set("data", Base64Encode(*bytes));
    auto reply = client.Call(endpoint, params);
    if (!reply.ok()) {
      out.status = reply.status();
      return out;
    }
    (*shipped)[key] = seg.valid_bytes;
    ++out.segments;
    out.bytes += bytes->size();
    out.records_applied +=
        static_cast<uint64_t>(reply->GetInt("records", 0));
    out.applied_seq = static_cast<uint64_t>(reply->GetInt("applied_seq", 0));
  }
  return out;
}

}  // namespace

easytime::Result<CatchUpReport> SyncFrozenStoreDir(const std::string& src,
                                                   const std::string& dst) {
  CatchUpReport report;
  if (!fs::exists(src)) return report;
  std::error_code ec;
  fs::create_directories(dst, ec);
  if (ec) return Status::IOError("cannot create " + dst);

  EASYTIME_ASSIGN_OR_RETURN(auto segments, store::ListWalSegments(src));
  for (const auto& seg : segments) {
    EASYTIME_ASSIGN_OR_RETURN(std::string bytes,
                              store::ExportWalSegment(seg.path, seg.file));
    auto imported = store::ImportWalSegment(dst, seg.file, bytes);
    if (!imported.ok()) {
      // The destination already holding a LONGER valid prefix than the
      // frozen source would mean the "frozen" dir moved — surface that.
      return imported.status();
    }
    ++report.segments_copied;
    report.bytes_copied += bytes.size();
    if (seg.last_seq > report.last_seq) report.last_seq = seg.last_seq;
  }

  // Every retained snapshot, so a corrupt newest one falls back at dst to
  // an older one as recovery at src would. Durably: dst's WAL segments may
  // start past the oldest snapshot, so losing one to a crash would lose
  // acknowledged data.
  for (const store::SnapshotInfo& snap : store::ListSnapshots(src)) {
    const std::string file = fs::path(snap.path).filename().string();
    if (fs::exists(dst + "/" + file)) continue;
    EASYTIME_ASSIGN_OR_RETURN(std::string bytes,
                              store::ReadWholeFile(snap.path));
    EASYTIME_RETURN_IF_ERROR(store::WriteFileDurably(dst, file, {bytes}));
    ++report.snapshots_copied;
  }
  return report;
}

void Replicator::SetLink(const std::string& shard_id,
                         const std::string& store_dir,
                         uint16_t follower_port) {
  std::lock_guard<std::mutex> lock(mu_);
  Link& link = links_[shard_id];
  if (link.store_dir != store_dir) link.shipped.clear();
  link.store_dir = store_dir;
  link.follower_port = follower_port;
}

void Replicator::RemoveLink(const std::string& shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  links_.erase(shard_id);
}

void Replicator::Start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this]() {
    while (running_.load()) {
      ShipOnce();
      const auto step = std::chrono::milliseconds(10);
      auto remaining =
          std::chrono::duration<double, std::milli>(options_.interval_ms);
      while (running_.load() && remaining.count() > 0) {
        std::this_thread::sleep_for(step);
        remaining -= step;
      }
    }
  });
}

void Replicator::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void Replicator::ShipOnce() {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, link] : links_) ids.push_back(id);
  }
  for (const auto& id : ids) {
    Link snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = links_.find(id);
      if (it == links_.end() || it->second.follower_port == 0) continue;
      snapshot = it->second;
    }
    ShipLink(id, snapshot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = links_.find(id);
      // Discard the pass if the link was re-pointed mid-flight (failover).
      if (it != links_.end() && it->second.store_dir == snapshot.store_dir &&
          it->second.follower_port == snapshot.follower_port) {
        it->second = std::move(snapshot);
      }
    }
  }
}

void Replicator::ShipLink(const std::string& shard_id, Link& link) {
  serve::RetryPolicy no_retry;
  no_retry.max_attempts = 1;  // the next pass is the retry
  serve::TcpClient client(link.follower_port, no_retry, options_.auth_token);

  DirShipOutcome kb = ShipSegments(link.store_dir, "replica_apply", client,
                                   &link.shipped, "kb:");
  DirShipOutcome ap =
      ShipSegments(link.store_dir + "/appends", "replica_apply_appends",
                   client, &link.shipped, "ap:");

  LinkStats& s = link.stats;
  s.segments_shipped += kb.segments + ap.segments;
  s.bytes_shipped += kb.bytes + ap.bytes;
  s.records_applied += kb.records_applied;
  if (!kb.status.ok() || !ap.status.ok()) {
    ++s.ship_failures;
    if (!kb.status.ok()) {
      EASYTIME_LOG(Warning) << "replicator[" << shard_id
                         << "]: " << kb.status.ToString();
    }
  }
  s.primary_last_seq = kb.last_seq;
  if (kb.applied_seq > 0) s.follower_applied_seq = kb.applied_seq;
  s.ship_lag = s.primary_last_seq > s.follower_applied_seq
                   ? s.primary_last_seq - s.follower_applied_seq
                   : 0;
  s.appends_last_seq = ap.last_seq;
  if (ap.applied_seq > 0) s.appends_staged_seq = ap.applied_seq;
}

easytime::Json Replicator::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  easytime::Json out = easytime::Json::Object();
  for (const auto& [id, link] : links_) {
    const LinkStats& s = link.stats;
    easytime::Json j = easytime::Json::Object();
    j.Set("segments_shipped", static_cast<int64_t>(s.segments_shipped));
    j.Set("bytes_shipped", static_cast<int64_t>(s.bytes_shipped));
    j.Set("records_applied", static_cast<int64_t>(s.records_applied));
    j.Set("ship_failures", static_cast<int64_t>(s.ship_failures));
    j.Set("primary_last_seq", static_cast<int64_t>(s.primary_last_seq));
    j.Set("follower_applied_seq",
          static_cast<int64_t>(s.follower_applied_seq));
    j.Set("ship_lag", static_cast<int64_t>(s.ship_lag));
    j.Set("appends_last_seq", static_cast<int64_t>(s.appends_last_seq));
    j.Set("appends_staged_seq", static_cast<int64_t>(s.appends_staged_seq));
    out.Set(id, std::move(j));
  }
  return out;
}

Replicator::LinkStats Replicator::StatsFor(const std::string& shard_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(shard_id);
  return it == links_.end() ? LinkStats{} : it->second.stats;
}

}  // namespace easytime::cluster
