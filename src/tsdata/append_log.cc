#include "tsdata/append_log.h"

#include <cmath>

#include "common/logging.h"

namespace easytime::tsdata {

easytime::Json AppendRecord::ToJson() const {
  easytime::Json j = easytime::Json::Object();
  j.Set("dataset", dataset);
  j.Set("start", static_cast<int64_t>(start));
  easytime::Json chans = easytime::Json::Array();
  for (const auto& ch : channels) {
    easytime::Json arr = easytime::Json::Array();
    for (double v : ch) arr.Append(v);
    chans.Append(std::move(arr));
  }
  j.Set("channels", std::move(chans));
  return j;
}

easytime::Result<AppendRecord> AppendRecord::FromJson(const easytime::Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("append record must be an object");
  }
  AppendRecord rec;
  rec.dataset = j.GetString("dataset", "");
  if (rec.dataset.empty()) {
    return Status::InvalidArgument("append record missing dataset");
  }
  int64_t start = j.GetInt("start", -1);
  if (start < 0) {
    return Status::InvalidArgument("append record missing start offset");
  }
  rec.start = static_cast<size_t>(start);
  if (!j.Has("channels") || !j.Get("channels").is_array()) {
    return Status::InvalidArgument("append record missing channels array");
  }
  for (const auto& ch : j.Get("channels").items()) {
    if (!ch.is_array() || ch.items().empty()) {
      return Status::InvalidArgument(
          "append record channels must be non-empty arrays");
    }
    std::vector<double> values;
    values.reserve(ch.items().size());
    for (const auto& v : ch.items()) {
      if (!v.is_number() || !std::isfinite(v.AsDouble())) {
        return Status::InvalidArgument(
            "append record values must be finite numbers");
      }
      values.push_back(v.AsDouble());
    }
    rec.channels.push_back(std::move(values));
  }
  if (rec.channels.empty()) {
    return Status::InvalidArgument("append record has no channels");
  }
  size_t batch = rec.channels[0].size();
  for (const auto& ch : rec.channels) {
    if (ch.size() != batch) {
      return Status::InvalidArgument("append record channels unequal length");
    }
  }
  return rec;
}

namespace {

/// Applies an appended suffix to a repository dataset. \p base is the series
/// length the suffix starts at. Idempotent: already-covered prefixes are
/// skipped; a gap (acknowledged data depending on lost data) is an IOError.
easytime::Result<bool> ApplySuffix(
    Repository* repo, const std::string& name, size_t base,
    const std::vector<std::vector<double>>& channels) {
  auto ds_or = repo->GetMutable(name);
  if (!ds_or.ok()) {
    // The base suite no longer contains this dataset (suite spec changed);
    // keep the data in the log but there is nothing to extend.
    EASYTIME_LOG(Warning) << "append log: skipping appends for unknown "
                          << "dataset '" << name << "'";
    return false;
  }
  Dataset* ds = *ds_or;
  const size_t len = ds->length();
  const size_t batch = channels.empty() ? 0 : channels[0].size();
  if (len < base) {
    return Status::IOError(
        "append log references '" + name + "' at offset " +
        std::to_string(base) + " but the series is only " +
        std::to_string(len) + " long — base data is missing");
  }
  if (len >= base + batch) return false;  // fully covered already
  std::vector<std::vector<double>> suffix;
  suffix.reserve(channels.size());
  const size_t from = len - base;
  for (const auto& ch : channels) {
    suffix.emplace_back(ch.begin() + static_cast<long>(from), ch.end());
  }
  easytime::Status applied = ds->AppendObservations(suffix);
  if (!applied.ok()) {
    // Channel arity changed under the log (regenerated suite with a new
    // shape): the appended tail no longer fits this dataset.
    EASYTIME_LOG(Warning) << "append log: cannot re-apply appends to '"
                          << name << "': " << applied.ToString();
    return false;
  }
  return true;
}

}  // namespace

easytime::Result<std::unique_ptr<AppendLog>> AppendLog::Open(
    const AppendLogOptions& options, Repository* repo, ReplayStats* stats) {
  if (repo == nullptr) {
    return Status::InvalidArgument("append log needs a repository");
  }
  store::RecordStoreOptions store_options;
  store_options.sync_every_append = true;  // acks mean durable
  store::RecordStoreRecovery recovery;
  EASYTIME_ASSIGN_OR_RETURN(
      auto record_store,
      store::RecordStore::Open(options.dir, store_options, &recovery));

  auto log = std::unique_ptr<AppendLog>(
      new AppendLog(options, std::move(record_store)));
  ReplayStats replay;

  // 1. The snapshot holds cumulative per-dataset tails.
  if (recovery.has_snapshot) {
    auto snap_or = easytime::Json::Parse(recovery.snapshot);
    if (!snap_or.ok()) {
      return snap_or.status().WithContext("append log snapshot");
    }
    const easytime::Json& snap = *snap_or;
    if (snap.Has("tails")) {
      const easytime::Json& tails = snap.Get("tails");
      for (const auto& name : tails.keys()) {
        const easytime::Json& t = tails.Get(name);
        AppendRecord rec;
        rec.dataset = name;
        easytime::Json encoded = t;
        encoded.Set("dataset", name);
        encoded.Set("start", t.GetInt("base", 0));
        EASYTIME_ASSIGN_OR_RETURN(rec, AppendRecord::FromJson(encoded));
        Tail tail;
        tail.base = rec.start;
        tail.channels = std::move(rec.channels);
        EASYTIME_ASSIGN_OR_RETURN(
            bool applied, ApplySuffix(repo, name, tail.base, tail.channels));
        applied ? ++replay.applied : ++replay.skipped;
        log->tails_[name] = std::move(tail);
      }
    }
  }

  // 2. WAL records past the snapshot, in sequence order (= start order per
  // dataset, by the ordering contract).
  for (const auto& [seq, payload] : recovery.tail) {
    (void)seq;
    auto parsed = easytime::Json::Parse(payload);
    if (!parsed.ok()) return parsed.status().WithContext("append log record");
    EASYTIME_ASSIGN_OR_RETURN(AppendRecord rec,
                              AppendRecord::FromJson(*parsed));
    auto it = log->tails_.find(rec.dataset);
    if (it == log->tails_.end()) {
      Tail tail;
      tail.base = rec.start;
      tail.channels.resize(rec.channels.size());
      it = log->tails_.emplace(rec.dataset, std::move(tail)).first;
    }
    Tail& tail = it->second;
    if (rec.channels.size() != tail.channels.size()) {
      return Status::IOError("append log record for '" + rec.dataset +
                              "' changes channel arity mid-log");
    }
    const size_t tail_len =
        tail.channels.empty() ? 0 : tail.channels[0].size();
    const size_t expected = tail.base + tail_len;
    if (rec.start < expected) {
      // Already inside the snapshot (compaction raced the record's fsync).
      ++replay.skipped;
      continue;
    }
    if (rec.start > expected) {
      return Status::IOError(
          "append log gap for '" + rec.dataset + "': record starts at " +
          std::to_string(rec.start) + ", expected " +
          std::to_string(expected));
    }
    for (size_t c = 0; c < tail.channels.size(); ++c) {
      tail.channels[c].insert(tail.channels[c].end(), rec.channels[c].begin(),
                              rec.channels[c].end());
    }
    EASYTIME_ASSIGN_OR_RETURN(
        bool applied, ApplySuffix(repo, rec.dataset, rec.start, rec.channels));
    applied ? ++replay.applied : ++replay.skipped;
  }

  if (replay.applied > 0 || replay.skipped > 0) {
    EASYTIME_LOG(Info) << "append log: replayed " << replay.applied
                       << " appends (" << replay.skipped << " skipped) from "
                       << options.dir;
  }
  if (stats != nullptr) *stats = replay;
  return log;
}

easytime::Status AppendLog::Append(const AppendRecord& record) {
  if (record.channels.empty() || record.channels[0].empty()) {
    return Status::InvalidArgument("append record must carry values");
  }
  size_t tail_len = 0;
  {
    // Tails first: any record that later obtains a WAL sequence number is
    // already inside the state a concurrent compaction would snapshot (the
    // replay path's duplicate guard absorbs the overlap).
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tails_.find(record.dataset);
    if (it == tails_.end()) {
      Tail tail;
      tail.base = record.start;
      tail.channels.resize(record.channels.size());
      it = tails_.emplace(record.dataset, std::move(tail)).first;
    }
    Tail& tail = it->second;
    if (record.channels.size() != tail.channels.size()) {
      return Status::InvalidArgument("append changes channel arity");
    }
    tail_len = tail.channels.empty() ? 0 : tail.channels[0].size();
    if (record.start != tail.base + tail_len) {
      return Status::Internal(
          "append log ordering violated for '" + record.dataset +
          "': start " + std::to_string(record.start) + ", expected " +
          std::to_string(tail.base + tail_len) +
          " (same-dataset appends must be serialized)");
    }
    for (size_t c = 0; c < tail.channels.size(); ++c) {
      tail.channels[c].insert(tail.channels[c].end(),
                              record.channels[c].begin(),
                              record.channels[c].end());
    }
  }
  // Durable outside the tails lock: concurrent appenders (to different
  // datasets) group-commit into shared fsyncs.
  auto seq = store_->Append(record.ToJson().Dump());
  if (!seq.ok()) {
    // Refused: take the batch back out of the tail, or the next compaction
    // would snapshot it and a restart would resurrect it. Same-dataset
    // appends are serialized, so nothing was added behind it.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tails_.find(record.dataset);
    if (tail_len == 0) {
      tails_.erase(it);
    } else {
      for (auto& ch : it->second.channels) ch.resize(tail_len);
    }
    return seq.status();
  }
  // The record is durable: a failed compaction leaves it in the WAL and
  // must not turn the acknowledged append into a refusal.
  easytime::Status compacted = MaybeCompact();
  if (!compacted.ok()) {
    EASYTIME_LOG(Warning) << "append log: compaction failed: "
                          << compacted.ToString();
  }
  return Status::OK();
}

std::string AppendLog::EncodeTailsLocked() const {
  easytime::Json tails = easytime::Json::Object();
  for (const auto& [name, tail] : tails_) {
    easytime::Json t = easytime::Json::Object();
    t.Set("base", static_cast<int64_t>(tail.base));
    easytime::Json chans = easytime::Json::Array();
    for (const auto& ch : tail.channels) {
      easytime::Json arr = easytime::Json::Array();
      for (double v : ch) arr.Append(v);
      chans.Append(std::move(arr));
    }
    t.Set("channels", std::move(chans));
    tails.Set(name, std::move(t));
  }
  easytime::Json snap = easytime::Json::Object();
  snap.Set("tails", std::move(tails));
  return snap.Dump();
}

easytime::Status AppendLog::MaybeCompact() {
  if (options_.compact_every == 0) return Status::OK();
  if (store_->appends_since_compaction() < options_.compact_every) {
    return Status::OK();
  }
  std::string state;
  uint64_t covered_seq = 0;
  {
    // The covered seq is read with the tails: a record updates its tail
    // under mu_ before it takes a seq, so every record at or below
    // covered_seq is in state. Records past it may be in state too; replay
    // skips those as duplicates.
    std::lock_guard<std::mutex> lock(mu_);
    state = EncodeTailsLocked();
    covered_seq = store_->last_seq();
  }
  return store_->Compact(state, covered_seq);
}

}  // namespace easytime::tsdata
