#include "knowledge/knowledge_store.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace easytime::knowledge {

namespace {

/// Full-state image for snapshots (and the Restore() payload shape).
struct DecodedState {
  std::vector<DatasetMeta> datasets;
  std::vector<MethodMeta> methods;
  std::vector<ResultEntry> results;
};

easytime::Result<DecodedState> DecodeState(const easytime::Json& j) {
  if (!j.is_object()) {
    return easytime::Status::ParseError("knowledge state must be an object");
  }
  DecodedState out;
  for (const auto& d : j.Get("datasets").items()) {
    EASYTIME_ASSIGN_OR_RETURN(DatasetMeta meta, DatasetMetaFromJson(d));
    out.datasets.push_back(std::move(meta));
  }
  for (const auto& m : j.Get("methods").items()) {
    EASYTIME_ASSIGN_OR_RETURN(MethodMeta meta, MethodMetaFromJson(m));
    out.methods.push_back(std::move(meta));
  }
  for (const auto& r : j.Get("results").items()) {
    EASYTIME_ASSIGN_OR_RETURN(ResultEntry entry, ResultEntryFromJson(r));
    out.results.push_back(std::move(entry));
  }
  return out;
}

std::string EncodeState(const KnowledgeBase& kb) {
  easytime::Json state = easytime::Json::Object();
  easytime::Json datasets = easytime::Json::Array();
  for (const auto& d : kb.datasets()) datasets.Append(DatasetMetaToJson(d));
  easytime::Json methods = easytime::Json::Array();
  for (const auto& m : kb.methods()) methods.Append(MethodMetaToJson(m));
  easytime::Json results = easytime::Json::Array();
  for (const auto& r : kb.results()) results.Append(ResultEntryToJson(r));
  state.Set("datasets", std::move(datasets));
  state.Set("methods", std::move(methods));
  state.Set("results", std::move(results));
  return state.Dump();
}

}  // namespace

easytime::Json DatasetMetaToJson(const DatasetMeta& meta) {
  easytime::Json j = easytime::Json::Object();
  j.Set("name", meta.name);
  j.Set("domain", meta.domain);
  j.Set("multivariate", meta.multivariate);
  j.Set("num_channels", static_cast<int64_t>(meta.num_channels));
  j.Set("length", static_cast<int64_t>(meta.length));
  j.Set("profiled_length", static_cast<int64_t>(meta.profiled_length));
  easytime::Json c = easytime::Json::Object();
  c.Set("seasonality", meta.characteristics.seasonality);
  c.Set("trend", meta.characteristics.trend);
  c.Set("transition", meta.characteristics.transition);
  c.Set("shifting", meta.characteristics.shifting);
  c.Set("stationarity", meta.characteristics.stationarity);
  c.Set("correlation", meta.characteristics.correlation);
  c.Set("period", static_cast<int64_t>(meta.characteristics.period));
  j.Set("characteristics", std::move(c));
  return j;
}

easytime::Result<DatasetMeta> DatasetMetaFromJson(const easytime::Json& j) {
  if (!j.is_object() || !j.Has("name")) {
    return easytime::Status::ParseError("dataset row missing 'name'");
  }
  DatasetMeta meta;
  meta.name = j.GetString("name", "");
  meta.domain = j.GetString("domain", "");
  meta.multivariate = j.GetBool("multivariate", false);
  meta.num_channels = static_cast<size_t>(j.GetInt("num_channels", 1));
  meta.length = static_cast<size_t>(j.GetInt("length", 0));
  // Older snapshots predate profiled_length; falling back to `length` means
  // "profiled as of the restored length", which is exactly right for them.
  meta.profiled_length = static_cast<size_t>(
      j.GetInt("profiled_length", static_cast<int64_t>(meta.length)));
  const easytime::Json& c = j.Get("characteristics");
  meta.characteristics.seasonality = c.GetDouble("seasonality", 0.0);
  meta.characteristics.trend = c.GetDouble("trend", 0.0);
  meta.characteristics.transition = c.GetDouble("transition", 0.0);
  meta.characteristics.shifting = c.GetDouble("shifting", 0.0);
  meta.characteristics.stationarity = c.GetDouble("stationarity", 0.0);
  meta.characteristics.correlation = c.GetDouble("correlation", 0.0);
  meta.characteristics.period = static_cast<size_t>(c.GetInt("period", 0));
  return meta;
}

easytime::Json MethodMetaToJson(const MethodMeta& meta) {
  easytime::Json j = easytime::Json::Object();
  j.Set("name", meta.name);
  j.Set("family", meta.family);
  j.Set("description", meta.description);
  return j;
}

easytime::Result<MethodMeta> MethodMetaFromJson(const easytime::Json& j) {
  if (!j.is_object() || !j.Has("name")) {
    return easytime::Status::ParseError("method row missing 'name'");
  }
  MethodMeta meta;
  meta.name = j.GetString("name", "");
  meta.family = j.GetString("family", "");
  meta.description = j.GetString("description", "");
  return meta;
}

easytime::Json ResultEntryToJson(const ResultEntry& entry) {
  easytime::Json j = easytime::Json::Object();
  j.Set("dataset", entry.dataset);
  j.Set("method", entry.method);
  j.Set("strategy", entry.strategy);
  j.Set("horizon", static_cast<int64_t>(entry.horizon));
  easytime::Json metrics = easytime::Json::Object();
  for (const auto& [name, value] : entry.metrics) {
    // Non-finite values serialize as JSON null; keep the key so the metric's
    // existence survives the round trip (FromJson restores NaN).
    metrics.Set(name, value);
  }
  j.Set("metrics", std::move(metrics));
  j.Set("fit_seconds", entry.fit_seconds);
  j.Set("forecast_seconds", entry.forecast_seconds);
  return j;
}

easytime::Result<ResultEntry> ResultEntryFromJson(const easytime::Json& j) {
  if (!j.is_object() || !j.Has("dataset") || !j.Has("method")) {
    return easytime::Status::ParseError(
        "result row missing 'dataset'/'method'");
  }
  ResultEntry entry;
  entry.dataset = j.GetString("dataset", "");
  entry.method = j.GetString("method", "");
  entry.strategy = j.GetString("strategy", "");
  entry.horizon = static_cast<size_t>(j.GetInt("horizon", 0));
  const easytime::Json& metrics = j.Get("metrics");
  for (const auto& name : metrics.keys()) {
    const easytime::Json& v = metrics.Get(name);
    entry.metrics[name] =
        v.is_number() ? v.AsDouble() : std::nan("");
  }
  entry.fit_seconds = j.GetDouble("fit_seconds", 0.0);
  entry.forecast_seconds = j.GetDouble("forecast_seconds", 0.0);
  return entry;
}

KnowledgeStore::KnowledgeStore(Options options,
                               std::unique_ptr<store::RecordStore> store)
    : options_(std::move(options)), store_(std::move(store)) {}

easytime::Result<std::unique_ptr<KnowledgeStore>> KnowledgeStore::Open(
    const Options& options, KnowledgeBase* kb, OpenInfo* info) {
  if (kb == nullptr) {
    return easytime::Status::InvalidArgument(
        "KnowledgeStore::Open requires a knowledge base");
  }
  store::RecordStoreOptions store_options;
  // Every append is durable before it returns: AddReport durability is the
  // point of the store.
  store_options.sync_every_append = true;

  OpenInfo local;
  OpenInfo* oi = info ? info : &local;
  *oi = OpenInfo{};
  EASYTIME_ASSIGN_OR_RETURN(
      std::unique_ptr<store::RecordStore> rs,
      store::RecordStore::Open(options.dir, store_options, &oi->recovery));

  DecodedState state;
  bool have_state = false;
  if (oi->recovery.has_snapshot) {
    EASYTIME_ASSIGN_OR_RETURN(easytime::Json snap,
                              easytime::Json::Parse(oi->recovery.snapshot));
    EASYTIME_ASSIGN_OR_RETURN(state, DecodeState(snap));
    have_state = true;
  }
  for (const auto& [seq, payload] : oi->recovery.tail) {
    (void)seq;
    EASYTIME_ASSIGN_OR_RETURN(easytime::Json rec,
                              easytime::Json::Parse(payload));
    const std::string type = rec.GetString("type", "");
    if (type == "results") {
      for (const auto& r : rec.Get("results").items()) {
        EASYTIME_ASSIGN_OR_RETURN(ResultEntry entry, ResultEntryFromJson(r));
        state.results.push_back(std::move(entry));
      }
      have_state = true;
    } else {
      EASYTIME_LOG(Warning) << "knowledge store: skipping WAL record of "
                            << "unknown type '" << type << "'";
    }
  }
  if (have_state) {
    oi->restored = true;
    oi->datasets = state.datasets.size();
    oi->methods = state.methods.size();
    oi->results = state.results.size();
    kb->Restore(std::move(state.datasets), std::move(state.methods),
                std::move(state.results));
  }
  return std::unique_ptr<KnowledgeStore>(
      new KnowledgeStore(options, std::move(rs)));
}

easytime::Status KnowledgeStore::AppendResults(
    const std::vector<ResultEntry>& entries, const KnowledgeBase& kb) {
  if (entries.empty()) return easytime::Status::OK();
  easytime::Json rec = easytime::Json::Object();
  rec.Set("type", "results");
  easytime::Json rows = easytime::Json::Array();
  for (const auto& e : entries) rows.Append(ResultEntryToJson(e));
  rec.Set("results", std::move(rows));
  EASYTIME_RETURN_IF_ERROR(store_->Append(rec.Dump()).status());
  if (options_.compact_every > 0 &&
      store_->appends_since_compaction() >= options_.compact_every) {
    return store_->Compact(EncodeState(kb));
  }
  return easytime::Status::OK();
}

easytime::Status KnowledgeStore::Checkpoint(const KnowledgeBase& kb) {
  return store_->Compact(EncodeState(kb));
}

}  // namespace easytime::knowledge
