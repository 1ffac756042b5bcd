#include "sql/table_function.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "common/fault.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "methods/registry.h"

namespace easytime::sql {

namespace {

constexpr const char* kForecast = "TS_FORECAST";
constexpr const char* kForecastBy = "TS_FORECAST_BY";

/// A fully validated TS_FORECAST[_BY] invocation.
struct ForecastSpec {
  const Table* table = nullptr;
  bool by = false;
  int group_idx = -1;
  int date_idx = -1;
  int value_idx = -1;
  DataType group_type = DataType::kText;
  DataType date_type = DataType::kReal;
  std::string model = "theta";
  size_t horizon = 12;
  double confidence = 0.95;
  size_t period = 0;
};

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) out += ", ";
    out += names[i];
  }
  return out;
}

bool IsNumericColumn(DataType t) {
  return t == DataType::kInteger || t == DataType::kReal;
}

easytime::Result<ForecastSpec> ResolveForecastCall(
    const Database& db, const TableFunctionCall& call) {
  ForecastSpec spec;
  spec.by = call.function == kForecastBy;
  if (!spec.by && call.function != kForecast) {
    return Status::NotFound("unknown table function: " + call.function);
  }

  const size_t want = spec.by ? 4 : 3;
  if (call.positional.size() != want) {
    return Status::InvalidArgument(
        call.function + " takes " + std::to_string(want) +
        " positional arguments (" +
        (spec.by ? "table, group_col, date_col, value_col"
                 : "table, date_col, value_col") +
        "), got " + std::to_string(call.positional.size()));
  }
  EASYTIME_ASSIGN_OR_RETURN(spec.table, db.GetTable(call.positional[0]));

  auto resolve_col = [&](const std::string& name) -> easytime::Result<int> {
    int idx = spec.table->ColumnIndex(name);
    if (idx < 0) {
      return Status::NotFound("column '" + name +
                              "' does not exist in table '" +
                              spec.table->name() + "'");
    }
    return idx;
  };
  size_t p = 1;
  if (spec.by) {
    EASYTIME_ASSIGN_OR_RETURN(spec.group_idx, resolve_col(call.positional[p]));
    spec.group_type =
        spec.table->columns()[static_cast<size_t>(spec.group_idx)].type;
    ++p;
  }
  EASYTIME_ASSIGN_OR_RETURN(spec.date_idx, resolve_col(call.positional[p++]));
  EASYTIME_ASSIGN_OR_RETURN(spec.value_idx, resolve_col(call.positional[p]));
  spec.date_type =
      spec.table->columns()[static_cast<size_t>(spec.date_idx)].type;
  const DataType value_type =
      spec.table->columns()[static_cast<size_t>(spec.value_idx)].type;
  if (!IsNumericColumn(spec.date_type)) {
    return Status::InvalidArgument("date column '" +
                                   call.positional[p - 1] +
                                   "' must be numeric (INTEGER or REAL)");
  }
  if (!IsNumericColumn(value_type)) {
    return Status::InvalidArgument("value column '" + call.positional[p] +
                                   "' must be numeric (INTEGER or REAL)");
  }

  std::vector<std::string> seen;
  for (const auto& arg : call.named) {
    if (std::find(seen.begin(), seen.end(), arg.name) != seen.end()) {
      return Status::InvalidArgument("duplicate argument '" + arg.name +
                                     "' to " + call.function);
    }
    seen.push_back(arg.name);
    if (arg.name == "model") {
      if (!arg.value.is_text()) {
        return Status::InvalidArgument("model must be a string literal");
      }
      spec.model = arg.value.AsText();
    } else if (arg.name == "horizon") {
      if (!arg.value.is_integer() || arg.value.AsInteger() < 1) {
        return Status::InvalidArgument("horizon must be an integer >= 1");
      }
      if (arg.value.AsInteger() > 100000) {
        return Status::InvalidArgument("horizon must be <= 100000");
      }
      spec.horizon = static_cast<size_t>(arg.value.AsInteger());
    } else if (arg.name == "confidence") {
      if (!arg.value.is_numeric()) {
        return Status::InvalidArgument("confidence must be numeric");
      }
      double c = arg.value.ToDouble();
      if (!(c > 0.0 && c < 1.0)) {
        return Status::InvalidArgument(
            "confidence must lie strictly between 0 and 1");
      }
      spec.confidence = c;
    } else if (arg.name == "period") {
      if (!arg.value.is_integer() || arg.value.AsInteger() < 0) {
        return Status::InvalidArgument("period must be an integer >= 0");
      }
      spec.period = static_cast<size_t>(arg.value.AsInteger());
    } else {
      return Status::InvalidArgument(
          "unknown argument '" + arg.name + "' to " + call.function +
          " (expected model, horizon, confidence, period)");
    }
  }

  const auto& registry = methods::MethodRegistry::Global();
  if (!registry.Contains(spec.model)) {
    return Status::InvalidArgument("unknown model '" + spec.model +
                                   "'; registered methods: " +
                                   JoinNames(registry.Names()));
  }
  return spec;
}

std::vector<Column> OutputSchema(const ForecastSpec& spec,
                                 const std::string& group_col_name) {
  std::vector<Column> cols;
  if (spec.by) cols.push_back({group_col_name, spec.group_type});
  cols.push_back({"forecast_step", DataType::kInteger});
  cols.push_back({"forecast_timestamp", spec.date_type});
  cols.push_back({"point_forecast", DataType::kReal});
  cols.push_back({"lower", DataType::kReal});
  cols.push_back({"upper", DataType::kReal});
  cols.push_back({"model_name", DataType::kText});
  cols.push_back({"fit_time_ms", DataType::kReal});
  return cols;
}

/// Total order over group keys of one column's type; mixed types (possible
/// only through widened REAL columns) fall back to the rendered form.
bool ValueLess(const Value& a, const Value& b) {
  auto cmp = a.Compare(b);
  if (cmp.ok()) return *cmp < 0;
  return a.ToString() < b.ToString();
}

struct GroupSeries {
  Value key;                                  ///< null for TS_FORECAST
  std::vector<std::pair<Value, double>> pts;  ///< (date, value)
};

/// Median observed spacing between successive sorted integer dates; never
/// smaller than 1 so forecast timestamps stay strictly increasing even on
/// duplicate dates.
int64_t MedianIntervalInt(const std::vector<std::pair<Value, double>>& pts) {
  std::vector<int64_t> iv;
  iv.reserve(pts.size());
  for (size_t i = 1; i < pts.size(); ++i) {
    iv.push_back(pts[i].first.AsInteger() - pts[i - 1].first.AsInteger());
  }
  if (iv.empty()) return 1;
  std::sort(iv.begin(), iv.end());
  int64_t m = iv[iv.size() / 2];
  return m > 0 ? m : 1;
}

double MedianIntervalReal(const std::vector<std::pair<Value, double>>& pts) {
  std::vector<double> iv;
  iv.reserve(pts.size());
  for (size_t i = 1; i < pts.size(); ++i) {
    iv.push_back(pts[i].first.ToDouble() - pts[i - 1].first.ToDouble());
  }
  if (iv.empty()) return 1.0;
  std::sort(iv.begin(), iv.end());
  double m = iv[iv.size() / 2];
  return m > 0.0 && std::isfinite(m) ? m : 1.0;
}

std::string GroupLabel(const ForecastSpec& spec, const Value& key) {
  return spec.by ? "group " + key.ToString() + ": " : "";
}

}  // namespace

bool IsTableFunction(const std::string& upper_name) {
  return upper_name == kForecast || upper_name == kForecastBy;
}

easytime::Result<std::vector<Column>> AnalyzeTableFunction(
    const Database& db, const TableFunctionCall& call) {
  EASYTIME_ASSIGN_OR_RETURN(ForecastSpec spec, ResolveForecastCall(db, call));
  std::string group_name =
      spec.by ? spec.table->columns()[static_cast<size_t>(spec.group_idx)].name
              : "";
  return OutputSchema(spec, group_name);
}

easytime::Result<Table> ExecuteTableFunction(
    const Database& db, const TableFunctionCall& call,
    const easytime::Deadline& deadline) {
  EASYTIME_ASSIGN_OR_RETURN(ForecastSpec spec, ResolveForecastCall(db, call));
  if (deadline.expired()) {
    return Status::DeadlineExceeded(call.function +
                                    ": deadline expired before execution");
  }

  // Partition rows into per-group series, deterministically ordered by key.
  // NULL group keys, dates, or values are skipped (SQL aggregate semantics).
  std::map<Value, GroupSeries, decltype(&ValueLess)> grouped(&ValueLess);
  for (const Row& row : spec.table->rows()) {
    const Value& date = row[static_cast<size_t>(spec.date_idx)];
    const Value& val = row[static_cast<size_t>(spec.value_idx)];
    if (date.is_null() || val.is_null()) continue;
    Value key = Value::Null();
    if (spec.by) {
      key = row[static_cast<size_t>(spec.group_idx)];
      if (key.is_null()) continue;
    }
    auto it = grouped.find(key);
    if (it == grouped.end()) {
      it = grouped.emplace(key, GroupSeries{key, {}}).first;
    }
    it->second.pts.emplace_back(date, val.ToDouble());
  }
  if (grouped.empty()) {
    return Status::InvalidArgument(call.function + ": table '" +
                                   spec.table->name() +
                                   "' has no usable (non-NULL) rows");
  }

  std::vector<GroupSeries> groups;
  groups.reserve(grouped.size());
  for (auto& [key, g] : grouped) {
    std::stable_sort(
        g.pts.begin(), g.pts.end(),
        [](const auto& a, const auto& b) { return ValueLess(a.first, b.first); });
    groups.push_back(std::move(g));
  }

  // One slot per group: ParallelFor writes only its own slot, so the result
  // is bit-identical no matter how many workers the pool runs (only
  // fit_time_ms, a wall-clock measurement, varies).
  struct Slot {
    std::vector<Row> rows;
    Status status;
    bool skipped = false;
  };
  std::vector<Slot> slots(groups.size());
  std::atomic<bool> deadline_hit{false};

  auto fit_group = [&](size_t gi) {
    Slot& slot = slots[gi];
    const GroupSeries& g = groups[gi];
    if (deadline.expired()) {
      deadline_hit.store(true, std::memory_order_relaxed);
      slot.skipped = true;
      return;
    }
    // Chaos hook: one injected fault/delay per group fit, the unit of work
    // a slow model would actually stall on.
    if (FaultRegistry::AnyArmed()) {
      Status fs = FaultRegistry::Global().Check("sql.forecast");
      if (!fs.ok()) {
        slot.status = std::move(fs);
        return;
      }
    }

    std::vector<double> train;
    train.reserve(g.pts.size());
    for (const auto& [date, value] : g.pts) train.push_back(value);

    auto forecaster = methods::MethodRegistry::Global().Create(
        spec.model, easytime::Json::Object());
    if (!forecaster.ok()) {
      slot.status = forecaster.status();
      return;
    }
    methods::FitContext ctx;
    ctx.period_hint = spec.period;
    ctx.horizon = spec.horizon;
    // The statement deadline reaches into each model's fit loop, so a slow
    // group aborts mid-fit instead of finishing long after the caller gave
    // up (the between-group check above only helps before a fit starts).
    ctx.deadline = deadline;
    Stopwatch watch;
    auto fc = (*forecaster)->ForecastWithIntervals(train, ctx, spec.confidence);
    const double fit_ms = watch.ElapsedSeconds() * 1000.0;
    if (!fc.ok()) {
      slot.status = Status(fc.status().code(), GroupLabel(spec, g.key) +
                                                   fc.status().message());
      return;
    }

    const std::string model_name = (*forecaster)->name();
    const bool int_dates = spec.date_type == DataType::kInteger;
    const int64_t istep = int_dates ? MedianIntervalInt(g.pts) : 0;
    const double rstep = int_dates ? 0.0 : MedianIntervalReal(g.pts);
    const Value& last_date = g.pts.back().first;

    slot.rows.reserve(spec.horizon);
    for (size_t h = 0; h < spec.horizon; ++h) {
      double point = fc->point[h];
      double lower = fc->lower[h];
      double upper = fc->upper[h];
      if (!std::isfinite(point)) {
        slot.status = Status::Internal(GroupLabel(spec, g.key) + "model '" +
                                       model_name +
                                       "' produced a non-finite forecast");
        return;
      }
      // Clamp pathological bounds so lower <= point <= upper always holds.
      if (!std::isfinite(lower)) lower = point;
      if (!std::isfinite(upper)) upper = point;
      lower = std::min(lower, point);
      upper = std::max(upper, point);

      Row row;
      if (spec.by) row.push_back(g.key);
      row.push_back(Value::Integer(static_cast<int64_t>(h + 1)));
      if (int_dates) {
        row.push_back(Value::Integer(last_date.AsInteger() +
                                     istep * static_cast<int64_t>(h + 1)));
      } else {
        row.push_back(
            Value::Real(last_date.ToDouble() + rstep * double(h + 1)));
      }
      row.push_back(Value::Real(point));
      row.push_back(Value::Real(lower));
      row.push_back(Value::Real(upper));
      row.push_back(Value::Text(model_name));
      row.push_back(Value::Real(fit_ms));
      slot.rows.push_back(std::move(row));
    }
  };

  if (groups.size() > 1) {
    GlobalThreadPool().ParallelFor(groups.size(), fit_group);
  } else {
    fit_group(0);
  }

  for (const Slot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }
  size_t done = 0;
  for (const Slot& slot : slots) {
    if (!slot.skipped) ++done;
  }
  if (deadline_hit.load(std::memory_order_relaxed) || deadline.expired()) {
    return Status::DeadlineExceeded(
        call.function + ": deadline expired after " + std::to_string(done) +
        " of " + std::to_string(groups.size()) + " group fits");
  }

  std::string group_name =
      spec.by ? spec.table->columns()[static_cast<size_t>(spec.group_idx)].name
              : "";
  Table out(ToLower(call.function), OutputSchema(spec, group_name));
  for (Slot& slot : slots) {
    for (Row& row : slot.rows) {
      EASYTIME_RETURN_IF_ERROR(out.Insert(std::move(row)));
    }
  }
  return out;
}

}  // namespace easytime::sql
