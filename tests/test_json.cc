#include "common/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "serve/request.h"

// Counts this thread's heap allocations, so a test can check that a code
// path allocates nothing.
namespace {
thread_local size_t g_allocations = 0;
}  // namespace

// Not inlined: GCC otherwise sees free() on a pointer from operator new at
// each call site and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace easytime {
namespace {

// Vector growth moves elements only when the move cannot throw; otherwise it
// deep-copies every node of every array it grows.
static_assert(std::is_nothrow_move_constructible_v<Json>);
static_assert(std::is_nothrow_move_assignable_v<Json>);
static_assert(sizeof(Json) <= 64, "array/object storage lives behind a pointer");

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::Parse("null").ValueOrDie().is_null());
  EXPECT_EQ(Json::Parse("true").ValueOrDie().AsBool(), true);
  EXPECT_EQ(Json::Parse("false").ValueOrDie().AsBool(), false);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25").ValueOrDie().AsDouble(), 3.25);
  EXPECT_EQ(Json::Parse("-17").ValueOrDie().AsInt(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3").ValueOrDie().AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"").ValueOrDie().AsString(), "hi");
}

TEST(JsonParse, Escapes) {
  auto j = Json::Parse(R"("a\"b\\c\nd\t")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->AsString(), "a\"b\\c\nd\t");
  auto u = Json::Parse(R"("Aé")");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->AsString(), "A\xc3\xa9");
}

TEST(JsonParse, NestedStructures) {
  auto j = Json::Parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->is_object());
  const Json& a = j->Get("a");
  ASSERT_TRUE(a.is_array());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.items()[2].Get("b").AsBool());
  EXPECT_TRUE(j->Get("c").Get("d").is_null());
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());  // trailing garbage
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1e999").ok()) << "overflows a double";
  EXPECT_FALSE(Json::Parse("-1e999").ok());
  EXPECT_FALSE(Json::Parse("[1, 1e999]").ok());
  EXPECT_TRUE(Json::Parse("1e-999").ok()) << "underflow is accepted";
}

TEST(JsonDump, RoundTrip) {
  auto j = Json::Parse(R"({"name":"easytime","n":3,"arr":[1,2.5,"x"],"ok":true})");
  ASSERT_TRUE(j.ok());
  auto again = Json::Parse(j->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->GetString("name", ""), "easytime");
  EXPECT_EQ(again->GetInt("n", 0), 3);
  EXPECT_EQ(again->Get("arr").size(), 3u);
}

TEST(JsonDump, PrettyPrintContainsNewlines) {
  Json obj = Json::Object();
  obj.Set("a", 1);
  std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(Json::Parse(pretty).ok());
}

TEST(JsonObject, PreservesInsertionOrder) {
  Json obj = Json::Object();
  obj.Set("z", 1);
  obj.Set("a", 2);
  obj.Set("m", 3);
  EXPECT_EQ(obj.keys(), (std::vector<std::string>{"z", "a", "m"}));
  obj.Set("a", 9);  // overwrite keeps position
  EXPECT_EQ(obj.keys().size(), 3u);
  EXPECT_EQ(obj.GetInt("a", 0), 9);
}

TEST(JsonTypedGetters, Fallbacks) {
  Json obj = Json::Object();
  obj.Set("d", 2.5);
  obj.Set("s", "text");
  obj.Set("b", true);
  EXPECT_DOUBLE_EQ(obj.GetDouble("d", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(obj.GetDouble("missing", -1.0), -1.0);
  EXPECT_EQ(obj.GetString("s", ""), "text");
  EXPECT_EQ(obj.GetString("d", "fallback"), "fallback");  // wrong type
  EXPECT_TRUE(obj.GetBool("b", false));
  EXPECT_TRUE(obj.GetBool("missing", true));
}

TEST(JsonNumber, IntegersDumpWithoutDecimalPoint) {
  Json j(static_cast<int64_t>(42));
  EXPECT_EQ(j.Dump(), "42");
  Json f(2.5);
  EXPECT_EQ(f.Dump(), "2.5");
}

TEST(JsonNumber, AsIntSaturatesOutOfRange) {
  EXPECT_EQ(Json(1e300).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Json(-1e300).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json::Parse(R"({"id":1e300})")->GetInt("id", 0),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Json(-7.9).AsInt(), -7) << "in range: truncates toward zero";
}

// The number format before AppendJsonNumber: integers below 1e15 via %lld,
// everything else the first of %.12g … %.17g that strtod reads back as v.
// Kept here as the oracle every dumped number must match byte for byte: the
// bytes are cache keys, job keys and stored records.
std::string ProbeLoopFormat(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double FromBits(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// Over 1M seeded values from every class where the two formats could part:
// random bit patterns (subnormals included), every power of two, 4-decimal
// inputs, full-precision values on both sides of %g's fixed/scientific
// switch, the 1e15 integer cut-off and -0.0.
std::vector<double> NumberFormatCorpus() {
  std::vector<double> values;
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 450000; ++i) values.push_back(FromBits(rng()));
  for (int i = 0; i < 50000; ++i) {  // subnormals: exponent field 0
    values.push_back(FromBits(rng() & 0x800FFFFFFFFFFFFFull));
  }
  for (int e = -1074; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
    values.push_back(-std::ldexp(1.0, e));
  }
  for (int i = 0; i < 300000; ++i) {  // what clients upload
    double scale = std::pow(10.0, static_cast<int>(rng() % 9) - 2);
    double v = std::round(unit(rng) * scale * 1e4) / 1e4;
    values.push_back(i % 2 ? -v : v);
  }
  for (double edge : {1e-5, 1e-4, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}) {
    for (int i = 0; i < 30000; ++i) {  // full precision in [edge/10, edge*10)
      double v = edge * std::pow(10.0, 2.0 * unit(rng) - 1.0);
      values.push_back(i % 2 ? -v : v);
    }
    double below = edge, above = edge;
    for (int i = 0; i < 200; ++i) {
      values.push_back(below = std::nextafter(below, 0.0));
      values.push_back(above = std::nextafter(above, 1e300));
    }
  }
  for (double v : {1e15 - 0.5, 1e15 + 0.5, 1e15 - 1.0, 1e15 + 1.0, 1e15}) {
    values.push_back(v);
    values.push_back(-v);
  }
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::denorm_min());
  return values;
}

TEST(JsonNumber, FormatMatchesTheProbeLoopByteForByte) {
  const std::vector<double> values = NumberFormatCorpus();
  ASSERT_GE(values.size(), 1000000u);
  size_t mismatches = 0;
  std::string out;
  for (double v : values) {
    out.clear();
    AppendJsonNumber(v, &out);
    const std::string want = ProbeLoopFormat(v);
    if (out != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << Bits(v) << ": got " << out
                    << ", the probe loop prints " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonNumber, DumpParsesBackBitForBit) {
  size_t mismatches = 0;
  for (double v : NumberFormatCorpus()) {
    if (std::isnan(v) || std::isinf(v)) continue;
    auto back = Json::Parse(Json(v).Dump());
    ASSERT_TRUE(back.ok()) << Json(v).Dump();
    // -0.0 dumps as the integer 0 and reads back as +0.0.
    const double want = v == 0.0 ? 0.0 : v;
    if (Bits(back->AsDouble()) != Bits(want) && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << Bits(v) << " dumped as "
                    << Json(v).Dump();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, NonFiniteDumpsAsNull) {
  std::string out;
  AppendJsonNumber(std::numeric_limits<double>::quiet_NaN(), &out);
  AppendJsonNumber(-std::numeric_limits<double>::infinity(), &out);
  EXPECT_EQ(out, "nullnull");
}

// Cache keys and the "auto-…" job keys hash this string, so it
// must not drift; a change here re-keys every cache and checkpoint.
TEST(JsonCanonicalKey, GoldenStringForMixedParams) {
  auto params = Json::Parse(
      R"({"values":[1.5,0.1,-2.25,1e-7,123456789.123,0.30000000000000004,)"
      R"(1e15,-0,1048576,0.0001234],"method":"theta","horizon":24,)"
      R"("level":0.95,"flag":true,"none":null,)"
      R"("nested":{"z":1,"a":"x\"y\n"}})");
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_EQ(serve::CanonicalKey("forecast", *params),
            "forecast\n"
            R"({"flag":true,"horizon":24,"level":0.95,"method":"theta",)"
            R"("nested":{"a":"x\"y\n","z":1},"none":null,)"
            R"("values":[1.5,0.1,-2.25,1e-07,123456789.123,)"
            R"(0.30000000000000004,1e+15,0,1048576,0.0001234]})");
}

// The canonical dump as it was written before Json serialized sorted
// objects itself: copy each object's key list, sort it, look every key up.
void OracleCanonicalDump(const Json& node, std::string* out) {
  switch (node.type()) {
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : node.items()) {
        if (!first) out->push_back(',');
        first = false;
        OracleCanonicalDump(item, out);
      }
      out->push_back(']');
      return;
    }
    case Json::Type::kObject: {
      std::vector<std::string> keys = node.keys();
      std::sort(keys.begin(), keys.end());
      out->push_back('{');
      bool first = true;
      for (const auto& key : keys) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(key, out);
        out->push_back(':');
        OracleCanonicalDump(node.Get(key), out);
      }
      out->push_back('}');
      return;
    }
    case Json::Type::kNumber:
      AppendJsonNumber(node.AsDouble(), out);
      return;
    case Json::Type::kString:
      AppendJsonString(node.AsString(), out);
      return;
    case Json::Type::kBool:
      *out += node.AsBool() ? "true" : "false";
      return;
    case Json::Type::kNull:
      *out += "null";
      return;
  }
}

// A random params tree: objects are filled in random key order, with
// overwritten and taken members, over keys that share prefixes, differ in
// case, need escaping or carry bytes above 0x7f.
Json RandomTree(std::mt19937_64& rng, int depth) {
  static const char* const kKeys[] = {
      "",      "a",     "A",     "aa",   "a b",    "b",       "horizon",
      "key10", "key9",  "method", "values", "\"q\"", "line\nbreak",
      "\xc3\xa9t\xc3\xa9", "~",  "_",     "z"};
  static const double kNumbers[] = {
      0.0, -0.0, 1.0, -2.25, 0.1, 1e-7, 1e15, 123456789.123, 24.0,
      0.30000000000000004, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), -1e300, 5e-324};
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  const size_t kind = depth >= 4 ? pick(4) : pick(6);
  switch (kind) {
    case 0: return Json();
    case 1: return Json(pick(2) == 1);
    case 2:
      return pick(3) == 0 ? Json(std::uniform_real_distribution<double>(
                                 -1e6, 1e6)(rng))
                          : Json(kNumbers[pick(std::size(kNumbers))]);
    case 3: return Json(std::string(kKeys[pick(std::size(kKeys))]));
    case 4: {
      Json arr = Json::Array();
      for (size_t i = pick(5); i > 0; --i) {
        arr.Append(RandomTree(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::Object();
      for (size_t i = pick(8); i > 0; --i) {
        const char* key = kKeys[pick(std::size(kKeys))];
        if (pick(6) == 0) {
          obj.Take(key);  // leaves null in place when present
        } else {
          obj.Set(key, RandomTree(rng, depth + 1));
        }
      }
      return obj;
    }
  }
}

TEST(JsonCanonicalKey, MatchesTheSortedKeyCopyOnRandomTrees) {
  std::mt19937_64 rng(20241019);
  for (int i = 0; i < 12000; ++i) {
    Json params = Json::Object();
    params.Set("dataset", "d" + std::to_string(i % 7));
    for (size_t n = rng() % 6; n > 0; --n) {
      params.Set("k" + std::to_string(rng() % 9), RandomTree(rng, 0));
    }
    params.Set(i % 2 ? "values" : "config", RandomTree(rng, 1));
    // Every third tree comes back through the parser, which builds objects
    // its own way.
    if (i % 3 == 0) {
      auto reparsed = Json::Parse(params.Dump());
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      params = std::move(*reparsed);
    }
    std::string want = "forecast\n";
    OracleCanonicalDump(params, &want);
    ASSERT_EQ(serve::CanonicalKey("forecast", params), want)
        << "tree " << i << ": " << params.Dump();
  }
}

TEST(JsonString, EscapedOnDump) {
  Json j(std::string("a\"b\nc"));
  EXPECT_EQ(j.Dump(), "\"a\\\"b\\nc\"");
}

// ---- Value semantics -------------------------------------------------------

TEST(JsonValue, MutatedCopyLeavesTheOriginalUnchanged) {
  auto original = Json::Parse(R"({"arr":[1,2],"obj":{"k":1},"s":"x"})");
  ASSERT_TRUE(original.ok());
  const std::string before = original->Dump();

  Json copy = *original;
  Json arr = copy.Take("arr");
  arr.Append(3);
  copy.Set("arr", std::move(arr));
  Json inner = copy.Get("obj");
  inner.Set("k", 2);
  inner.Set("new", true);
  copy.Set("obj", std::move(inner));
  copy.Set("s", "y");
  EXPECT_EQ(copy.Dump(), R"({"arr":[1,2,3],"obj":{"k":2,"new":true},"s":"y"})");
  EXPECT_EQ(original->Dump(), before);

  Json assigned = Json::Array();
  assigned = *original;  // copy assignment is deep too
  Json nested = assigned.Take("obj");
  nested.Set("k", 9);
  EXPECT_EQ(original->Dump(), before);
  EXPECT_EQ(assigned.Dump(), R"({"arr":[1,2],"obj":null,"s":"x"})");
}

TEST(JsonValue, SelfAssignmentKeepsTheValue) {
  auto doc = Json::Parse(R"({"a":[1,{"b":2}],"c":"d"})");
  ASSERT_TRUE(doc.ok());
  const std::string before = doc->Dump();
  Json& alias = *doc;
  *doc = alias;
  EXPECT_EQ(doc->Dump(), before);
  // Assigning a node its own subtree: the copy is taken before the old
  // storage is freed.
  *doc = doc->Get("a");
  EXPECT_EQ(doc->Dump(), R"([1,{"b":2}])");
  *doc = doc->items()[1];
  EXPECT_EQ(doc->Dump(), R"({"b":2})");
}

TEST(JsonValue, MovedFromNodeCanStillBeUsed) {
  auto doc = Json::Parse(R"({"values":[1,2,3],"name":"n"})");
  ASSERT_TRUE(doc.ok());
  Json moved = std::move(*doc);
  EXPECT_EQ(moved.Dump(), R"({"values":[1,2,3],"name":"n"})");
  // The moved-from node is empty but valid: it can be read, written and
  // assigned again.
  EXPECT_EQ(doc->size(), 0u);
  EXPECT_FALSE(doc->Has("values"));
  EXPECT_TRUE(doc->Get("values").is_null());
  doc->Set("k", 1);
  EXPECT_EQ(doc->GetInt("k", 0), 1);
  *doc = moved;
  EXPECT_EQ(doc->Dump(), moved.Dump());

  Json arr = Json::Array();
  arr.Append(1);
  Json taken = std::move(arr);
  arr.Append(2);
  EXPECT_EQ(arr.items().size(), 1u);
  EXPECT_EQ(taken.Dump(), "[1]");
}

TEST(JsonValue, SetAndAppendOnANullNodeKeepItNull) {
  // A default-constructed node stays null: Append and Set store the value,
  // which items()/Has/Get see, but size() and Dump() follow the type.
  Json appended;
  appended.Append(1);
  EXPECT_TRUE(appended.is_null());
  EXPECT_EQ(appended.size(), 0u);
  ASSERT_EQ(appended.items().size(), 1u);
  EXPECT_EQ(appended.items()[0].AsInt(), 1);
  EXPECT_EQ(appended.Dump(), "null");

  Json set;
  set.Set("k", 2);
  EXPECT_TRUE(set.is_null());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Has("k"));
  EXPECT_EQ(set.GetInt("k", 0), 2);
  EXPECT_EQ(set.keys(), (std::vector<std::string>{"k"}));
  EXPECT_EQ(set.Dump(), "null");
}

TEST(JsonValue, ScalarsHaveNoItemsOrMembers) {
  for (const Json& scalar :
       {Json(), Json(true), Json(2.5), Json("text"), Json::Array(),
        Json::Object()}) {
    EXPECT_TRUE(scalar.items().empty()) << scalar.Dump();
    EXPECT_TRUE(scalar.keys().empty()) << scalar.Dump();
    EXPECT_EQ(scalar.size(), 0u) << scalar.Dump();
    EXPECT_FALSE(scalar.Has("k")) << scalar.Dump();
    EXPECT_TRUE(scalar.Get("k").is_null()) << scalar.Dump();
    EXPECT_EQ(scalar.GetInt("k", 7), 7) << scalar.Dump();
  }
  Json number(4.0);
  EXPECT_TRUE(number.Take("k").is_null());
  EXPECT_EQ(number.Dump(), "4");
}

TEST(JsonValue, InsertionOrderIsKeptThroughParseCopyAndDump) {
  auto doc = Json::Parse(R"({"z":1,"a":2,"m":{"y":1,"b":2},"b":3})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->keys(), (std::vector<std::string>{"z", "a", "m", "b"}));
  Json copy = *doc;
  EXPECT_EQ(copy.Get("m").keys(), (std::vector<std::string>{"y", "b"}));
  EXPECT_EQ(copy.Dump(), R"({"z":1,"a":2,"m":{"y":1,"b":2},"b":3})");
  // A repeated key keeps its first position and takes the last value, as
  // Set does.
  auto repeated = Json::Parse(R"({"b":1,"a":2,"b":[3]})");
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->Dump(), R"({"b":[3],"a":2})");
}

TEST(JsonValue, TakeLeavesNullInPlace) {
  auto doc = Json::Parse(R"({"id":1,"result":{"v":[1,2]},"ok":true})");
  ASSERT_TRUE(doc.ok());
  Json result = doc->Take("result");
  EXPECT_EQ(result.Dump(), R"({"v":[1,2]})");
  EXPECT_TRUE(doc->Has("result"));
  EXPECT_EQ(doc->Dump(), R"({"id":1,"result":null,"ok":true})");
  doc->Set("result", std::move(result));  // back in its old position
  EXPECT_EQ(doc->Dump(), R"({"id":1,"result":{"v":[1,2]},"ok":true})");
  EXPECT_TRUE(doc->Take("absent").is_null());
  EXPECT_EQ(doc->keys().size(), 3u);
}

TEST(JsonValue, NumberNodeAllocatesNothing) {
  const size_t before = g_allocations;
  double sum = 0.0;
  {
    Json number(3.25);
    Json copy = number;
    Json moved = std::move(copy);
    moved = number;
    number = Json(int64_t{7});
    sum = moved.AsDouble() + number.AsDouble();
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(sum, 10.25);
}

// ---- Number parsing: identical to the strtod reader ---------------------------

// The number reader before from_chars, kept as the oracle the in-place reader
// must match bit for bit: the scanner's token handed to strtod, rejected
// unless strtod reads all of it, and rejected when it overflows to infinity.
std::optional<double> StrtodParseNumber(const std::string& token) {
  char* end = nullptr;
  double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  if (std::isinf(v)) return std::nullopt;
  return v;
}

// Over 1M seeded number tokens: upload-like 4-decimal values, full-precision
// and shortest forms of random doubles (subnormals included), tokens near the
// underflow and overflow edges (some with hundreds of mantissa digits),
// leading '+' and zeros, and random strings over the scanner's alphabet,
// which cover the malformed shapes.
std::vector<std::string> NumberTokenCorpus() {
  std::vector<std::string> tokens = {
      "+1", "+.5", "+-1", "++1", "-+1", "+", "+e1", ".5", "-.5", "1.", "-1.",
      "01", "-01", "00.5", "-0", "0", "-0.0", "1e", "1e+", "1e-", "1-2",
      "--1", "-", ".", "-.", "e1", "E1", ".e1", "1e5e3", "1e+5", "1E-5",
      "1e05", "1e-400", "-1e-400", "1e999", "-1e999", "+1e999", "+1e-400",
      "0e999999", "0.0e-99999", "1e-99999999999999999999",
      "1e99999999999999999999", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "4.9406564584124654e-324",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "17976931348623159e292",
      "0.000000000000000000001e-303", "1000000000000000000000e-345",
      "100000000000000000000e288"};
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  char buf[64];
  auto add_variants = [&](std::string t) {
    switch (rng() % 10) {
      case 0: tokens.push_back("+" + t); break;
      case 1: tokens.push_back(t[0] == '-' ? t : "00" + t); break;
      default: break;
    }
    tokens.push_back(std::move(t));
  };
  for (int i = 0; i < 300000; ++i) {  // what clients upload
    double v = unit(rng) * std::pow(10.0, static_cast<int>(rng() % 9) - 2);
    std::snprintf(buf, sizeof(buf), "%.4f", i % 2 ? -v : v);
    add_variants(buf);
  }
  for (int i = 0; i < 200000; ++i) {  // every exponent, subnormals included
    double v = FromBits(rng());
    if (!std::isfinite(v)) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add_variants(buf);
    char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    add_variants(std::string(buf, end));
  }
  for (int i = 0; i < 50000; ++i) {  // subnormals at every precision
    double v = FromBits(rng() & 0x800FFFFFFFFFFFFFull);
    std::snprintf(buf, sizeof(buf), "%.*g", static_cast<int>(rng() % 17) + 1,
                  v);
    add_variants(buf);
  }
  for (int i = 0; i < 100000; ++i) {  // around underflow and overflow
    std::string t = i % 3 ? "" : "-";
    const int digits = static_cast<int>(rng() % 20) + 1;
    const int point = static_cast<int>(rng() % (digits + 2)) - 1;
    if (i % 5 == 0) t += "0.0000";
    for (int d = 0; d < digits; ++d) {
      if (d == point) t += '.';
      t += static_cast<char>('0' + rng() % 10);
    }
    const int exp10 = i % 2 ? -(static_cast<int>(rng() % 110) + 290)
                            : static_cast<int>(rng() % 110) + 290;
    t += (rng() % 2 ? "e" : "E") + std::to_string(exp10);
    add_variants(std::move(t));
  }
  for (int i = 0; i < 20000; ++i) {  // the exponent's sign misleads
    // Long mantissas put the magnitude far from the exponent: "1000…e-50"
    // overflows and "0.000…1e50" underflows.
    std::string t = i % 2 ? "1" : "0.";
    t.append(rng() % 200 + 280, '0');
    if (i % 2 == 0) t += '1';
    t += std::to_string(static_cast<int>(rng() % 7) + 1);
    const int exp10 = static_cast<int>(rng() % 100);
    t += "e" + std::to_string(i % 2 ? -exp10 : exp10);
    add_variants(std::move(t));
  }
  static const char kAlphabet[] = "0123456789.eE+-";
  for (int i = 0; i < 200000; ++i) {  // malformed and odd shapes
    std::string t;
    const int len = static_cast<int>(rng() % 10) + 1;
    for (int c = 0; c < len; ++c) {
      // Digits half the time, so some of these are well-formed.
      t += rng() % 2 ? kAlphabet[rng() % 10] : kAlphabet[rng() % 15];
    }
    tokens.push_back(std::move(t));
  }
  return tokens;
}

TEST(JsonNumberParse, MatchesTheStrtodReaderBitForBit) {
  const std::vector<std::string> tokens = NumberTokenCorpus();
  ASSERT_GE(tokens.size(), 1000000u);
  size_t mismatches = 0, accepted = 0, rejected = 0;
  for (const std::string& token : tokens) {
    const std::optional<double> want = StrtodParseNumber(token);
    const Result<Json> got = Json::Parse(token);
    const bool same = want.has_value() == got.ok() &&
                      (!got.ok() || Bits(got->AsDouble()) == Bits(*want));
    (want ? accepted : rejected) += 1;
    if (!same && ++mismatches <= 10) {
      ADD_FAILURE() << "token \"" << token << "\": strtod "
                    << (want ? Json(*want).Dump() : "rejects") << ", got "
                    << (got.ok() ? Json(got->AsDouble()).Dump()
                                 : got.status().ToString());
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << tokens.size() << " tokens";
  // Both sides of the corpus are well populated.
  EXPECT_GT(accepted, 800000u);
  EXPECT_GT(rejected, 50000u);
}

TEST(JsonNumberParse, EdgeTokens) {
  auto value = [](const char* token) {
    auto j = Json::Parse(token);
    EXPECT_TRUE(j.ok()) << token;
    return j.ok() ? j->AsDouble() : std::nan("");
  };
  EXPECT_EQ(value("+1"), 1.0);
  EXPECT_EQ(value("+.5"), 0.5);
  EXPECT_EQ(value(".5"), 0.5);
  EXPECT_EQ(value("1."), 1.0);
  EXPECT_EQ(value("01"), 1.0);
  EXPECT_EQ(value("-1E+2"), -100.0);
  EXPECT_EQ(value("1e-310"), 1e-310) << "subnormal";
  EXPECT_EQ(Bits(value("1e-400")), Bits(0.0)) << "underflow";
  EXPECT_EQ(Bits(value("-1e-400")), Bits(-0.0)) << "underflow keeps the sign";
  EXPECT_EQ(Bits(value("-0")), Bits(-0.0));
  for (const char* bad : {"+-1", "--1", "-", ".", "1e", "1-2", "1e999",
                          "-1e999", "+", "e5"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
  EXPECT_EQ(Json::Parse("1e999").status().message(),
            "number out of range at offset 5");
  EXPECT_EQ(Json::Parse("[1,1-2]").status().message(),
            "invalid number at offset 6");
}

// strtod reads the decimal point from LC_NUMERIC, so under a comma-decimal
// locale it stopped at the '.' of every fractional number. The in-place
// reader ignores the locale.
TEST(JsonNumberParse, CommaDecimalLocaleStillReadsAPoint) {
  const char* current = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = current ? current : "C";
  bool found = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8",
                           "it_IT.UTF-8", "es_ES.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr &&
        std::localeconv()->decimal_point[0] == ',') {
      found = true;
      break;
    }
  }
  if (!found) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale is installed";
  }
  const double strtod_reads = std::strtod("1.5", nullptr);
  auto doc = Json::Parse(R"({"values":[1.5,-0.25,2.5e-3]})");
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(strtod_reads, 1.0) << "the locale is active: strtod stops at '.'";
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& values = doc->Get("values").items();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].AsDouble(), 1.5);
  EXPECT_EQ(values[1].AsDouble(), -0.25);
  EXPECT_EQ(values[2].AsDouble(), 2.5e-3);
}

TEST(JsonString, RunsBetweenEscapesAreKept) {
  auto j = Json::Parse(R"(["plain run", "a\\b\"cAd", "", "tail\n"])");
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->size(), 4u);
  EXPECT_EQ(j->items()[0].AsString(), "plain run");
  EXPECT_EQ(j->items()[1].AsString(), "a\\b\"cAd");
  EXPECT_EQ(j->items()[2].AsString(), "");
  EXPECT_EQ(j->items()[3].AsString(), "tail\n");
  EXPECT_FALSE(Json::Parse(R"("abc\)").ok());
  EXPECT_EQ(Json::Parse(R"("abc)").status().message(),
            "unterminated string at offset 4");
}

TEST(JsonParseRequest, ParamsAreMovedOutIntact) {
  const std::string line =
      R"({"id":3,"endpoint":"forecast","params":{"values":[1.5,2,-0.25],)"
      R"("method":"theta","horizon":4}})";
  auto req = serve::ParseRequest(line, 0);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, 3);
  EXPECT_EQ(req->endpoint, "forecast");
  EXPECT_EQ(req->params.Dump(),
            R"({"values":[1.5,2,-0.25],"method":"theta","horizon":4})");
  EXPECT_FALSE(
      serve::ParseRequest(R"({"endpoint":"forecast","params":[1]})", 0).ok());
  EXPECT_FALSE(
      serve::ParseRequest(R"({"endpoint":"forecast","params":null})", 0).ok());
  auto bare = serve::ParseRequest(R"({"endpoint":"health"})", 0);
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->params.is_object());
  EXPECT_EQ(bare->params.Dump(), "{}");
}

}  // namespace
}  // namespace easytime
