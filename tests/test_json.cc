#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "serve/request.h"

namespace easytime {
namespace {

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

// Cache keys, router keys and the "auto-…" job keys hash this string, so it
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

TEST(JsonString, EscapedOnDump) {
  Json j(std::string("a\"b\nc"));
  EXPECT_EQ(j.Dump(), "\"a\\\"b\\nc\"");
}

}  // namespace
}  // namespace easytime
