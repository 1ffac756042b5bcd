#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

TEST(JsonString, EscapedOnDump) {
  Json j(std::string("a\"b\nc"));
  EXPECT_EQ(j.Dump(), "\"a\\\"b\\nc\"");
}

}  // namespace
}  // namespace easytime
