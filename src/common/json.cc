#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace easytime {

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json::Json(const Json& other)
    : type_(other.type_),
      bool_(other.bool_),
      num_(other.num_),
      str_(other.str_),
      box_(other.box_ ? std::make_unique<Box>(*other.box_) : nullptr) {}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

bool Json::Has(const std::string& key) const {
  return box_ && box_->obj.find(key) != box_->obj.end();
}

const Json& Json::Get(const std::string& key) const {
  static const Json kNullNode;
  if (!box_) return kNullNode;
  auto it = box_->obj.find(key);
  return it == box_->obj.end() ? kNullNode : it->second;
}

void Json::Set(const std::string& key, Json v) {
  Box& box = MutableBox();
  auto [it, inserted] = box.obj.try_emplace(key);
  if (inserted) box.keys.push_back(key);
  it->second = std::move(v);
}

Json Json::Take(const std::string& key) {
  if (!box_) return Json();
  auto it = box_->obj.find(key);
  if (it == box_->obj.end()) return Json();
  Json out = std::move(it->second);
  it->second = Json();
  return out;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsDouble() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsInt() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json& v = Get(key);
  return v.is_bool() ? v.AsBool() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json& v = Get(key);
  return v.is_string() ? v.AsString() : fallback;
}

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

namespace {

// The historical format: the first of %.12g … %.17g that strtod reads back
// as v. Kept for the two kinds of double whose shortest round-trip digits
// can differ from what this loop prints: exact powers of two, whose rounding
// interval is lopsided (the gap below is half the gap above), and
// subnormals, which can hold fewer bits than 12 digits resolve, so %.12g
// rounds them to digits the shortest form does not have.
void AppendNumberByProbe(double v, std::string* out) {
  char buf[64];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  *out += buf;
}

}  // namespace

void AppendJsonNumber(double v, std::string* out) {
  if (std::isnan(v) || std::isinf(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char* end = std::to_chars(buf, buf + sizeof(buf),
                              static_cast<long long>(v)).ptr;
    out->append(buf, end);
    return;
  }
  int exp2 = 0;
  if (std::fabs(v) < std::numeric_limits<double>::min() ||
      std::fabs(std::frexp(v, &exp2)) == 0.5) {
    AppendNumberByProbe(v, out);
    return;
  }
  // Shortest digits that round-trip exactly, laid out as %.Pg would with
  // P = max(12, digit count): the first precision from 12 up that strtod
  // reads back as v is P, and %.Pg prints those digits. So the bytes are the
  // historical format's (most values fit in 12 significant digits), and
  // persisted metrics reload without drift (DESIGN.md §9).
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific)
          .ptr;
  const bool negative = buf[0] == '-';
  const char* e = std::find(buf, end, 'e');
  char digits[20];
  int num_digits = 0;
  for (const char* p = buf + negative; p < e; ++p) {
    if (*p != '.') digits[num_digits++] = *p;
  }
  int exp10 = 0;
  std::from_chars(e + (e[1] == '+' ? 2 : 1), end, exp10);
  if (exp10 < -4 || exp10 >= std::max(12, num_digits)) {
    // %g's scientific branch with trailing zeros dropped: to_chars already
    // prints it that way, two-digit exponent included.
    out->append(buf, end);
    return;
  }
  if (negative) *out += '-';
  if (exp10 < 0) {
    *out += "0.";
    out->append(static_cast<size_t>(-exp10 - 1), '0');
    out->append(digits, static_cast<size_t>(num_digits));
    return;
  }
  // num_digits >= int_digits: fixed layout needs exp10 < max(12, num_digits),
  // and an exp10 from num_digits to 11 would make v an integer below 1e12,
  // which took the integer branch above.
  const int int_digits = exp10 + 1;
  out->append(digits, static_cast<size_t>(int_digits));
  if (num_digits > int_digits) {
    *out += '.';
    out->append(digits + int_digits,
                static_cast<size_t>(num_digits - int_digits));
  }
}

void Json::DumpTo(std::string* out, int indent, int depth,
                  bool sorted) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      *out += '\n';
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: AppendJsonNumber(num_, out); break;
    case Type::kString: AppendJsonString(str_, out); break;
    case Type::kArray: {
      const std::vector<Json>& arr = items();
      *out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) *out += ',';
        newline(depth + 1);
        arr[i].DumpTo(out, indent, depth + 1, sorted);
      }
      if (!arr.empty()) newline(depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      bool first = true;
      auto member = [&](const std::string& key, const Json& value) {
        if (!first) *out += ',';
        first = false;
        newline(depth + 1);
        AppendJsonString(key, out);
        *out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1, sorted);
      };
      if (sorted && box_) {
        for (const auto& [key, value] : box_->obj) member(key, value);
      } else {
        for (const std::string& key : keys()) member(key, box_->obj.at(key));
      }
      if (!first) newline(depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0, /*sorted=*/false);
  return out;
}

void Json::AppendCanonical(std::string* out) const {
  DumpTo(out, 0, 0, /*sorted=*/true);
}

namespace {

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

// For a decimal token from_chars found out of range: whether it is too
// small (underflow) rather than too large. Out of range means a magnitude
// below 10^-323 or above 10^308, so the sign of the leading significant
// digit's power of ten, exponent included, tells the two apart.
bool Underflows(const char* p, const char* end) {
  if (*p == '-') ++p;
  const char* int_end = p;
  while (int_end < end && *int_end >= '0' && *int_end <= '9') ++int_end;
  int64_t lead = -1;  // an all-zero mantissa reads 0, which is in range
  const char* d = p;
  while (d < int_end && *d == '0') ++d;
  if (d < int_end) {
    lead = int_end - d - 1;
  } else if (int_end < end && *int_end == '.') {
    for (d = int_end + 1; d < end && *d >= '0' && *d <= '9'; ++d) {
      if (*d != '0') {
        lead = int_end - d;
        break;
      }
    }
  }
  const char* e = std::find_if(p, end, [](char c) { return c == 'e' || c == 'E'; });
  int64_t exp10 = 0;
  if (e < end) {
    ++e;
    const bool negative = *e == '-';
    if (*e == '-' || *e == '+') ++e;
    for (; e < end; ++e) {  // saturate: the token length bounds `lead`
      exp10 = std::min<int64_t>(exp10 * 10 + (*e - '0'), int64_t{1} << 40);
    }
    if (negative) exp10 = -exp10;
  }
  return lead + exp10 < 0;
}

}  // namespace

// Parses straight into the destination node: a number is read from the text
// in place, and an array element or object member is built where it lives,
// so no node is moved through a return value.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()) {}

  Status Parse(Json* out) {
    SkipWhitespace();
    if (!ParseValue(out)) return error_;
    SkipWhitespace();
    if (p_ != end_) {
      Fail("trailing characters after JSON document");
      return error_;
    }
    return Status::OK();
  }

 private:
  bool Fail(const char* msg) {
    error_ = Status::ParseError(std::string(msg) + " at offset " +
                                std::to_string(p_ - begin_));
    return false;
  }

  void SkipWhitespace() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool Literal(const char* word, size_t len) {
    if (static_cast<size_t>(end_ - p_) < len ||
        std::memcmp(p_, word, len) != 0) {
      return Fail("invalid literal");
    }
    p_ += len;
    return true;
  }

  bool ParseValue(Json* out) {
    if (p_ >= end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type_ = Json::Type::kString;
        return ParseString(&out->str_);
      case 't':
        out->type_ = Json::Type::kBool;
        out->bool_ = true;
        return Literal("true", 4);
      case 'f':
        out->type_ = Json::Type::kBool;
        return Literal("false", 5);
      case 'n':
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  // Accepts exactly what strtod accepts over the same token in the C
  // locale, whatever LC_NUMERIC is: a leading '+', ".5", "1." and "01"
  // pass; underflow reads as a signed zero; overflow is rejected, since no
  // JSON number denotes infinity (and it would dump as null).
  bool ParseNumber(Json* out) {
    const char* start = p_;
    while (p_ < end_ && IsNumberChar(*p_)) ++p_;
    if (p_ == start) return Fail("invalid number");
    const char* first = start;
    if (*first == '+') {
      ++first;  // from_chars takes no '+', and a second sign is invalid
      if (first < p_ && *first == '-') return Fail("invalid number");
    }
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(first, p_, v);
    if (ptr != p_ || ec == std::errc::invalid_argument) {
      return Fail("invalid number");
    }
    if (ec == std::errc::result_out_of_range) {
      if (!Underflows(first, p_)) return Fail("number out of range");
      v = *first == '-' ? -0.0 : 0.0;
    }
    out->type_ = Json::Type::kNumber;
    out->num_ = v;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    while (p_ < end_) {
      const char* run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out->append(run, p_);
      if (p_ == end_) break;
      if (*p_++ == '"') return true;
      if (p_ >= end_) return Fail("bad escape");
      char e = *p_++;
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape digit");
          }
          // UTF-8 encode (BMP only; surrogate pairs not combined).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(Json* out) {
    ++p_;  // '['
    out->type_ = Json::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return true;
    std::vector<Json>& arr = out->MutableBox().arr;
    while (true) {
      SkipWhitespace();
      if (!ParseValue(&arr.emplace_back())) return false;
      SkipWhitespace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out) {
    ++p_;  // '{'
    out->type_ = Json::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return true;
    Json::Box& box = out->MutableBox();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWhitespace();
      auto [it, inserted] = box.obj.try_emplace(std::move(key));
      if (inserted) {
        box.keys.push_back(it->first);
      } else {
        it->second = Json();  // a repeated key: the last value wins
      }
      if (!ParseValue(&it->second)) return false;
      SkipWhitespace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  Status error_;
};

Result<Json> Json::Parse(const std::string& text) {
  Json doc;
  Status status = JsonParser(text).Parse(&doc);
  if (!status.ok()) return status;
  return doc;
}

}  // namespace easytime
