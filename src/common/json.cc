#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

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

bool Json::Has(const std::string& key) const {
  return obj_.find(key) != obj_.end();
}

const Json& Json::Get(const std::string& key) const {
  static const Json kNullNode;
  auto it = obj_.find(key);
  return it == obj_.end() ? kNullNode : it->second;
}

void Json::Set(const std::string& key, Json v) {
  if (obj_.find(key) == obj_.end()) keys_.push_back(key);
  obj_[key] = std::move(v);
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

void Json::DumpTo(std::string* out, int indent, int depth) const {
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
      *out += '[';
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i) *out += ',';
        newline(depth + 1);
        arr_[i].DumpTo(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline(depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (i) *out += ',';
        newline(depth + 1);
        AppendJsonString(keys_[i], out);
        *out += indent > 0 ? ": " : ":";
        obj_.at(keys_[i]).DumpTo(out, indent, depth + 1);
      }
      if (!keys_.empty()) newline(depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    SkipWhitespace();
    EASYTIME_ASSIGN_OR_RETURN(Json v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        EASYTIME_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return Json(true);
        }
        return Err("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return Json(false);
        }
        return Err("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return Json(nullptr);
        }
        return Err("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("invalid number");
    std::string num = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Err("invalid number");
    // Overflow comes back as +-inf, which no JSON number denotes (and which
    // would dump as null); underflow to 0 or a subnormal is accepted.
    if (std::isinf(v)) return Err("number out of range");
    return Json(v);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("bad \\u escape digit");
            }
            // UTF-8 encode (BMP only; surrogate pairs not combined).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      EASYTIME_ASSIGN_OR_RETURN(Json v, ParseValue());
      arr.Append(std::move(v));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    Consume('{');
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      EASYTIME_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':'");
      SkipWhitespace();
      EASYTIME_ASSIGN_OR_RETURN(Json v, ParseValue());
      obj.Set(key, std::move(v));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace easytime
