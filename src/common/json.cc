#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

namespace {

void EscapeString(const std::string& s, std::string* out) {
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

std::string FormatNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest representation that round-trips exactly: most values fit in 12
  // significant digits (keeping output identical to the historical format);
  // the rest widen until strtod gives the same bits back, so persisted
  // metrics reload without drift (DESIGN.md §9).
  char buf[64];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

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
    case Type::kNumber: *out += FormatNumber(num_); break;
    case Type::kString: EscapeString(str_, out); break;
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
        EscapeString(keys_[i], out);
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
