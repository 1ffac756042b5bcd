#pragma once

/// \file json.h
/// \brief A small JSON value type + parser + serializer. It is the wire
/// format of every serve request and reply, the body of every stored record
/// and checkpoint, the pipeline configuration file the user edits, and the
/// Q&A module's structured chart outputs.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace easytime {

/// \brief A JSON document node (null / bool / number / string / array /
/// object). Objects preserve insertion order of keys.
///
/// Array and object storage sits behind one pointer that the first Append
/// or Set allocates, so a scalar node allocates nothing and moves as a few
/// words (requests carry hundreds of numbers). Copies are deep.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}                 // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}               // NOLINT
  Json(double n) : type_(Type::kNumber), num_(n) {}            // NOLINT
  Json(int n) : type_(Type::kNumber), num_(n) {}               // NOLINT
  Json(int64_t n)                                              // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}       // NOLINT

  Json(const Json& other);
  Json(Json&& other) noexcept;
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json();

  /// Creates an empty array node.
  static Json Array();
  /// Creates an empty object node.
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return num_; }
  /// Truncates toward zero, saturating at the int64 range (the plain cast is
  /// undefined outside it); NaN reads as 0.
  int64_t AsInt() const {
    constexpr double kTwo63 = 9223372036854775808.0;
    if (num_ >= kTwo63) return std::numeric_limits<int64_t>::max();
    if (num_ < -kTwo63) return std::numeric_limits<int64_t>::min();
    return num_ == num_ ? static_cast<int64_t>(num_) : 0;
  }
  const std::string& AsString() const { return str_; }

  /// Array access.
  const std::vector<Json>& items() const;
  void Append(Json v);
  size_t size() const {
    return is_array() ? items().size() : (is_object() ? keys().size() : 0);
  }

  /// Object access: ordered keys.
  const std::vector<std::string>& keys() const;
  bool Has(const std::string& key) const;
  /// Returns the member or a shared null node when absent.
  const Json& Get(const std::string& key) const;
  /// Inserts or overwrites a member.
  void Set(const std::string& key, Json v);
  /// Moves the member out and leaves null in its place (the key keeps its
  /// position); null when absent. Keeps a subtree of a document that is
  /// about to be dropped or re-dumped without a deep copy.
  Json Take(const std::string& key);

  /// Typed getters with defaults — the idiom for reading config files.
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Serializes; \p indent > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  /// \brief Appends the compact dump with every object's keys in sorted
  /// order, so documents that differ only in key order or whitespace
  /// serialize alike (the canonical form request keys are built from).
  void AppendCanonical(std::string* out) const;

  /// Parses a JSON document (strict; trailing garbage is an error).
  static Result<Json> Parse(const std::string& text);

 private:
  friend class JsonParser;
  struct Box;

  Box& MutableBox();
  /// \p sorted walks each object's members in key order (the map's),
  /// otherwise in insertion order.
  void DumpTo(std::string* out, int indent, int depth, bool sorted) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::unique_ptr<Box> box_;  ///< array and object storage; null until used
};

struct Json::Box {
  std::vector<Json> arr;
  std::vector<std::string> keys;  ///< object keys in insertion order
  std::map<std::string, Json> obj;
};

inline Json::Json(Json&& other) noexcept = default;
inline Json& Json::operator=(Json&& other) noexcept = default;
inline Json::~Json() = default;

inline const std::vector<Json>& Json::items() const {
  static const std::vector<Json> kNoItems;
  return box_ ? box_->arr : kNoItems;
}

inline const std::vector<std::string>& Json::keys() const {
  static const std::vector<std::string> kNoKeys;
  return box_ ? box_->keys : kNoKeys;
}

inline Json::Box& Json::MutableBox() {
  if (!box_) box_ = std::make_unique<Box>();
  return *box_;
}

inline void Json::Append(Json v) { MutableBox().arr.push_back(std::move(v)); }

/// \brief Appends \p v as Json(v).Dump() would: integers below 1e15 without
/// a decimal point, NaN and infinities as null, anything else in %g form at
/// the lowest precision from 12 up that reads back as exactly \p v.
void AppendJsonNumber(double v, std::string* out);

/// Appends \p s as a quoted, escaped JSON string, as Json(s).Dump() would.
void AppendJsonString(const std::string& s, std::string* out);

}  // namespace easytime
