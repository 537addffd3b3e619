// Dependency-free JSON document model, writer, and parser.
//
// Small by design: the bench reports need objects/arrays/strings/numbers/
// bools/null, stable key order (insertion order, so diffs are meaningful),
// round-trip-exact 64-bit integers, and nothing else. A number built from an
// int64/uint64, or parsed from an integer literal that fits one, keeps its
// exact value next to the double; below 2^53 the two agree, so those print
// exactly as a double would. The parser accepts strict RFC 8259 JSON; it
// exists so tools and tests can read reports back, not to be a
// general-purpose library.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hlsrg {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}                // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}          // NOLINT
  JsonValue(int i) : JsonValue(static_cast<double>(i)) {}            // NOLINT
  JsonValue(std::int64_t i)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)),
        int_(IntKind::kSigned), bits_(static_cast<std::uint64_t>(i)) {}
  JsonValue(std::uint64_t u)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(u)),
        int_(IntKind::kUnsigned), bits_(u) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : JsonValue(std::string(s)) {}  // NOLINT

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  // Typed reads; defaults returned on type mismatch so report consumers can
  // be written without a null-check per field.
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  [[nodiscard]] std::uint64_t as_uint64(std::uint64_t fallback = 0) const {
    if (int_ == IntKind::kUnsigned) return bits_;
    if (int_ == IntKind::kSigned) {
      return static_cast<std::int64_t>(bits_) >= 0 ? bits_ : fallback;
    }
    return is_number() && number_ >= 0.0
               ? static_cast<std::uint64_t>(number_)
               : fallback;
  }
  [[nodiscard]] int as_int(int fallback = 0) const {
    return is_number() ? static_cast<int>(number_) : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }

  // --- array ---------------------------------------------------------------
  void push_back(JsonValue v) {
    type_ = Type::kArray;
    items_.push_back(std::move(v));
  }
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  [[nodiscard]] std::size_t size() const {
    return is_object() ? members_.size() : items_.size();
  }

  // --- object --------------------------------------------------------------
  // Sets `key` (replacing an existing value, preserving its position).
  void set(const std::string& key, JsonValue v);
  // Member lookup; returns a shared null sentinel when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const {
    return members_;
  }

  // Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // Strict parse of a complete JSON document. On failure returns nullopt and
  // fills *error with "offset N: reason" when `error` is non-null.
  [[nodiscard]] static std::optional<JsonValue> parse(const std::string& text,
                                                      std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  // Whether a number also holds an exact integer in bits_ (two's complement
  // for kSigned); kNone for doubles.
  enum class IntKind : std::uint8_t { kNone, kSigned, kUnsigned };

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  IntKind int_ = IntKind::kNone;
  std::uint64_t bits_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Writes `v.dump(2)` plus a trailing newline to `path`; false + *error on
// I/O failure.
bool write_json_file(const JsonValue& v, const std::string& path,
                     std::string* error = nullptr);

// Reads and parses `path`; nullopt + *error on I/O or parse failure.
[[nodiscard]] std::optional<JsonValue> read_json_file(const std::string& path,
                                                      std::string* error = nullptr);

}  // namespace hlsrg
