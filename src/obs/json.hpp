// Minimal JSON support for the telemetry exporters (obs/) — a writer with
// round-trip-exact doubles and a small recursive-descent parser, just enough
// to serialize and re-load the flat records this subsystem emits (JSON-Lines
// traces and metric snapshots). Not a general-purpose JSON library: no
// \uXXXX escapes beyond pass-through, no streaming, documents are expected
// to fit in memory.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sparta::obs::json {

/// Append `s` as a quoted JSON string (escaping ", \, and control chars).
void append_quoted(std::string& out, std::string_view s);

/// Append a double with enough digits to round-trip exactly (to_chars
/// shortest form); emits 0 for NaN/Inf, which JSON cannot represent.
void append_number(std::string& out, double v);

/// A parsed JSON value. Objects preserve insertion order.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  [[nodiscard]] Type type() const { return type_; }

  /// Accessors throw std::runtime_error on type mismatch.
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const std::vector<Value>& array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Object member lookup; throws std::runtime_error when absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Parse one JSON document; throws std::runtime_error on malformed input
  /// or trailing garbage.
  static Value parse(std::string_view text);

 private:
  struct Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

}  // namespace sparta::obs::json
