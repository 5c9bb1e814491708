// Minimal JSON document model: enough to emit the machine-readable run
// report and to parse it back (round-trip tested), with no external
// dependency. Objects preserve insertion order so emitted reports are
// byte-stable across runs.
//
// Output goes through one streaming pretty-printer, Writer: it owns the
// indentation, escaping and number rules. Value::serialize walks its tree
// through a Writer, and code that already holds its data (the bga_serve
// replies) writes the same bytes through one without building a tree.
//
// Numbers: integers are stored as int64/uint64 and serialized digit-exact
// (no double round-trip), so 64-bit counter values >= 2^53 survive; the
// parser takes the same integer fast path for literals without '.', 'e'
// or 'E'. Doubles remain for fractional values. Numeric equality is by
// value across representations (3 == 3.0), with integer/double mixes
// compared exactly — a uint64 that a double cannot represent never
// compares equal to one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace bgpatoms::report::json {

class Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t u) : data_(u) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const {
    return std::holds_alternative<double>(data_) ||
           std::holds_alternative<std::int64_t>(data_) ||
           std::holds_alternative<std::uint64_t>(data_);
  }
  /// True for values held exactly as 64-bit integers (digit-exact
  /// serialization; counters above 2^53 keep every digit).
  bool is_integer() const {
    return std::holds_alternative<std::int64_t>(data_) ||
           std::holds_alternative<std::uint64_t>(data_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  /// Numeric value as double (lossy above 2^53 for integers).
  double as_number() const;
  /// Exact unsigned value; requires a non-negative integer value.
  std::uint64_t as_uint64() const;
  /// Exact signed value; requires an integer value representable in int64.
  std::int64_t as_int64() const;
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }

  /// Object field lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Pretty-printed serialization (2-space indent). Non-finite numbers
  /// serialize as null — JSON has no NaN/Infinity.
  std::string serialize() const;

  /// Strict recursive-descent parse of one JSON document; throws
  /// std::runtime_error (with byte offset) on malformed input, trailing
  /// garbage, or containers nested deeper than kMaxParseDepth.
  static Value parse(std::string_view text);
  static constexpr int kMaxParseDepth = 64;

  /// Structural equality; numbers compare by value across the three
  /// numeric representations, exactly (no double rounding of integers).
  friend bool operator==(const Value& a, const Value& b);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      data_;
};

/// Streaming pretty-printer (2-space indent, ": " after keys, one element
/// per line, "{}"/"[]" for empty containers) appending to a caller-owned
/// string. Calls must nest: every begin_*() has its end_*(), and each
/// object member is key() followed by exactly one value.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k);

  void null();
  void value(bool b);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  /// Shortest of %.15g / %.17g that round-trips; non-finite as null.
  void value(double d);
  void value(std::string_view s);
  /// Without this overload a string literal would convert to bool.
  void value(const char* s) { value(std::string_view(s)); }

  /// key(k) followed by value(v).
  template <typename T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// A string value rendered in place: `render(std::string&)` appends the
  /// text between the quotes, and that text must need no escaping (the
  /// caller's digits, dots, colons and brackets).
  template <typename Render>
  void rendered_string(Render&& render) {
    before_value();
    out_ += '"';
    render(out_);
    out_ += '"';
  }

 private:
  void before_value();
  void next_line();
  void open(char bracket);
  void close(char bracket);

  std::string& out_;
  int depth_ = 0;
  bool empty_ = true;       // the open container has no element yet
  bool after_key_ = false;  // the next value completes an object member
};

}  // namespace bgpatoms::report::json
