#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bgpatoms::report::json {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

// Digit-exact integer rendering: counters can exceed 2^53, where the
// double path would silently round.
template <typename Int>
void append_integer(std::string& out, Int i) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, i);
  (void)ec;  // 24 bytes always fit a 64-bit integer
  out.append(buf, ptr);
}

void write_value(const Value& v, Writer& w) {
  if (v.is_null()) {
    w.null();
  } else if (v.is_bool()) {
    w.value(v.as_bool());
  } else if (v.is_integer()) {
    if (v.as_number() < 0) {
      w.value(v.as_int64());
    } else {
      w.value(v.as_uint64());
    }
  } else if (v.is_number()) {
    w.value(v.as_number());
  } else if (v.is_string()) {
    w.value(std::string_view(v.as_string()));
  } else if (v.is_array()) {
    w.begin_array();
    for (const Value& e : v.as_array()) write_value(e, w);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [k, e] : v.as_object()) {
      w.key(k);
      write_value(e, w);
    }
    w.end_object();
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // One recursion level per container: cap it so hostile input
        // fails as a parse error instead of overflowing the stack.
        if (depth_ == Value::kMaxParseDepth) fail("nesting too deep");
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the code point (no surrogate-pair handling:
          // the reports we emit never escape above U+00FF).
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
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool fractional = false;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '.' || c == 'e' || c == 'E') fractional = true;
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    if (!fractional) {
      // Integer fast path: digit-exact for the full 64-bit range, so
      // counter values >= 2^53 round-trip. Out-of-range literals fall
      // through to the double path below.
      if (*begin == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc() && ptr == end) return Value(value);
        if (ec != std::errc::result_out_of_range) fail("bad number");
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc() && ptr == end) return Value(value);
        if (ec != std::errc::result_out_of_range) fail("bad number");
      }
    }
    double value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) fail("bad number");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

}  // namespace

double Value::as_number() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_))
    return static_cast<double>(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&data_))
    return static_cast<double>(*u);
  return std::get<double>(data_);
}

std::uint64_t Value::as_uint64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&data_))
    return static_cast<std::uint64_t>(*i);
  return static_cast<std::uint64_t>(std::get<double>(data_));
}

std::int64_t Value::as_int64() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&data_))
    return static_cast<std::int64_t>(*u);
  return static_cast<std::int64_t>(std::get<double>(data_));
}

bool operator==(const Value& a, const Value& b) {
  if (a.data_.index() == b.data_.index()) return a.data_ == b.data_;
  // Different alternatives can only be equal as numbers.
  if (!a.is_number() || !b.is_number()) return false;
  if (a.is_integer() && b.is_integer()) {
    // One int64, one uint64: equal iff the signed side is non-negative
    // and the magnitudes match.
    const Value& s = std::holds_alternative<std::int64_t>(a.data_) ? a : b;
    const Value& u = (&s == &a) ? b : a;
    const std::int64_t sv = std::get<std::int64_t>(s.data_);
    if (sv < 0) return false;
    return static_cast<std::uint64_t>(sv) == std::get<std::uint64_t>(u.data_);
  }
  // Integer vs double: compare as long double, whose 64-bit mantissa on
  // x86-64 represents every 64-bit integer exactly — no false equality
  // for values a double cannot hold.
  const Value& i = a.is_integer() ? a : b;
  const Value& d = (&i == &a) ? b : a;
  const long double dv =
      static_cast<long double>(std::get<double>(d.data_));
  if (const auto* s = std::get_if<std::int64_t>(&i.data_))
    return static_cast<long double>(*s) == dv;
  return static_cast<long double>(std::get<std::uint64_t>(i.data_)) == dv;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::serialize() const {
  std::string out;
  Writer w(out);
  write_value(*this, w);
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// Layout: a container's first element opens a new line, later ones
// follow ",\n", each at its depth's indent; a non-empty container closes
// on its own line, an empty one right after its opening bracket.
void Writer::next_line() {
  out_ += empty_ ? "\n" : ",\n";
  empty_ = false;
  out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
}

void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    next_line();
  }
}

void Writer::open(char bracket) {
  before_value();
  out_ += bracket;
  ++depth_;
  empty_ = true;
}

void Writer::close(char bracket) {
  --depth_;
  if (!empty_) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
  }
  out_ += bracket;
  empty_ = false;  // the enclosing container now holds this one
}

void Writer::key(std::string_view k) {
  next_line();
  append_escaped(out_, k);
  out_ += ": ";
  after_key_ = true;
}

void Writer::null() {
  before_value();
  out_ += "null";
}

void Writer::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}

void Writer::value(std::int64_t i) {
  before_value();
  append_integer(out_, i);
}

void Writer::value(std::uint64_t u) {
  before_value();
  append_integer(out_, u);
}

void Writer::value(double d) {
  before_value();
  if (!std::isfinite(d)) {
    out_ += "null";
    return;
  }
  // %.17g round-trips every double; prefer the shortest representation
  // that still parses back to the same value.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", d);
  double back = 0;
  std::sscanf(buf, "%lf", &back);
  if (back != d) std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
}

void Writer::value(std::string_view s) {
  before_value();
  append_escaped(out_, s);
}

}  // namespace bgpatoms::report::json
