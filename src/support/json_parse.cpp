#include "support/json_parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sgl {
namespace {

constexpr std::size_t k_max_depth = 64;

/// Advances `pos` past a run of digits; whether there was one.
bool skip_digits(std::string_view text, std::size_t& pos) noexcept {
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  return pos > start;
}

/// Advances `pos` past the JSON number that starts there.  Returns what is
/// wrong with a malformed one (`pos` at the fault), nullptr otherwise.
const char* scan_number(std::string_view text, std::size_t& pos) noexcept {
  if (pos < text.size() && text[pos] == '-') ++pos;
  const std::size_t first = pos;
  if (!skip_digits(text, pos)) return "expected a value";
  if (text[first] == '0' && pos - first > 1) return "numbers may not have leading zeros";
  if (pos < text.size() && text[pos] == '.' && !skip_digits(text, ++pos)) {
    return "digits must follow the decimal point";
  }
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    ++pos;
    if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
    if (!skip_digits(text, pos)) return "digits must follow the exponent";
  }
  return nullptr;
}

/// The whole of `token` as T by std::from_chars (a double correctly
/// rounded); nullopt when it does not parse whole or lies past T's range.
template <typename T>
std::optional<T> from_whole(std::string_view token) noexcept {
  T out{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

/// Whether a scanned number token has neither a fraction nor an exponent.
bool is_plain(std::string_view token) noexcept {
  return std::ranges::none_of(token, [](char c) { return c == '.' || c == 'e' || c == 'E'; });
}

/// The exact-integer rule on a scanned token whose double is `value` (read
/// only when the token is not plain).
template <typename T>
std::optional<T> exact_integer(std::string_view token, double value) noexcept {
  if (is_plain(token)) {
    if (token == "-0") return T{0};  // from_chars refuses a sign for unsigned T
    return from_whole<T>(token);
  }
  if (value != std::floor(value) || std::abs(value) > 0x1p53) return std::nullopt;
  const auto exact = static_cast<std::int64_t>(value);
  if (!std::in_range<T>(exact)) return std::nullopt;
  return static_cast<T>(exact);
}

class parser {
 public:
  explicit parser(std::string_view text) : text_{text} {}

  json_value run() {
    json_value value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after the JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument{"JSON parse error at offset " + std::to_string(pos_) +
                                ": " + what};
  }

  void skip_whitespace() {
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

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char expected) {
    if (!consume(expected)) {
      fail(std::string{"expected '"} + expected + "'");
    }
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("expected '" + std::string{word} + "'");
    }
    pos_ += word.size();
  }

  json_value parse_value(std::size_t depth) {
    if (depth > k_max_depth) fail("nesting deeper than 64 levels");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        json_value value;
        value.type = json_value::kind::string;
        value.text = parse_string();
        return value;
      }
      case 't': {
        expect_word("true");
        json_value value;
        value.type = json_value::kind::boolean;
        value.boolean = true;
        return value;
      }
      case 'f': {
        expect_word("false");
        json_value value;
        value.type = json_value::kind::boolean;
        value.boolean = false;
        return value;
      }
      case 'n': {
        expect_word("null");
        return json_value{};
      }
      default: return parse_number();
    }
  }

  json_value parse_object(std::size_t depth) {
    expect('{');
    json_value value;
    value.type = json_value::kind::object;
    skip_whitespace();
    if (consume('}')) return value;
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (consume(',')) continue;
      expect('}');
      return value;
    }
  }

  json_value parse_array(std::size_t depth) {
    expect('[');
    json_value value;
    value.type = json_value::kind::array;
    skip_whitespace();
    if (consume(']')) return value;
    while (true) {
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (consume(',')) continue;
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain characters up to the next quote or escape.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (pos_ >= text_.size()) fail("dangling escape");
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int digit = 0; digit < 4; ++digit) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // Surrogate pair: the low half must follow as another \uXXXX.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
        fail("high surrogate without a following \\u low surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  json_value parse_number() {
    const std::size_t start = pos_;
    if (const char* error = scan_number(text_, pos_)) fail(error);
    json_value value;
    value.type = json_value::kind::number;
    value.text = std::string{text_.substr(start, pos_ - start)};
    const std::optional<double> number = from_whole<double>(value.text);
    if (!number) fail("number past double range");
    value.number = *number;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_fail(std::string_view what, const char* expected) {
  throw std::invalid_argument{std::string{what} + ": expected " + expected};
}

}  // namespace

const json_value* json_value::find(std::string_view key) const noexcept {
  if (type != kind::object) return nullptr;
  // Last key wins on duplicates — the usual JSON-parser convention
  // (RFC 8259 leaves it open), and the safer one on an untrusted wire:
  // what this parser acts on is what a conventional reader would see, so
  // a client can't smuggle one value past validation and have a different
  // one take effect.
  const json_value* found = nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) found = &value;
  }
  return found;
}

const std::string& json_value::as_string(std::string_view what) const {
  if (type != kind::string) type_fail(what, "a string");
  return text;
}

double json_value::as_double(std::string_view what) const {
  if (type != kind::number) type_fail(what, "a number");
  return number;
}

template <typename T>
std::optional<T> json_value::integer() const noexcept {
  if (type != kind::number) return std::nullopt;
  return exact_integer<T>(text, number);
}

std::int64_t json_value::as_int64(std::string_view what) const {
  if (const std::optional<std::int64_t> exact = integer<std::int64_t>()) return *exact;
  type_fail(what, "an integer");
}

std::uint64_t json_value::as_uint64(std::string_view what) const {
  if (const std::optional<std::uint64_t> exact = integer<std::uint64_t>()) return *exact;
  type_fail(what, "a non-negative integer");
}

bool json_value::as_bool(std::string_view what) const {
  if (type != kind::boolean) type_fail(what, "a boolean");
  return boolean;
}

json_value parse_json(std::string_view text) { return parser{text}.run(); }

std::optional<double> parse_json_number(std::string_view token) noexcept {
  std::size_t end = 0;
  if (scan_number(token, end) || end != token.size()) return std::nullopt;
  return from_whole<double>(token);
}

template <typename T>
std::optional<T> parse_json_integer(std::string_view token) noexcept {
  std::size_t end = 0;
  if (scan_number(token, end) || end != token.size()) return std::nullopt;
  if (is_plain(token)) return exact_integer<T>(token, 0.0);
  const std::optional<double> value = from_whole<double>(token);
  return value ? exact_integer<T>(token, *value) : std::nullopt;
}

// Every standard integer type, so that each fixed-width alias is one of them.
#define SGL_JSON_INTEGER(T)                                            \
  template std::optional<T> json_value::integer<T>() const noexcept; \
  template std::optional<T> parse_json_integer<T>(std::string_view) noexcept;
SGL_JSON_INTEGER(int)
SGL_JSON_INTEGER(unsigned)
SGL_JSON_INTEGER(long)
SGL_JSON_INTEGER(unsigned long)
SGL_JSON_INTEGER(long long)
SGL_JSON_INTEGER(unsigned long long)

}  // namespace sgl
