#include "support/json_parse.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace sgl {
namespace {

constexpr std::size_t k_max_depth = 64;

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
    if (consume('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("expected a value");
    }
    const bool leading_zero = text_[pos_] == '0';
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (leading_zero && pos_ - start > (text_[start] == '-' ? 2U : 1U)) {
      fail("numbers may not have leading zeros");
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits must follow the decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits must follow the exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    json_value value;
    value.type = json_value::kind::number;
    value.text = std::string{text_.substr(start, pos_ - start)};
    const char* begin = value.text.data();
    const char* end = begin + value.text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value.number);
    if (ec != std::errc{} || ptr != end) fail("unparseable number");
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

std::int64_t json_value::as_int64(std::string_view what) const {
  if (type != kind::number) type_fail(what, "an integer");
  // Reparse the raw token so values past 2^53 stay exact.
  std::int64_t exact = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, exact);
  if (ec == std::errc{} && ptr == end) return exact;
  if (number != std::floor(number) || std::abs(number) > 9.007199254740992e15) {
    type_fail(what, "an integer");
  }
  return static_cast<std::int64_t>(number);
}

std::uint64_t json_value::as_uint64(std::string_view what) const {
  if (type != kind::number) type_fail(what, "a non-negative integer");
  std::uint64_t exact = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, exact);
  if (ec == std::errc{} && ptr == end) return exact;
  if (number < 0.0 || number != std::floor(number) || number > 9.007199254740992e15) {
    type_fail(what, "a non-negative integer");
  }
  return static_cast<std::uint64_t>(number);
}

bool json_value::as_bool(std::string_view what) const {
  if (type != kind::boolean) type_fail(what, "a boolean");
  return boolean;
}

json_value parse_json(std::string_view text) { return parser{text}.run(); }

}  // namespace sgl
