#pragma once

/// \file json_parse.h
/// A small recursive-descent JSON reader — the inbound half of support/json
/// (json.h is write-only).  The service wire protocol (src/service/) speaks
/// newline-delimited JSON, so the daemon needs to *parse* arbitrary request
/// documents: nested objects, arrays, every escape json_escape can emit.
/// It is the program's only JSON reader: quoted strings and arrays in the
/// scenario text format and each line of a JSONL trace are read with it too.
///
/// Its number lexer is the program's only number reader (parse_json_number
/// and parse_json_integer below read every number the program reads).
///
/// Numbers keep their raw token alongside the converted double, so 64-bit
/// integers (seeds, job ids) round-trip exactly through as_uint64/as_int64
/// instead of losing precision past 2^53.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgl {

/// One parsed JSON value.  A plain tagged struct rather than a class
/// hierarchy: requests are small, and the accessors below give call sites
/// the "must be a string" / "must be an integer" checks with a useful
/// message.
struct json_value {
  enum class kind { null, boolean, number, string, array, object };

  kind type = kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string payload, or the raw number token
  std::vector<json_value> items;  ///< array elements
  std::vector<std::pair<std::string, json_value>> members;  ///< object, in order

  [[nodiscard]] bool is_null() const noexcept { return type == kind::null; }
  [[nodiscard]] bool is_object() const noexcept { return type == kind::object; }
  [[nodiscard]] bool is_array() const noexcept { return type == kind::array; }
  [[nodiscard]] bool is_string() const noexcept { return type == kind::string; }
  [[nodiscard]] bool is_number() const noexcept { return type == kind::number; }

  /// Object member by key; nullptr when absent (or not an object).  The
  /// LAST member wins when a document repeats a key — the convention of
  /// mainstream parsers, so a hostile client cannot make this parser act
  /// on a different value than a conventional reader of the same bytes
  /// (`members` still holds every duplicate, in document order, for
  /// callers that care).
  [[nodiscard]] const json_value* find(std::string_view key) const noexcept;

  /// Checked accessors: throw std::invalid_argument naming `what` (the
  /// request field being read) when the value has the wrong type or, for
  /// the integer forms, is not an exact integer in range.
  [[nodiscard]] const std::string& as_string(std::string_view what) const;
  [[nodiscard]] double as_double(std::string_view what) const;
  [[nodiscard]] std::int64_t as_int64(std::string_view what) const;
  [[nodiscard]] std::uint64_t as_uint64(std::string_view what) const;
  [[nodiscard]] bool as_bool(std::string_view what) const;

  /// The number as T under parse_json_integer's rule; nullopt if it is not.
  template <typename T>
  [[nodiscard]] std::optional<T> integer() const noexcept;
};

/// Parses one complete JSON document.  Throws std::invalid_argument with
/// the byte offset on malformed input, trailing garbage, or nesting deeper
/// than 64 levels.
[[nodiscard]] json_value parse_json(std::string_view text);

/// The whole of `token` as one JSON number, correctly rounded; nullopt for
/// anything else (`0x10`, `+1`, `.5`, `1.`, `01`, `nan`, `inf`, whitespace)
/// or a number past double range (`1e999`).
[[nodiscard]] std::optional<double> parse_json_number(std::string_view token) noexcept;

/// The one exact-integer rule: `token`, a JSON number, as the standard
/// integer type T when a plain decimal is exact in T's range, or a token with
/// a fraction or exponent (`1e5`, `2.0`) is integral, at most 2^53 in
/// magnitude and in T's range.  nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parse_json_integer(std::string_view token) noexcept;

}  // namespace sgl
