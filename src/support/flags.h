#pragma once

/// \file flags.h
/// A small command-line flag parser for the tools (sociolearn_cli, sociolearnd).
/// Supports `--name value`, `--name=value`, bare boolean `--name`,
/// repeatable list flags, opt-in positional arguments, and `--help`.
/// Unknown flags are an error (with a nearest-name suggestion) so typos
/// never silently fall back to defaults.  A number is a JSON number token.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/text.h"  // edit_distance / closest_name for suggestions

namespace sgl {

enum class parse_status {
  ok,          ///< Parsed; run the program.
  help,        ///< --help was requested; usage already printed.
  error,       ///< Bad input; message already printed to stderr.
};

class flag_set {
 public:
  flag_set(std::string program_name, std::string description);

  /// Registers a flag.  Names must be unique and non-empty (no leading "--").
  void add_int64(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  void add_bool(const std::string& name, bool default_value, const std::string& help);
  void add_string(const std::string& name, std::string default_value, const std::string& help);
  /// A repeatable flag: every `--name value` occurrence appends to the list.
  void add_string_list(const std::string& name, const std::string& help);

  /// Accepts bare (non-`--`) arguments, collected in order by positional();
  /// without this call a positional argument is a parse error.
  void allow_positional(std::string help);

  /// Parses argv.  Returns parse_status; on `error` / `help` the caller
  /// should exit.
  [[nodiscard]] parse_status parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int64(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& get_string_list(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The registered flag name closest to `name` by edit distance, or ""
  /// when nothing is close enough to be a plausible typo.
  [[nodiscard]] std::string closest_flag(const std::string& name) const;

  /// Prints usage to stdout.
  void print_usage() const;

 private:
  using value =
      std::variant<std::int64_t, double, bool, std::string, std::vector<std::string>>;

  struct entry {
    value current;
    value default_value;
    std::string help;
  };

  void add(const std::string& name, value default_value, const std::string& help);
  [[nodiscard]] const entry& find(const std::string& name) const;
  [[nodiscard]] bool assign(entry& e, const std::string& text);

  std::string program_name_;
  std::string description_;
  std::map<std::string, entry> entries_;
  std::string positional_help_;  // empty: positional arguments are an error
  std::vector<std::string> positional_;
};

}  // namespace sgl
