#include "support/flags.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "support/json_parse.h"  // parse_json_number / parse_json_integer

namespace sgl {
namespace {

using flag_value =
    std::variant<std::int64_t, double, bool, std::string, std::vector<std::string>>;

const char* type_name(const flag_value& v) {
  switch (v.index()) {
    case 0: return "int";
    case 1: return "float";
    case 2: return "bool";
    case 3: return "string";
    default: return "list";
  }
}

std::string value_to_string(const flag_value& v) {
  switch (v.index()) {
    case 0: return std::to_string(std::get<std::int64_t>(v));
    case 1: {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%g", std::get<double>(v));
      return buffer;
    }
    case 2: return std::get<bool>(v) ? "true" : "false";
    case 3: return std::get<std::string>(v);
    default: {
      const auto& items = std::get<std::vector<std::string>>(v);
      return items.empty() ? "empty, repeatable"
                           : std::accumulate(std::next(items.begin()), items.end(),
                                             items.front(),
                                             [](std::string acc, const std::string& s) {
                                               return std::move(acc) + "," + s;
                                             });
    }
  }
}

/// Stores a parsed number; false when the text was not one of the flag's type.
template <typename T>
bool store(flag_value& current, const std::optional<T>& parsed) {
  if (parsed) current = *parsed;
  return parsed.has_value();
}

}  // namespace

flag_set::flag_set(std::string program_name, std::string description)
    : program_name_{std::move(program_name)}, description_{std::move(description)} {}

void flag_set::add(const std::string& name, value default_value, const std::string& help) {
  if (name.empty() || name.starts_with("-")) {
    throw std::invalid_argument{"flag_set: bad flag name '" + name + "'"};
  }
  const auto [it, inserted] =
      entries_.emplace(name, entry{default_value, default_value, help});
  if (!inserted) throw std::invalid_argument{"flag_set: duplicate flag '" + name + "'"};
}

void flag_set::add_int64(const std::string& name, std::int64_t default_value,
                         const std::string& help) {
  add(name, default_value, help);
}
void flag_set::add_double(const std::string& name, double default_value,
                          const std::string& help) {
  add(name, default_value, help);
}
void flag_set::add_bool(const std::string& name, bool default_value, const std::string& help) {
  add(name, default_value, help);
}
void flag_set::add_string(const std::string& name, std::string default_value,
                          const std::string& help) {
  add(name, std::move(default_value), help);
}
void flag_set::add_string_list(const std::string& name, const std::string& help) {
  add(name, std::vector<std::string>{}, help);
}

const flag_set::entry& flag_set::find(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument{"flag_set: unregistered flag '" + name + "'"};
  }
  return it->second;
}

std::int64_t flag_set::get_int64(const std::string& name) const {
  return std::get<std::int64_t>(find(name).current);
}
double flag_set::get_double(const std::string& name) const {
  const auto& v = find(name).current;
  if (std::holds_alternative<std::int64_t>(v)) {
    return static_cast<double>(std::get<std::int64_t>(v));
  }
  return std::get<double>(v);
}
bool flag_set::get_bool(const std::string& name) const {
  return std::get<bool>(find(name).current);
}
const std::string& flag_set::get_string(const std::string& name) const {
  return std::get<std::string>(find(name).current);
}
const std::vector<std::string>& flag_set::get_string_list(const std::string& name) const {
  return std::get<std::vector<std::string>>(find(name).current);
}

std::string flag_set::closest_flag(const std::string& name) const {
  std::vector<std::string_view> known;
  known.reserve(entries_.size());
  for (const auto& [flag, e] : entries_) known.push_back(flag);
  return closest_name(name, known);
}

bool flag_set::assign(entry& e, const std::string& text) {
  switch (e.current.index()) {
    case 0: return store(e.current, parse_json_integer<std::int64_t>(text));
    case 1: return store(e.current, parse_json_number(text));
    case 2: {
      if (text == "true" || text == "1" || text == "yes") {
        e.current = true;
        return true;
      }
      if (text == "false" || text == "0" || text == "no") {
        e.current = false;
        return true;
      }
      return false;
    }
    case 3:
      e.current = text;
      return true;
    default:
      std::get<std::vector<std::string>>(e.current).push_back(text);
      return true;
  }
}

void flag_set::allow_positional(std::string help) { positional_help_ = std::move(help); }

parse_status flag_set::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return parse_status::help;
    }
    if (!arg.starts_with("--")) {
      if (!positional_help_.empty()) {
        positional_.push_back(std::move(arg));
        continue;
      }
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n", program_name_.c_str(),
                   arg.c_str());
      return parse_status::error;
    }
    arg.erase(0, 2);
    std::string text;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      text = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    const auto it = entries_.find(arg);
    if (it == entries_.end()) {
      const std::string suggestion = closest_flag(arg);
      if (suggestion.empty()) {
        std::fprintf(stderr, "%s: unknown flag '--%s' (try --help)\n",
                     program_name_.c_str(), arg.c_str());
      } else {
        std::fprintf(stderr, "%s: unknown flag '--%s' (did you mean '--%s'? try --help)\n",
                     program_name_.c_str(), arg.c_str(), suggestion.c_str());
      }
      return parse_status::error;
    }
    entry& e = it->second;
    if (!has_value) {
      if (std::holds_alternative<bool>(e.current)) {
        e.current = true;  // bare boolean flag
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '--%s' expects a value\n", program_name_.c_str(),
                     arg.c_str());
        return parse_status::error;
      }
      text = argv[++i];
    }
    if (!assign(e, text)) {
      std::fprintf(stderr, "%s: bad %s value '%s' for flag '--%s'\n", program_name_.c_str(),
                   type_name(e.current), text.c_str(), arg.c_str());
      return parse_status::error;
    }
  }
  return parse_status::ok;
}

void flag_set::print_usage() const {
  std::printf("%s — %s\n\n", program_name_.c_str(), description_.c_str());
  if (!positional_help_.empty()) std::printf("arguments: %s\n\n", positional_help_.c_str());
  std::printf("flags:\n");
  for (const auto& [name, e] : entries_) {
    std::printf("  --%-18s %-7s %s (default: %s)\n", name.c_str(), type_name(e.default_value),
                e.help.c_str(), value_to_string(e.default_value).c_str());
  }
}

}  // namespace sgl
