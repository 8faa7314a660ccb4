#include "scenario/registry.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/serialize.h"

namespace sgl::scenario {
namespace {

/// One scenarios/*.scn file: its stem and its text.
struct catalog_file {
  std::string_view stem;
  std::string_view text;
};

/// The scenarios/*.scn files in file-name order, embedded by CMakeLists.txt.
constexpr catalog_file k_catalog_files[] = {
#include "scenario_catalog.inc"
};

/// Parses one catalog file.  Its `name` key must equal its stem, so the
/// file listing and the spec names cannot drift apart.  A file that breaks
/// either rule is a defect of the build, not of the caller's input.
scenario_spec parse_file(const catalog_file& file) {
  const std::string where = "scenarios/" + std::string{file.stem} + ".scn: ";
  scenario_spec spec;
  try {
    spec = parse_scenario(file.text);
  } catch (const std::invalid_argument& error) {
    throw std::logic_error{where + error.what()};
  }
  if (spec.name != file.stem) {
    throw std::logic_error{where + "name \"" + spec.name + "\" differs from the file stem"};
  }
  return spec;
}

}  // namespace

std::span<const scenario_spec> all_scenarios() {
  static const std::vector<scenario_spec> catalog = [] {
    std::vector<scenario_spec> specs;
    for (const catalog_file& file : k_catalog_files) specs.push_back(parse_file(file));
    return specs;
  }();
  return catalog;
}

scenario_spec get_scenario(std::string_view name) {
  for (const catalog_file& file : k_catalog_files) {
    if (file.stem == name) return parse_file(file);
  }
  std::string message{"unknown scenario '"};
  message += name;
  message += "'; known:";
  for (const catalog_file& file : k_catalog_files) {
    message += ' ';
    message += file.stem;
  }
  throw std::invalid_argument{message};
}

}  // namespace sgl::scenario
