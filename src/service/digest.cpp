#include "service/digest.h"

#include <stdexcept>

#include "scenario/serialize.h"
#include "support/json.h"

namespace sgl::service {
namespace {

/// The stable name of a resolved engine (matches the text format's
/// `engine` values; auto_select is resolved before naming).
std::string_view engine_name(scenario::engine_kind kind) {
  using scenario::engine_kind;
  switch (kind) {
    case engine_kind::infinite: return "infinite";
    case engine_kind::aggregate: return "aggregate";
    case engine_kind::agent_based: return "agent_based";
    case engine_kind::grouped: return "grouped";
    case engine_kind::protocol: return "protocol";
    case engine_kind::auto_select: break;  // resolved away by the caller
  }
  throw std::logic_error{"digest: unresolved engine kind"};
}

}  // namespace

std::string digest128::hex() const {
  static constexpr char k_digits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = k_digits[(hi >> (4 * i)) & 0xF];
    out[31 - i] = k_digits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

digest128 fnv1a_128(std::string_view bytes) noexcept {
  // FNV-1a, 128-bit parameters (prime 2^88 + 2^8 + 0x3b).
  unsigned __int128 hash = (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
                           0x62b821756295c58dULL;
  const unsigned __int128 prime =
      (static_cast<unsigned __int128>(0x0000000001000000ULL) << 64) | 0x000000000000013bULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= prime;
  }
  return {static_cast<std::uint64_t>(hash >> 64), static_cast<std::uint64_t>(hash)};
}

std::vector<std::pair<std::string, std::string>> digest_fields(
    const scenario::scenario_spec& spec) {
  if (spec.prebuilt_graph != nullptr) {
    throw std::invalid_argument{
        "spec_digest: the spec carries a prebuilt_graph, a runtime-only handle "
        "the canonical form cannot capture — build from a topology spec instead"};
  }
  const scenario::engine_kind resolved = scenario::resolved_engine(spec);
  const auto quoted = [](std::string_view name) {
    std::string out = "\"";
    out += name;
    out += '"';
    return out;
  };
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("engine", quoted(engine_name(resolved)));
  for (auto& [key, value] : scenario::scenario_fields(spec)) {
    if (key == "name" || key == "description" || key == "engine") {
      continue;  // handled above / semantically inert
    }
    fields.emplace_back(std::move(key), std::move(value));
  }
  return fields;
}

std::string digest_input(const scenario::scenario_spec& spec,
                         const core::run_config& config,
                         std::span<const std::string> probe_specs) {
  std::string out = "sociolearn-result v1\n";
  out += "streams = \"";
  out += k_stream_derivation_id;
  out += "\"\n";
  for (const auto& [key, value] : digest_fields(spec)) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  out += "run.horizon = " + std::to_string(config.horizon) + '\n';
  out += "run.replications = " + std::to_string(config.replications) + '\n';
  out += "run.seed = " + std::to_string(config.seed) + '\n';
  out += "probes = [";
  bool first = true;
  for (const std::string& probe : resolved_probes(spec, probe_specs)) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(probe) + '"';
  }
  out += "]\n";
  return out;
}

digest128 spec_digest(const scenario::scenario_spec& spec, const core::run_config& config,
                      std::span<const std::string> probe_specs) {
  return fnv1a_128(digest_input(spec, config, probe_specs));
}

}  // namespace sgl::service
