#include "scenario/scenario.h"

#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/aggregate_dynamics.h"
#include "core/finite_dynamics.h"
#include "core/infinite_dynamics.h"
#include "protocol/protocol_engine.h"
#include "scenario/serialize.h"
#include "scenario/sweep.h"
#include "support/field_error.h"
#include "support/rng.h"

namespace sgl::scenario {
namespace {

/// rows × cols == n, tested by division so that no product can wrap.
bool lattice_fits(std::size_t rows, std::size_t cols, std::size_t n) {
  return rows != 0 && n % rows == 0 && n / rows == cols;
}

/// rows × cols for lattice families: taken from the spec, or the most
/// square factorization of N when unset.  topology_build_error has checked
/// that a set shape fits N and that N >= 1.
std::pair<std::size_t, std::size_t> lattice_shape(const topology_spec& spec,
                                                  std::size_t num_agents) {
  if (spec.rows != 0 || spec.cols != 0) return {spec.rows, spec.cols};
  auto rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(num_agents)));
  while (rows > 1 && num_agents % rows != 0) --rows;
  return {rows, num_agents / rows};
}

/// The cache key: N and the `topology.*` fields as a run reads them
/// (read_fields writes those the family does not read at their defaults),
/// in the canonical text, which round-trips every double exactly.
std::string topology_cache_key(const topology_spec& topology, std::size_t num_agents) {
  scenario_spec spec;
  spec.topology = topology;
  std::string key = std::to_string(num_agents);
  for (const auto& [field, value] : read_fields(spec)) {
    if (field.starts_with("topology.")) key += ' ' + value;
  }
  return key;
}

struct topology_cache_state {
  std::mutex mutex;
  struct entry {
    std::string key;
    std::shared_ptr<const graph::graph> graph;
  };
  std::deque<entry> entries;  // MRU at the front, capacity k_capacity
  topology_cache_stats stats;
  static constexpr std::size_t k_capacity = 3;
};

topology_cache_state& topology_cache() {
  static topology_cache_state cache;
  return cache;
}

netsim::fault_action::kind to_netsim_kind(fault_action_spec::action_kind kind) {
  switch (kind) {
    case fault_action_spec::action_kind::partition:
      return netsim::fault_action::kind::partition;
    case fault_action_spec::action_kind::crash_wave:
      return netsim::fault_action::kind::crash_wave;
    case fault_action_spec::action_kind::restart_wave:
      return netsim::fault_action::kind::restart_wave;
    case fault_action_spec::action_kind::degrade:
      return netsim::fault_action::kind::degrade;
  }
  throw std::invalid_argument{"faults: unknown action kind"};
}

netsim::link_class to_netsim_class(fault_action_spec::link_class_kind kind) {
  switch (kind) {
    case fault_action_spec::link_class_kind::all: return netsim::link_class::all;
    case fault_action_spec::link_class_kind::intra: return netsim::link_class::intra;
    case fault_action_spec::link_class_kind::cross: return netsim::link_class::cross;
    case fault_action_spec::link_class_kind::nodes: return netsim::link_class::nodes;
  }
  throw std::invalid_argument{"faults: unknown link class"};
}

/// The spec's fault schedule as netsim actions, its round-denominated
/// times multiplied by `seconds_per_round`; everything else passes through.
/// Throws field_error (`N.targets`) on an id beyond netsim's 32-bit range.
netsim::fault_schedule to_netsim_faults(const scenario_spec& spec, double seconds_per_round) {
  netsim::fault_schedule faults;
  faults.actions.reserve(spec.faults.actions.size());
  for (std::size_t i = 0; i < spec.faults.actions.size(); ++i) {
    const fault_action_spec& action = spec.faults.actions[i];
    netsim::fault_action out;
    out.which = to_netsim_kind(action.kind);
    out.at = action.at * seconds_per_round;
    out.until = action.until < 0.0 ? -1.0 : action.until * seconds_per_round;
    out.targets.reserve(action.targets.size());
    for (const std::uint64_t id : action.targets) {
      if (id > std::numeric_limits<netsim::node_id>::max()) {
        throw field_error{std::to_string(i) + ".targets",
                          "id " + std::to_string(id) + " exceeds the 32-bit node-id range"};
      }
      out.targets.push_back(static_cast<netsim::node_id>(id));
    }
    out.fraction = action.fraction;
    out.degrade_class = to_netsim_class(action.link_class);
    out.link.base_latency = action.base_latency;
    out.link.jitter_mean = action.jitter_mean;
    out.link.drop_probability = action.drop_probability;
    faults.actions.push_back(std::move(out));
  }
  return faults;
}

/// The protocol engine's configuration: the spec's params and protocol
/// knobs as they are, its fault times scaled from rounds to seconds.
protocol::engine_config to_engine_config(const scenario_spec& spec) {
  return {.dynamics = spec.params,
          .protocol = spec.protocol,
          .faults = to_netsim_faults(spec, spec.protocol.round_interval),
          .record_trace = spec.faults.record,
          .trace_capacity = static_cast<std::size_t>(spec.faults.record_capacity)};
}

}  // namespace

std::shared_ptr<const graph::graph> shared_topology(const topology_spec& spec,
                                                    std::size_t num_agents) {
  const std::string key = topology_cache_key(spec, num_agents);
  auto& cache = topology_cache();
  {
    const std::scoped_lock lock{cache.mutex};
    for (std::size_t i = 0; i < cache.entries.size(); ++i) {
      if (cache.entries[i].key != key) continue;
      ++cache.stats.hits;
      if (i != 0) {
        auto entry = std::move(cache.entries[i]);
        cache.entries.erase(cache.entries.begin() + static_cast<std::ptrdiff_t>(i));
        cache.entries.push_front(std::move(entry));
      }
      return cache.entries.front().graph;
    }
    ++cache.stats.misses;
  }
  // Build outside the lock: concurrent misses may build twice, but never
  // block each other behind a multi-second generation.
  auto built = std::make_shared<const graph::graph>(build_topology(spec, num_agents));
  {
    const std::scoped_lock lock{cache.mutex};
    cache.entries.push_front({key, built});
    while (cache.entries.size() > topology_cache_state::k_capacity) {
      cache.entries.pop_back();
    }
  }
  return built;
}

topology_cache_stats shared_topology_stats() noexcept {
  auto& cache = topology_cache();
  const std::scoped_lock lock{cache.mutex};
  return cache.stats;
}

engine_kind resolved_engine(const scenario_spec& spec) noexcept {
  if (spec.engine != engine_kind::auto_select) return spec.engine;
  if (!spec.groups.empty()) return engine_kind::grouped;
  if (spec.topology.family != topology_spec::family_kind::none ||
      !spec.agent_rules.empty()) {
    return engine_kind::agent_based;
  }
  if (spec.num_agents == 0) return engine_kind::infinite;
  return engine_kind::aggregate;
}

std::string topology_build_error(const topology_spec& spec, std::size_t num_agents) {
  using family = topology_spec::family_kind;
  if (spec.family == family::none) return "topology.family is none (nothing to build)";
  if (num_agents == 0) return "a topology needs num_agents >= 1";
  switch (spec.family) {
    case family::none:
      break;  // handled above
    case family::complete:
    case family::ring:
    case family::star:
      break;
    case family::grid:
    case family::torus:
      if ((spec.rows != 0 || spec.cols != 0) && !lattice_fits(spec.rows, spec.cols, num_agents)) {
        return "topology.rows * topology.cols != num_agents";
      }
      break;
    case family::erdos_renyi:
      if (!(spec.edge_probability >= 0.0 && spec.edge_probability <= 1.0)) {
        return "topology.edge_probability outside [0, 1]";
      }
      break;
    case family::watts_strogatz:
      if (num_agents < 3) return "watts_strogatz needs num_agents >= 3";
      if (spec.degree == 0 || 2 * spec.degree >= num_agents) {
        return "watts_strogatz needs 0 < 2 * topology.degree < num_agents";
      }
      if (!(spec.rewire_probability >= 0.0 && spec.rewire_probability <= 1.0)) {
        return "topology.rewire_probability outside [0, 1]";
      }
      break;
    case family::barabasi_albert:
      if (spec.degree == 0) return "barabasi_albert needs topology.degree >= 1";
      if (num_agents <= spec.degree) {
        return "barabasi_albert needs num_agents > topology.degree";
      }
      break;
    case family::two_cliques:
      if (num_agents % 2 != 0) return "two_cliques needs even num_agents";
      if (num_agents / 2 < 2) return "two_cliques needs num_agents >= 4";
      if (spec.bridges == 0 || spec.bridges > num_agents / 2) {
        return "topology.bridges must be in [1, num_agents / 2]";
      }
      break;
  }
  return {};
}

graph::graph build_topology(const topology_spec& spec, std::size_t num_agents) {
  if (std::string error = topology_build_error(spec, num_agents); !error.empty()) {
    throw std::invalid_argument{std::move(error)};
  }
  using family = topology_spec::family_kind;
  rng gen{spec.seed};
  switch (spec.family) {
    case family::none:
      break;  // refused above
    case family::complete:
      return graph::graph::complete(num_agents);
    case family::ring:
      return graph::graph::ring(num_agents);
    case family::grid: {
      const auto [rows, cols] = lattice_shape(spec, num_agents);
      return graph::graph::grid(rows, cols, /*wrap=*/false);
    }
    case family::torus: {
      const auto [rows, cols] = lattice_shape(spec, num_agents);
      return graph::graph::grid(rows, cols, /*wrap=*/true);
    }
    case family::star:
      return graph::graph::star(num_agents);
    case family::erdos_renyi:
      return graph::graph::erdos_renyi(num_agents, spec.edge_probability, gen);
    case family::watts_strogatz:
      return graph::graph::watts_strogatz(num_agents, spec.degree,
                                          spec.rewire_probability, gen);
    case family::barabasi_albert:
      return graph::graph::barabasi_albert(num_agents, spec.degree, gen);
    case family::two_cliques:
      return graph::graph::two_cliques(num_agents / 2, spec.bridges);
  }
  throw std::invalid_argument{"build_topology: unknown family"};
}

core::env_factory make_environment(const environment_spec& spec) {
  using family = environment_spec::family_kind;
  switch (spec.family) {
    case family::bernoulli:
      return [etas = spec.etas] { return std::make_unique<env::bernoulli_rewards>(etas); };
    case family::exclusive:
      return [p = spec.etas] { return std::make_unique<env::exclusive_rewards>(p); };
    case family::switching:
      return [base = spec.etas, period = spec.period] {
        return std::make_unique<env::switching_rewards>(base, period);
      };
    case family::drifting:
      return [start = spec.etas, end = spec.end_etas, horizon = spec.horizon] {
        return std::make_unique<env::drifting_rewards>(start, end, horizon);
      };
  }
  throw std::invalid_argument{"make_environment: unknown family"};
}

core::engine_factory make_engine(const scenario_spec& spec) {
  validate_spec(spec);
  // Built once for every engine: validate_spec has refused a topology on an
  // engine that does not read it.
  std::shared_ptr<const graph::graph> topology = spec.prebuilt_graph;
  if (topology == nullptr && spec.topology.family != topology_spec::family_kind::none) {
    topology = shared_topology(spec.topology, static_cast<std::size_t>(spec.num_agents));
  }
  switch (resolved_engine(spec)) {
    case engine_kind::infinite:
      return core::make_infinite_engine_factory(spec.params, spec.start);
    case engine_kind::aggregate:
      return core::make_finite_engine_factory(spec.params, spec.num_agents);
    case engine_kind::agent_based:
      return [params = spec.params, num_agents = spec.num_agents, topology,
              rules = spec.agent_rules] {
        return std::make_unique<core::finite_dynamics>(
            params, static_cast<std::size_t>(num_agents), topology, rules);
      };
    case engine_kind::grouped:
      return [params = spec.params, groups = spec.groups] {
        return std::make_unique<core::aggregate_dynamics>(params, groups);
      };
    case engine_kind::protocol:
      return [config = to_engine_config(spec), num_agents = spec.num_agents,
              topology] {
        return std::make_unique<protocol::protocol_engine>(
            config, static_cast<std::size_t>(num_agents), topology);
      };
    case engine_kind::auto_select:
      break;  // unreachable: resolve() never returns auto_select
  }
  throw std::invalid_argument{"make_engine: unknown engine kind"};
}

void validate_spec(const scenario_spec& spec) {
  const auto where = [&spec](const char* what) {
    std::string message{"scenario"};
    if (!spec.name.empty()) {
      message += " '";
      message += spec.name;
      message += "'";
    }
    message += ": ";
    message += what;
    return message;
  };
  // Range rules are the owning layers' own checks, each throwing a
  // field_error that names its field below the key family; this is the one
  // place that rekeys one as `family.field`.
  const auto keyed = [&where](const char* family, const auto& check) {
    try {
      check();
    } catch (const field_error& error) {
      throw std::invalid_argument{where(family) + error.field() + ": " + error.what()};
    }
  };
  keyed("params.", [&] { spec.params.validate(); });
  const std::size_t m = spec.params.num_options;
  if (spec.environment.etas.size() != m) {
    throw std::invalid_argument{
        where("environment.etas has ") + std::to_string(spec.environment.etas.size()) +
        " entries but params.num_options = " + std::to_string(m) + " (they must match)"};
  }
  if (!spec.start.empty() && spec.start.size() != m) {
    throw std::invalid_argument{
        where("start has ") + std::to_string(spec.start.size()) +
        " entries but params.num_options = " + std::to_string(m) + " (they must match)"};
  }

  // A key the resolved engine does not read would be silently dropped, and
  // the run would not be what the spec claims.
  const engine_kind kind = resolved_engine(spec);
  if (const std::string stranded = stranded_key_error(spec, kind); !stranded.empty()) {
    throw std::invalid_argument{where(stranded.c_str())};
  }

  // Everything the factories would reject is rejected here (make_engine
  // starts with this call), so "validate_spec passes" means the run cannot
  // die later inside a graph/engine/environment constructor (the contract
  // validate_spec_error and the property-test generator build on).
  const bool networked = spec.topology.family != topology_spec::family_kind::none;
  if (networked && spec.prebuilt_graph == nullptr) {
    const std::string error =
        topology_build_error(spec.topology, static_cast<std::size_t>(spec.num_agents));
    if (!error.empty()) throw std::invalid_argument{where(error.c_str())};
  }
  if ((kind == engine_kind::agent_based || kind == engine_kind::protocol) &&
      spec.num_agents == 0) {
    throw std::invalid_argument{where("the ") + std::string{engine_name(kind)} +
                                " engine needs num_agents >= 1"};
  }
  if (!spec.agent_rules.empty() && spec.agent_rules.size() != spec.num_agents) {
    throw std::invalid_argument{
        where("agent_rules has ") + std::to_string(spec.agent_rules.size()) +
        " entries but num_agents = " + std::to_string(spec.num_agents) +
        " (they must match)"};
  }
  for (std::size_t i = 0; i < spec.agent_rules.size(); ++i) {
    if (!spec.agent_rules[i].valid()) {
      throw std::invalid_argument{where("agent_rules.") + std::to_string(i) +
                                  " needs 0 <= alpha <= beta <= 1"};
    }
  }
  if (kind == engine_kind::grouped && spec.groups.empty()) {
    throw std::invalid_argument{where("the grouped engine needs groups")};
  }
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    const core::rule_group& group = spec.groups[i];
    if (group.size == 0) {
      throw std::invalid_argument{where("groups.") + std::to_string(i) +
                                  ".size must be >= 1"};
    }
    if (!group.rule.valid()) {
      throw std::invalid_argument{where("groups.") + std::to_string(i) +
                                  " needs 0 <= alpha <= beta <= 1"};
    }
  }
  if (!spec.start.empty()) {
    double total = 0.0;
    for (const double x : spec.start) {
      if (!(x >= 0.0)) throw std::invalid_argument{where("start has negative mass")};
      total += x;
    }
    if (std::abs(total - 1.0) > 1e-9) {
      throw std::invalid_argument{where("start must sum to 1")};
    }
  }
  // Environment bounds (eta ranges, exclusive win-probability sum, period /
  // drift-horizon minimums) live in the env constructors; building one
  // instance here is O(m) and surfaces them with the scenario's name
  // attached instead of exploding mid-run inside a worker.
  keyed("environment.", [&] { (void)make_environment(spec.environment)(); });
  if (kind == engine_kind::protocol) {
    // The engine constructor's own checks: the protocol knobs first, so a
    // bad round_interval is reported as itself and not as a fault time;
    // then netsim's fault check, on the spec's schedule in rounds and on
    // the engine's in seconds (scaling by round_interval can merge two
    // distinct times, which can change both `until > at` and the
    // partition-overlap test).
    keyed("protocol.", [&] { spec.protocol.validate(); });
    keyed("faults.", [&] {
      const auto num_nodes = static_cast<std::size_t>(spec.num_agents);
      to_netsim_faults(spec, 1.0).validate(num_nodes);
      to_netsim_faults(spec, spec.protocol.round_interval).validate(num_nodes);
    });
  }
}

std::string validate_spec_error(const scenario_spec& spec) {
  try {
    validate_spec(spec);
  } catch (const std::invalid_argument& error) {
    std::string message{error.what()};
    return message.empty() ? std::string{"invalid spec"} : message;
  }
  return {};
}

std::vector<std::string> resolved_probes(const scenario_spec& spec,
                                         std::span<const std::string> requested) {
  if (!requested.empty()) return {requested.begin(), requested.end()};
  if (!spec.probes.empty()) return spec.probes;
  return {"regret"};
}

core::probe_list run_probes(const scenario_spec& spec, const core::run_config& config,
                            std::span<const std::string> probe_specs) {
  return std::move(run_sweep(spec, {}, config, probe_specs).front().probes);
}

}  // namespace sgl::scenario
