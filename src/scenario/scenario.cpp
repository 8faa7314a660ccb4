#include "scenario/scenario.h"

#include <bit>
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
#include "scenario/sweep.h"
#include "support/rng.h"

namespace sgl::scenario {
namespace {

/// finite_dynamics that keeps its (possibly generated) graph alive.
class networked_dynamics final : public core::finite_dynamics {
 public:
  networked_dynamics(const core::dynamics_params& params, std::size_t num_agents,
                     std::shared_ptr<const graph::graph> topology)
      : finite_dynamics{params, num_agents}, topology_{std::move(topology)} {
    set_topology(topology_.get());
  }

 private:
  std::shared_ptr<const graph::graph> topology_;
};

/// rows × cols for lattice families: taken from the spec, or the most
/// square factorization of N when unset.
std::pair<std::size_t, std::size_t> lattice_shape(const topology_spec& spec,
                                                  std::size_t num_agents) {
  if (spec.rows != 0 || spec.cols != 0) {
    if (spec.rows * spec.cols != num_agents) {
      throw std::invalid_argument{"build_topology: rows * cols != num_agents"};
    }
    return {spec.rows, spec.cols};
  }
  auto rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(num_agents)));
  while (rows > 1 && num_agents % rows != 0) --rows;
  return {rows, num_agents / rows};
}

/// The cache key: family, N, and exactly the fields build_topology reads
/// for that family — nothing else, so sweeps over unrelated keys hit.
/// Doubles are keyed by their bit pattern (the cache must distinguish what
/// the generator would distinguish, no more).
std::string topology_cache_key(const topology_spec& spec, std::size_t num_agents) {
  using family = topology_spec::family_kind;
  std::string key = std::to_string(static_cast<int>(spec.family));
  key += ':';
  key += std::to_string(num_agents);
  const auto add_u64 = [&key](std::uint64_t v) {
    key += ':';
    key += std::to_string(v);
  };
  const auto add_double = [&add_u64](double v) {
    add_u64(std::bit_cast<std::uint64_t>(v));
  };
  switch (spec.family) {
    case family::none:
    case family::complete:
    case family::ring:
    case family::star:
      break;
    case family::grid:
    case family::torus:
      add_u64(spec.rows);
      add_u64(spec.cols);
      break;
    case family::erdos_renyi:
      add_double(spec.edge_probability);
      add_u64(spec.seed);
      break;
    case family::watts_strogatz:
      add_u64(spec.degree);
      add_double(spec.rewire_probability);
      add_u64(spec.seed);
      break;
    case family::barabasi_albert:
      add_u64(spec.degree);
      add_u64(spec.seed);
      break;
    case family::two_cliques:
      add_u64(spec.bridges);
      break;
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

/// The protocol engine's configuration, assembled from the spec's params
/// and protocol.* / faults.* fields.  Shared by make_engine and
/// validate_spec so the ranges are checked exactly where the values are
/// read.
protocol::engine_config to_engine_config(const scenario_spec& spec) {
  protocol::engine_config config;
  config.dynamics = spec.params;
  config.round_interval = spec.protocol.round_interval;
  config.base_latency = spec.protocol.base_latency;
  config.jitter_mean = spec.protocol.jitter_mean;
  config.drop_probability = spec.protocol.drop_probability;
  if (spec.protocol.max_retries > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{
        "protocol.max_retries exceeds the engine's 32-bit retry budget"};
  }
  config.max_retries = static_cast<std::uint32_t>(spec.protocol.max_retries);
  config.crash_rate = spec.protocol.crash_rate;
  config.restart_rate = spec.protocol.restart_rate;
  config.sticky = spec.protocol.sticky;
  config.lockstep = spec.protocol.lockstep;
  // The fault schedule's round-denominated times become netsim seconds
  // here; everything else passes through and is re-validated by
  // netsim::fault_schedule::validate against the node count.
  config.faults.actions.reserve(spec.faults.actions.size());
  for (std::size_t i = 0; i < spec.faults.actions.size(); ++i) {
    const fault_action_spec& action = spec.faults.actions[i];
    netsim::fault_action out;
    out.which = to_netsim_kind(action.kind);
    out.at = action.at * spec.protocol.round_interval;
    out.until =
        action.until < 0.0 ? -1.0 : action.until * spec.protocol.round_interval;
    out.targets.reserve(action.targets.size());
    for (const std::uint64_t id : action.targets) {
      if (id > std::numeric_limits<netsim::node_id>::max()) {
        throw std::invalid_argument{"faults." + std::to_string(i) +
                                    ".targets: id " + std::to_string(id) +
                                    " exceeds the 32-bit node-id range"};
      }
      out.targets.push_back(static_cast<netsim::node_id>(id));
    }
    out.fraction = action.fraction;
    out.degrade_class = to_netsim_class(action.link_class);
    out.link.base_latency = action.base_latency;
    out.link.jitter_mean = action.jitter_mean;
    out.link.drop_probability = action.drop_probability;
    config.faults.actions.push_back(std::move(out));
  }
  config.record_trace = spec.faults.record;
  config.trace_capacity = static_cast<std::size_t>(spec.faults.record_capacity);
  return config;
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
      if ((spec.rows != 0 || spec.cols != 0) && spec.rows * spec.cols != num_agents) {
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
  using family = topology_spec::family_kind;
  rng gen{spec.seed};
  switch (spec.family) {
    case family::none:
      throw std::invalid_argument{"build_topology: family is none"};
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
      if (num_agents % 2 != 0) {
        throw std::invalid_argument{"build_topology: two_cliques needs even N"};
      }
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
  const engine_kind kind = resolved_engine(spec);
  const bool networked = spec.topology.family != topology_spec::family_kind::none;
  if (networked && kind != engine_kind::agent_based && kind != engine_kind::protocol) {
    throw std::invalid_argument{
        "make_engine: a topology requires the agent-based or protocol engine"};
  }
  if (!spec.agent_rules.empty() && kind != engine_kind::agent_based) {
    throw std::invalid_argument{
        "make_engine: per-agent rules require the agent-based engine"};
  }
  switch (kind) {
    case engine_kind::infinite:
      return core::make_infinite_engine_factory(spec.params, spec.start);
    case engine_kind::aggregate:
      return core::make_finite_engine_factory(spec.params, spec.num_agents);
    case engine_kind::agent_based: {
      if (spec.num_agents == 0) {
        throw std::invalid_argument{"make_engine: agent-based engine needs N >= 1"};
      }
      std::shared_ptr<const graph::graph> topology = spec.prebuilt_graph;
      if (networked && topology == nullptr) {
        topology = shared_topology(spec.topology, static_cast<std::size_t>(spec.num_agents));
      }
      return [params = spec.params, num_agents = spec.num_agents, topology,
              rules = spec.agent_rules]() -> std::unique_ptr<core::dynamics_engine> {
        std::unique_ptr<core::finite_dynamics> engine;
        if (topology != nullptr) {
          engine = std::make_unique<networked_dynamics>(
              params, static_cast<std::size_t>(num_agents), topology);
        } else {
          engine = std::make_unique<core::finite_dynamics>(
              params, static_cast<std::size_t>(num_agents));
        }
        if (!rules.empty()) engine->set_agent_rules(rules);
        return engine;
      };
    }
    case engine_kind::grouped:
      if (spec.groups.empty()) {
        throw std::invalid_argument{"make_engine: grouped engine needs groups"};
      }
      return [params = spec.params, groups = spec.groups] {
        return std::make_unique<core::aggregate_dynamics>(params, groups);
      };
    case engine_kind::protocol: {
      if (spec.num_agents == 0) {
        throw std::invalid_argument{"make_engine: protocol engine needs N >= 1"};
      }
      std::shared_ptr<const graph::graph> topology = spec.prebuilt_graph;
      if (networked && topology == nullptr) {
        topology = shared_topology(spec.topology, static_cast<std::size_t>(spec.num_agents));
      }
      return [config = to_engine_config(spec), num_agents = spec.num_agents,
              topology] {
        return std::make_unique<protocol::protocol_engine>(
            config, static_cast<std::size_t>(num_agents), topology);
      };
    }
    case engine_kind::auto_select:
      break;  // unreachable: resolve() never returns auto_select
  }
  throw std::invalid_argument{"make_engine: unknown engine kind"};
}

namespace {

/// Key-named validation of the faults.* family, in the PR 5 error style:
/// every failure names the offending `faults.N.field` key and the violated
/// bound.  netsim::fault_schedule::validate re-checks the same ground at
/// engine construction as a backstop, but with action indices instead of
/// scenario keys — this is the version users see.
template <typename Where>
void validate_faults(const scenario_spec& spec, const Where& where) {
  using action_kind = fault_action_spec::action_kind;
  const auto key = [](std::size_t i, const char* field) {
    return "faults." + std::to_string(i) + "." + field;
  };
  for (std::size_t i = 0; i < spec.faults.actions.size(); ++i) {
    const fault_action_spec& action = spec.faults.actions[i];
    if (!(action.at >= 0.0)) {
      throw std::invalid_argument{where("") + key(i, "at") + " = " +
                                  std::to_string(action.at) + " must be >= 0"};
    }
    if (action.until >= 0.0 && !(action.until > action.at)) {
      throw std::invalid_argument{
          where("") + key(i, "until") + " = " + std::to_string(action.until) +
          " must be > " + key(i, "at") + " = " + std::to_string(action.at)};
    }
    if (action.fraction != -1.0 &&
        !(action.fraction >= 0.0 && action.fraction <= 1.0)) {
      throw std::invalid_argument{where("") + key(i, "fraction") + " = " +
                                  std::to_string(action.fraction) +
                                  " outside [0, 1]"};
    }
    for (const std::uint64_t id : action.targets) {
      if (id >= spec.num_agents) {
        throw std::invalid_argument{
            where("") + key(i, "targets") + " names node " + std::to_string(id) +
            " but num_agents = " + std::to_string(spec.num_agents) +
            " (ids must be < num_agents)"};
      }
    }
    switch (action.kind) {
      case action_kind::partition:
        if (action.until < 0.0) {
          throw std::invalid_argument{
              where("") + key(i, "until") +
              " is required for a partition (it heals automatically)"};
        }
        if (action.targets.empty()) {
          throw std::invalid_argument{
              where("") + key(i, "targets") +
              " must name the partition's side A (non-empty)"};
        }
        if (action.targets.size() >= spec.num_agents) {
          throw std::invalid_argument{
              where("") + key(i, "targets") + " names all " +
              std::to_string(spec.num_agents) +
              " nodes; a partition needs a non-empty other side"};
        }
        if (action.fraction != -1.0) {
          throw std::invalid_argument{
              where("") + key(i, "fraction") + " does not apply to a partition"};
        }
        for (std::size_t j = 0; j < i; ++j) {
          const fault_action_spec& other = spec.faults.actions[j];
          if (other.kind != action_kind::partition) continue;
          if (action.at < other.until && other.at < action.until) {
            throw std::invalid_argument{
                where("") + "faults." + std::to_string(i) + " window [" +
                std::to_string(action.at) + ", " + std::to_string(action.until) +
                ") overlaps faults." + std::to_string(j) + " window [" +
                std::to_string(other.at) + ", " + std::to_string(other.until) +
                ") — netsim supports one cut at a time"};
          }
        }
        break;
      case action_kind::crash_wave:
        if (action.until >= 0.0) {
          throw std::invalid_argument{
              where("") + key(i, "until") +
              " does not apply to a crash_wave (a point event)"};
        }
        if (action.targets.empty() && action.fraction == -1.0) {
          throw std::invalid_argument{where("") + "faults." + std::to_string(i) +
                                      ": a crash_wave needs " + key(i, "targets") +
                                      " or " + key(i, "fraction")};
        }
        if (!action.targets.empty() && action.fraction != -1.0) {
          throw std::invalid_argument{
              where("") + "faults." + std::to_string(i) + ": set " +
              key(i, "targets") + " or " + key(i, "fraction") + ", not both"};
        }
        break;
      case action_kind::restart_wave:
        if (action.until >= 0.0) {
          throw std::invalid_argument{
              where("") + key(i, "until") +
              " does not apply to a restart_wave (a point event)"};
        }
        if (!action.targets.empty() && action.fraction != -1.0) {
          throw std::invalid_argument{
              where("") + "faults." + std::to_string(i) + ": set " +
              key(i, "targets") + " or " + key(i, "fraction") + ", not both"};
        }
        break;
      case action_kind::degrade:
        if (action.link_class != fault_action_spec::link_class_kind::all &&
            action.targets.empty()) {
          throw std::invalid_argument{
              where("") + key(i, "targets") +
              " must be non-empty when faults." + std::to_string(i) +
              ".link_class is not \"all\""};
        }
        if (action.fraction != -1.0) {
          throw std::invalid_argument{
              where("") + key(i, "fraction") + " does not apply to a degrade"};
        }
        if (!(action.base_latency >= 0.0)) {
          throw std::invalid_argument{where("") + key(i, "base_latency") +
                                      " = " + std::to_string(action.base_latency) +
                                      " must be >= 0"};
        }
        if (!(action.jitter_mean >= 0.0)) {
          throw std::invalid_argument{where("") + key(i, "jitter_mean") + " = " +
                                      std::to_string(action.jitter_mean) +
                                      " must be >= 0"};
        }
        if (!(action.drop_probability >= 0.0 && action.drop_probability <= 1.0)) {
          throw std::invalid_argument{
              where("") + key(i, "drop_probability") + " = " +
              std::to_string(action.drop_probability) + " outside [0, 1]"};
        }
        break;
    }
  }
}

}  // namespace

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
  spec.params.validate();
  const std::size_t m = spec.params.num_options;
  if (spec.environment.etas.size() != m) {
    throw std::invalid_argument{
        where("environment.etas has ") + std::to_string(spec.environment.etas.size()) +
        " entries but params.num_options = " + std::to_string(m) + " (they must match)"};
  }
  if (spec.environment.family == environment_spec::family_kind::drifting &&
      spec.environment.end_etas.size() != m) {
    throw std::invalid_argument{
        where("environment.end_etas has ") +
        std::to_string(spec.environment.end_etas.size()) +
        " entries but params.num_options = " + std::to_string(m) + " (they must match)"};
  }
  if (!spec.start.empty() && spec.start.size() != m) {
    throw std::invalid_argument{
        where("start has ") + std::to_string(spec.start.size()) +
        " entries but params.num_options = " + std::to_string(m) + " (they must match)"};
  }

  // Field families the resolved engine would silently ignore are errors:
  // the run would not be what the spec claims.
  const engine_kind kind = resolved_engine(spec);
  if (!spec.start.empty() && kind != engine_kind::infinite) {
    throw std::invalid_argument{
        where("a nonuniform start seeds the infinite engine only; this spec "
              "resolves to another engine (drop start or set engine = "
              "\"infinite\" with num_agents = 0)")};
  }
  if (!spec.groups.empty() && kind != engine_kind::grouped) {
    throw std::invalid_argument{
        where("groups configure the grouped engine only; this spec resolves "
              "to another engine (drop groups or set engine = \"grouped\")")};
  }
  if (!spec.agent_rules.empty() && kind != engine_kind::agent_based) {
    throw std::invalid_argument{
        where("per-agent rules configure the agent-based engine only (set "
              "engine = \"agent_based\" or drop agent_rules)")};
  }

  // Everything make_engine / the factories would reject is rejected here
  // too, so "validate_spec passes" means the run cannot die later inside a
  // graph/engine/environment constructor (the contract validate_spec_error
  // and the property-test generator build on).
  const bool networked = spec.topology.family != topology_spec::family_kind::none;
  if (networked && kind != engine_kind::agent_based && kind != engine_kind::protocol) {
    throw std::invalid_argument{
        where("a topology requires the agent-based or protocol engine")};
  }
  if (networked && spec.prebuilt_graph == nullptr) {
    const std::string error =
        topology_build_error(spec.topology, static_cast<std::size_t>(spec.num_agents));
    if (!error.empty()) throw std::invalid_argument{where(error.c_str())};
  }
  if (kind == engine_kind::agent_based && spec.num_agents == 0) {
    throw std::invalid_argument{where("the agent-based engine needs num_agents >= 1")};
  }
  if (!spec.agent_rules.empty() && spec.agent_rules.size() != spec.num_agents) {
    throw std::invalid_argument{
        where("agent_rules has ") + std::to_string(spec.agent_rules.size()) +
        " entries but num_agents = " + std::to_string(spec.num_agents) +
        " (they must match)"};
  }
  for (std::size_t i = 0; i < spec.agent_rules.size(); ++i) {
    const core::adoption_rule& rule = spec.agent_rules[i];
    if (!(rule.alpha >= 0.0 && rule.alpha <= rule.beta && rule.beta <= 1.0)) {
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
    if (!(group.rule.alpha >= 0.0 && group.rule.alpha <= group.rule.beta &&
          group.rule.beta <= 1.0)) {
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
  try {
    (void)make_environment(spec.environment)();
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument{where("environment: ") + error.what()};
  }
  if (kind == engine_kind::protocol) {
    if (spec.num_agents == 0) {
      throw std::invalid_argument{where("the protocol engine needs num_agents >= 1")};
    }
    validate_faults(spec, where);
    try {
      to_engine_config(spec).validate();
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument{where(error.what())};
    }
  } else {
    if (spec.protocol != protocol_spec{}) {
      // apply_override gates protocol.* keys at assignment time, but the
      // engine can legally be changed afterwards (later lines win); catch
      // the flip here so non-default protocol knobs are never silently
      // dropped by a non-protocol run.
      throw std::invalid_argument{
          where("protocol.* fields are set but the spec does not run the "
                "protocol engine (set engine = \"protocol\" or drop them)")};
    }
    if (spec.faults != fault_schedule_spec{}) {
      throw std::invalid_argument{
          where("faults.* fields are set but the spec does not run the "
                "protocol engine (set engine = \"protocol\" or drop them)")};
    }
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
