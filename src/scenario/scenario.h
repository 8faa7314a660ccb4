#pragma once

/// \file scenario.h
/// Declarative run descriptions: which engine, which environment, which
/// topology, which parameters.  A scenario_spec is a value — buildable in
/// code, overridable field by field — and the functions here turn it into
/// the factories the generic Monte-Carlo runner (core/experiment.h)
/// consumes.  The CLI, the claim files, the service, the benchmarks and
/// the quickstart example construct their runs through this layer; none
/// of them steps an engine by hand.  registry.h adds the catalog of named
/// specs.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/params.h"
#include "env/reward_model.h"
#include "graph/graph.h"
#include "protocol/gossip_learner.h"

namespace sgl::scenario {

/// Which formulation of the dynamics to run.
enum class engine_kind {
  auto_select,  ///< grouped if groups set, agent-based if topology/rules set,
                ///< infinite if num_agents == 0, exact aggregate otherwise
  infinite,     ///< mean-field stochastic MWU (§4.2)
  aggregate,    ///< exact O(m) aggregate (Propositions 4.1/4.2)
  agent_based,  ///< explicit agents (§2.1); required for topology/rules
  grouped,      ///< exact O(G·m) aggregate of a rule mixture
  protocol,     ///< netsim-backed gossip protocol (§6 converse); never
                ///< auto-selected — set it explicitly
};

/// Social-network restriction for stage-1 sampling (§6, open problem 1).
struct topology_spec {
  enum class family_kind {
    none,            ///< fully mixed (the paper's setting)
    complete,        ///< K_N — sanity: equals fully mixed up to self-exclusion
    ring,            ///< C_N
    grid,            ///< rows × cols lattice
    torus,           ///< rows × cols lattice with wraparound
    star,            ///< hub-and-spokes
    erdos_renyi,     ///< G(N, p)
    watts_strogatz,  ///< small world: ring lattice, degree 2k, rewired
    barabasi_albert, ///< preferential attachment
    two_cliques,     ///< bottleneck: two cliques joined by bridge edges
  };

  family_kind family = family_kind::none;
  std::size_t rows = 0;              ///< grid/torus (0 = square-ish from N)
  std::size_t cols = 0;
  double edge_probability = 0.01;    ///< erdos_renyi
  std::size_t degree = 5;            ///< watts_strogatz k / barabasi_albert attach
  double rewire_probability = 0.1;   ///< watts_strogatz
  std::size_t bridges = 1;           ///< two_cliques
  std::uint64_t seed = 17;           ///< random-graph generation stream
};

/// Which signal generator to face (env/reward_model.h).
struct environment_spec {
  enum class family_kind {
    bernoulli,  ///< independent R_j ~ Bernoulli(η_j) — the base model
    exclusive,  ///< exactly one option good per step (Ellison–Fudenberg)
    switching,  ///< qualities rotate every `period` steps
    drifting,   ///< qualities interpolate etas → end_etas over `horizon`
  };

  family_kind family = family_kind::bernoulli;
  std::vector<double> etas;       ///< qualities / win probabilities / base
  std::vector<double> end_etas;   ///< drifting target
  std::uint64_t period = 100;     ///< switching rotation period
  std::uint64_t horizon = 1000;   ///< drifting ramp length
};

/// One scripted fault (engine_kind::protocol only; an indexed entry of the
/// `faults.*` key family).  Times are protocol ROUNDS (the scenario layer's
/// natural unit); the engine factory multiplies by protocol.round_interval
/// to get netsim's simulated seconds; netsim::fault_action is the engine's
/// form.
struct fault_action_spec {
  enum class action_kind {
    partition,     ///< cut `targets` off from the rest during [at, until)
    crash_wave,    ///< crash `targets`, or each alive node w.p. `fraction`, at `at`
    restart_wave,  ///< restart `targets` / fraction of crashed / all crashed
    degrade,       ///< override the link model on a link class during [at, until)
  };

  /// Which links a degrade covers, relative to `targets` (see
  /// netsim::link_class).
  enum class link_class_kind { all, intra, cross, nodes };

  action_kind kind = action_kind::partition;
  double at = 0.0;     ///< activation round
  double until = -1.0; ///< end round; -1 = none (degrade: forever)
  std::vector<std::uint64_t> targets;
  double fraction = -1.0;  ///< wave probability; -1 = unset
  link_class_kind link_class = link_class_kind::all;  ///< degrade only
  double base_latency = 0.05;     ///< degrade override latency
  double jitter_mean = 0.0;       ///< degrade override jitter
  double drop_probability = 0.0;  ///< degrade override loss

  friend bool operator==(const fault_action_spec&, const fault_action_spec&) = default;
};

/// The `faults.*` family: a nemesis schedule plus trace-recording knobs.
struct fault_schedule_spec {
  std::vector<fault_action_spec> actions;
  bool record = false;  ///< attach a trace recorder to every replication
  std::uint64_t record_capacity = 0;  ///< ring size; 0 keeps everything

  [[nodiscard]] bool empty() const noexcept { return actions.empty(); }

  friend bool operator==(const fault_schedule_spec&, const fault_schedule_spec&) = default;
};

/// A fully described run: engine + environment + topology + parameters.
struct scenario_spec {
  std::string name;
  std::string description;

  core::dynamics_params params;
  engine_kind engine = engine_kind::auto_select;
  std::uint64_t num_agents = 1000;  ///< population N; 0 = infinite dynamics

  environment_spec environment;
  topology_spec topology;
  protocol::protocol_config protocol;  ///< `protocol.*`; read only by the protocol engine
  fault_schedule_spec faults;  ///< read only by the protocol engine

  std::vector<double> start;                   ///< nonuniform P⁰ (infinite only)
  std::vector<core::rule_group> groups;        ///< grouped engine mixture
  std::vector<core::adoption_rule> agent_rules;///< per-agent rules (agent-based)

  /// Default probe specs for this scenario (core/probe.h grammar, e.g.
  /// "regret", "hitting_time(eps=0.25)").  Used when the caller does not
  /// choose probes; empty means just "regret" (resolved_probes).
  std::vector<std::string> probes;

  /// Optional pre-built topology, shared by every engine the factory
  /// creates.  When set it is used verbatim (the topology family/params are
  /// ignored for building, though family must not be `none`); when null,
  /// make_engine builds from the topology spec.  Lets callers that also
  /// inspect the graph (degree tables etc.) construct it exactly once.
  std::shared_ptr<const graph::graph> prebuilt_graph;
};

/// The engine kind a spec will actually run (resolves auto_select from the
/// spec's shape: groups → grouped, topology/rules → agent_based,
/// N = 0 → infinite, otherwise aggregate).
[[nodiscard]] engine_kind resolved_engine(const scenario_spec& spec) noexcept;

/// Materializes the topology for a population of `num_agents` vertices.
/// Throws topology_build_error's message as std::invalid_argument when the
/// (spec, N) cannot build: family none, N = 0, inconsistent dimensions.
[[nodiscard]] graph::graph build_topology(const topology_spec& spec,
                                          std::size_t num_agents);

/// build_topology behind a small process-wide MRU cache, keyed by N and the
/// `topology.*` fields as the key table says the family reads them (so two
/// sweep points that differ in, say, params.beta — or even in an unused
/// topology field — share one built graph).  Graph generation is the
/// dominant per-point cost of sweeps over large random topologies; the
/// cache is what makes a 16-point beta sweep on a 10^6-vertex graph pay
/// for one build instead of sixteen.  Thread-safe; holds at most three
/// graphs alive (MRU order), so memory stays bounded.
[[nodiscard]] std::shared_ptr<const graph::graph> shared_topology(
    const topology_spec& spec, std::size_t num_agents);

/// Cumulative shared_topology() hit/miss counters (diagnostics + tests).
struct topology_cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
[[nodiscard]] topology_cache_stats shared_topology_stats() noexcept;

/// Environment factory for the runner (fresh instance per replication).
[[nodiscard]] core::env_factory make_environment(const environment_spec& spec);

/// Engine factory for the runner.  Starts with validate_spec(spec), so it
/// throws exactly what validate_spec throws; then resolves auto_select and
/// owns any generated topology (shared by the engines the factory builds).
[[nodiscard]] core::engine_factory make_engine(const scenario_spec& spec);

/// Validates the spec up front, so no factory throws later: params.validate(),
/// environment.etas sized to params.num_options, a `start` override sized to
/// num_options, keys the resolved engine does not read (the key table in
/// serialize.cpp says who reads each key, and any key off its
/// scenario_spec{} default that the engine does not read is refused by
/// name — silently ignoring it would misreport what ran), the topology's
/// build preconditions, and the protocol engine's config and fault
/// schedule.  Range rules are not restated here: each is the owning
/// layer's own check (adoption_rule::valid, dynamics_params::validate, the
/// env constructors, protocol::protocol_config::validate,
/// netsim::fault_schedule::validate).  Those checks throw field_error,
/// which one catch site rethrows with the spec's name and the offending
/// key (`params.mu`, `environment.period`, `protocol.max_retries`,
/// `faults.N.until`).  Throws std::invalid_argument — this is where an
/// etas/num_options mismatch is reported, instead of the late
/// engine/environment mismatch throw inside the runner.
void validate_spec(const scenario_spec& spec);

/// Non-throwing validate_spec: the validation error message, or an empty
/// string when the spec is valid.  This is the predicate generator-driven
/// tests (tests/property/) build on — a generator can ask "would this spec
/// run?" without paying an exception per rejected candidate, and a shrinker
/// can discard invalid shrink candidates the same way.
[[nodiscard]] std::string validate_spec_error(const scenario_spec& spec);

/// Non-throwing build_topology precondition check: the error message
/// build_topology would throw for this (spec, N) — family none, zero
/// vertices, lattice shape mismatch, family-specific bounds (watts_strogatz
/// needs N >= 3 and 0 < 2·degree < N, barabasi_albert N > degree >= 1,
/// two_cliques even N >= 4 with bridges in [1, N/2], probabilities in
/// [0, 1]) — or an empty string when the graph would build.  Checks the
/// preconditions only; never builds the graph, so it is O(1) regardless
/// of N.  validate_spec calls this for specs that would build a topology,
/// so "validate_spec passes" means the run cannot die inside the graph
/// factory later.
[[nodiscard]] std::string topology_build_error(const topology_spec& spec,
                                               std::size_t num_agents);

/// The probe specs a run of `spec` installs — the one fallback rule every
/// runner, the claims loader, the CLI and the service digest share:
/// `requested` when non-empty, else the spec's own `probes`, else
/// {"regret"}.
[[nodiscard]] std::vector<std::string> resolved_probes(const scenario_spec& spec,
                                                       std::span<const std::string> requested);

/// Runs the scenario with an explicit probe set (core/probe.h spec
/// grammar), resolved by resolved_probes: a one-point run_sweep
/// (scenario/sweep.h).  Calls validate_spec.  Returns the merged probes in
/// spec order.
[[nodiscard]] core::probe_list run_probes(const scenario_spec& spec,
                                          const core::run_config& config,
                                          std::span<const std::string> probe_specs = {});

}  // namespace sgl::scenario
