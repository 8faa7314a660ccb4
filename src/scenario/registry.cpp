#include "scenario/registry.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace sgl::scenario {
namespace {

scenario_spec base(std::string name, std::string description) {
  scenario_spec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  return spec;
}

std::vector<scenario_spec> build_catalog() {
  std::vector<scenario_spec> catalog;

  {
    // The README/quickstart configuration: a small group on four options.
    auto spec = base("quickstart",
                     "4 options, N=1000 agents, theorem-regime parameters "
                     "(beta=0.65), Bernoulli qualities (0.85, 0.45, 0.40, 0.35)");
    spec.params = core::theorem_params(4, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 1000;
    spec.environment.etas = {0.85, 0.45, 0.40, 0.35};
    catalog.push_back(std::move(spec));
  }
  {
    // Theorem 4.3's setting (claims/thm43_regret_m10.scn).
    auto spec = base("theorem-infinite",
                     "Theorem 4.3: infinite-population stochastic MWU, m=10, "
                     "beta=0.62, canonical two-level qualities 0.85/0.35");
    spec.params = core::theorem_params(10, 0.62);
    spec.engine = engine_kind::infinite;
    spec.num_agents = 0;
    spec.environment.etas = env::two_level_etas(10, 0.85, 0.35);
    catalog.push_back(std::move(spec));
  }
  {
    // Theorem 4.4's setting (claims/thm44_finite_regret.scn); N is the
    // natural override.
    auto spec = base("theorem-finite",
                     "Theorem 4.4: finite population via the exact aggregate "
                     "engine, m=10, beta=0.62, N=1000, qualities 0.85/0.35");
    spec.params = core::theorem_params(10, 0.62);
    spec.engine = engine_kind::aggregate;
    spec.num_agents = 1000;
    spec.environment.etas = env::two_level_etas(10, 0.85, 0.35);
    catalog.push_back(std::move(spec));
  }
  {
    // Theorem 4.6: recovery from an adversarial start.
    auto spec = base("nonuniform-start",
                     "Theorem 4.6: infinite dynamics started with 99% of the "
                     "mass on the worst option");
    spec.params = core::theorem_params(10, 0.62);
    spec.engine = engine_kind::infinite;
    spec.num_agents = 0;
    spec.environment.etas = env::two_level_etas(10, 0.85, 0.35);
    spec.start.assign(10, 0.01 / 9.0);
    spec.start.back() = 0.99;
    catalog.push_back(std::move(spec));
  }
  {
    // §2.1 example 2 / footnote 3: the Ellison–Fudenberg reduction.
    auto spec = base("ef-exclusive",
                     "Ellison-Fudenberg reduction: two options, exactly one "
                     "good per step (win probabilities 0.7/0.3)");
    spec.params = core::theorem_params(2, 0.65);
    spec.num_agents = 1000;
    spec.environment.family = environment_spec::family_kind::exclusive;
    spec.environment.etas = {0.7, 0.3};
    catalog.push_back(std::move(spec));
  }
  {
    // §6 "options represent stocks": the best option rotates.
    auto spec = base("switching-stocks",
                     "Non-stationary: qualities rotate one index every 400 "
                     "steps (m=5), the group must re-learn after each switch");
    spec.params = core::theorem_params(5, 0.65);
    spec.num_agents = 1000;
    spec.environment.family = environment_spec::family_kind::switching;
    spec.environment.etas = {0.85, 0.55, 0.45, 0.40, 0.35};
    spec.environment.period = 400;
    catalog.push_back(std::move(spec));
  }
  {
    // Slow drift with a best-option crossover halfway.
    auto spec = base("drifting-crossover",
                     "Non-stationary: qualities drift linearly over 2000 steps, "
                     "the initially-worst option ends up best");
    spec.params = core::theorem_params(3, 0.65);
    spec.num_agents = 1000;
    spec.environment.family = environment_spec::family_kind::drifting;
    spec.environment.etas = {0.80, 0.50, 0.30};
    spec.environment.end_etas = {0.30, 0.50, 0.80};
    spec.environment.horizon = 2000;
    catalog.push_back(std::move(spec));
  }
  {
    // §6 open problem 1, worst-conductance classic.
    auto spec = base("ring",
                     "Network-restricted sampling on the cycle C_900 — the "
                     "low-conductance stress case of Section 6's open problem");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 900;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::ring;
    catalog.push_back(std::move(spec));
  }
  {
    auto spec = base("small-world",
                     "Network-restricted sampling on a Watts-Strogatz small "
                     "world (N=900, k=5, rewire 0.1)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 900;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::watts_strogatz;
    spec.topology.degree = 5;
    spec.topology.rewire_probability = 0.1;
    catalog.push_back(std::move(spec));
  }
  {
    auto spec = base("two-cliques",
                     "Network-restricted sampling on two 450-cliques joined by "
                     "one bridge — the information-bottleneck topology");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 900;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::two_cliques;
    spec.topology.bridges = 1;
    catalog.push_back(std::move(spec));
  }
  {
    auto spec = base("torus",
                     "Network-restricted sampling on the 30x30 torus (N=900)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 900;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::torus;
    spec.topology.rows = 30;
    spec.topology.cols = 30;
    catalog.push_back(std::move(spec));
  }
  {
    // Large-N topology scenarios: the sharded network step (incremental
    // committed-neighbour view, per-(step, shard) streams) makes these
    // tractable.
    auto spec = base("network_ring_1e5",
                     "Network-restricted sampling on the cycle C_100000 — "
                     "large-N low-conductance scaling run (sharded engine)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 100000;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::ring;
    catalog.push_back(std::move(spec));
  }
  {
    auto spec = base("network_ba_1e6",
                     "Network-restricted sampling on a Barabasi-Albert graph "
                     "(N=10^6, attach=5) — heavy-tailed degrees at scale "
                     "(sharded engine)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 1000000;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::barabasi_albert;
    spec.topology.degree = 5;
    catalog.push_back(std::move(spec));
  }
  {
    auto spec = base("network_smallworld_1e6",
                     "Network-restricted sampling on a Watts-Strogatz small "
                     "world (N=10^6, k=5, rewire 0.1) — high clustering, "
                     "short paths, at scale (sharded engine)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 1000000;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::watts_strogatz;
    spec.topology.degree = 5;
    spec.topology.rewire_probability = 0.1;
    catalog.push_back(std::move(spec));
  }
  {
    // The canonical fully mixed spec for overrides and sweeps: the CI smoke
    // job runs it with --set params.beta=... and a --sweep grid.
    auto spec = base("mixed_baseline",
                     "Fully mixed homogeneous baseline: m=10, beta=0.62, "
                     "N=1000 via the exact aggregate engine — the canonical "
                     "spec to override (--set) and sweep");
    spec.params = core::theorem_params(10, 0.62);
    spec.engine = engine_kind::aggregate;
    spec.num_agents = 1000;
    spec.environment.etas = env::two_level_etas(10, 0.85, 0.35);
    catalog.push_back(std::move(spec));
  }
  {
    // §6 "stocks" + the recovery probe: time to re-concentrate after each
    // quality switch.
    auto spec = base("switching_recovery",
                     "Switching qualities (m=5, period 300) with the "
                     "recovery-time probe: steps until the new best option "
                     "regains 60% of the mass after each switch");
    spec.params = core::theorem_params(5, 0.65);
    spec.num_agents = 1000;
    spec.environment.family = environment_spec::family_kind::switching;
    spec.environment.etas = {0.85, 0.55, 0.45, 0.40, 0.35};
    spec.environment.period = 300;
    spec.probes = {"regret", "recovery(eps=0.4)"};
    catalog.push_back(std::move(spec));
  }
  {
    // The bottleneck topology + the hitting-time probe: consensus across
    // the bridge.
    auto spec = base("two_cliques_consensus",
                     "Two 300-cliques joined by two bridges with the "
                     "hitting-time probe: first step at which the best "
                     "option holds 75% of the mass across the bottleneck");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::agent_based;
    spec.num_agents = 600;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::two_cliques;
    spec.topology.bridges = 2;
    spec.probes = {"regret", "hitting_time(eps=0.25)"};
    catalog.push_back(std::move(spec));
  }
  {
    // Drifting qualities at scale: the O(m) aggregate engine makes N=1e5
    // cheap; the final histogram shows where the mass ends up after the
    // ranking inverts.  The drift span matches the CLI's default 400-step
    // run, so the inversion completes without extra flags.
    auto spec = base("drift_tracking_1e5",
                     "Drifting qualities at N=1e5 (exact aggregate engine): "
                     "the ranking inverts over 400 steps (the default "
                     "horizon); the final-histogram probe shows the "
                     "end-state mass per option");
    spec.params = core::theorem_params(3, 0.65);
    spec.engine = engine_kind::aggregate;
    spec.num_agents = 100000;
    spec.environment.family = environment_spec::family_kind::drifting;
    spec.environment.etas = {0.80, 0.50, 0.30};
    spec.environment.end_etas = {0.30, 0.50, 0.80};
    spec.environment.horizon = 400;
    spec.probes = {"regret", "final_histogram"};
    catalog.push_back(std::move(spec));
  }
  {
    // §6's converse at sensor-network scale: the protocol engine runs the
    // asynchronous netsim/gossip port of the dynamics, one round per
    // harness step, on a 100x100 torus (the lattice stand-in for a
    // geometric radio field).  Message/byte cost and commit latency ride
    // along as probe scalars.
    auto spec = base("gossip_sensor_1e4",
                     "Gossip protocol on a 100x100 sensor torus (N=10^4): "
                     "asynchronous rounds over 5%-latency links, with "
                     "message-cost and commit-latency accounting");
    spec.params = core::theorem_params(4, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 10000;
    spec.environment.etas = {0.85, 0.45, 0.40, 0.35};
    spec.topology.family = topology_spec::family_kind::torus;
    spec.probes = {"regret", "message_cost", "commit_latency"};
    catalog.push_back(std::move(spec));
  }
  {
    // The canonical lossy-link base: sweep protocol.drop_probability (or
    // jitter/latency) over it to chart convergence vs packet loss.
    auto spec = base("gossip_lossy_sweep",
                     "Fully mixed gossip over lossy links (N=500, 10% drop "
                     "by default) — the canonical base for "
                     "--sweep protocol.drop_probability grids");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 500;
    spec.environment.etas = {0.85, 0.35};
    spec.protocol.drop_probability = 0.1;
    spec.probes = {"regret", "message_cost", "commit_latency"};
    catalog.push_back(std::move(spec));
  }
  {
    // Churn: every round 2% of the nodes crash and 10% of the crashed
    // restart (rejoining uncommitted), so the population is perpetually
    // partially informed — the bounded-memory fault setting of the
    // collaborative-bandit line.
    auto spec = base("gossip_crash_recovery",
                     "Gossip under churn (N=400): 2% of nodes crash per "
                     "round, crashed nodes restart at 10% per round; the "
                     "adoption probe tracks committed/alive fractions");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 400;
    spec.environment.etas = {0.85, 0.35};
    spec.protocol.crash_rate = 0.02;
    spec.protocol.restart_rate = 0.1;
    spec.probes = {"regret", "adoption", "message_cost"};
    catalog.push_back(std::move(spec));
  }
  {
    // The protocol on the low-conductance classic: gossip partners
    // restricted to ring neighbours, jittery links.
    auto spec = base("gossip_ring_300",
                     "Gossip restricted to the cycle C_300 with exponential "
                     "link jitter — the protocol analogue of the Section 6 "
                     "low-conductance stress case");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 300;
    spec.environment.etas = {0.85, 0.35};
    spec.topology.family = topology_spec::family_kind::ring;
    spec.protocol.jitter_mean = 0.02;
    spec.probes = {"regret", "message_cost", "hitting_time(eps=0.25)"};
    catalog.push_back(std::move(spec));
  }
  {
    // The degenerate synchronous configuration: zero latency, zero drops,
    // lockstep replies, fully mixed, deep retry budget.  Its adoption law
    // provably matches finite_dynamics (tests/protocol_law_test.cpp); it
    // is the bridge between the message-passing and the agent-based
    // formulations.
    auto spec = base("gossip_sync_ideal",
                     "Degenerate synchronous gossip (N=400): zero latency, "
                     "zero loss, lockstep rounds, fully mixed — the "
                     "configuration whose adoption law matches "
                     "finite_dynamics (statistical test tier)");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 400;
    spec.environment.etas = {0.85, 0.35};
    spec.protocol.base_latency = 0.0;
    spec.protocol.lockstep = true;
    spec.protocol.max_retries = 16;
    spec.probes = {"regret", "final_histogram", "commit_latency"};
    catalog.push_back(std::move(spec));
  }
  {
    // The nemesis flagship: cut the population in half for rounds 10..25,
    // let the sides diverge, heal, and measure re-convergence.  Times are
    // rounds; the window sits inside the 40-round golden run so the
    // determinism tier exercises the full partition/heal cycle.
    auto spec = base("gossip_partition_heal",
                     "Scheduled partition nemesis (N=200): nodes 0..99 are "
                     "cut off during rounds 10..25, then healed; the "
                     "partition-divergence probe measures per-side "
                     "disagreement and post-heal re-convergence");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 200;
    spec.environment.etas = {0.85, 0.35};
    fault_action_spec cut;
    cut.kind = fault_action_spec::action_kind::partition;
    cut.at = 10.0;
    cut.until = 25.0;
    for (std::uint64_t id = 0; id < 100; ++id) cut.targets.push_back(id);
    spec.faults.actions.push_back(std::move(cut));
    spec.probes = {"regret", "adoption", "partition_divergence(eps=0.1)"};
    catalog.push_back(std::move(spec));
  }
  {
    // Repeated mass-failure nemesis: two crash waves with full restarts in
    // between — the "rolling reboot" robustness story.  Fractional waves
    // draw from the dedicated fault stream, so the trajectory is pinned.
    auto spec = base("gossip_crash_waves",
                     "Crash-wave nemesis (N=300): 30% of nodes crash at "
                     "rounds 8 and 24, all crashed nodes restart at rounds "
                     "16 and 32; adoption tracks the committed fraction "
                     "through both waves");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 300;
    spec.environment.etas = {0.85, 0.35};
    for (const double at : {8.0, 24.0}) {
      fault_action_spec wave;
      wave.kind = fault_action_spec::action_kind::crash_wave;
      wave.at = at;
      wave.fraction = 0.3;
      spec.faults.actions.push_back(std::move(wave));
    }
    for (const double at : {16.0, 32.0}) {
      fault_action_spec wave;
      wave.kind = fault_action_spec::action_kind::restart_wave;
      wave.at = at;
      spec.faults.actions.push_back(std::move(wave));
    }
    spec.probes = {"regret", "adoption", "commit_latency"};
    catalog.push_back(std::move(spec));
  }
  {
    // Link-quality nemesis: during rounds 12..30 every link that crosses
    // the boundary of nodes 0..124 turns slow and lossy (the WAN-brownout
    // story), then the override lifts.
    auto spec = base("gossip_degraded_links",
                     "Degraded-links nemesis (N=250): cross links into "
                     "nodes 0..124 run at 4x latency and 50% loss during "
                     "rounds 12..30, then recover; message-cost accounting "
                     "rides along");
    spec.params = core::theorem_params(2, 0.65);
    spec.engine = engine_kind::protocol;
    spec.num_agents = 250;
    spec.environment.etas = {0.85, 0.35};
    fault_action_spec brownout;
    brownout.kind = fault_action_spec::action_kind::degrade;
    brownout.at = 12.0;
    brownout.until = 30.0;
    brownout.link_class = fault_action_spec::link_class_kind::cross;
    for (std::uint64_t id = 0; id < 125; ++id) brownout.targets.push_back(id);
    brownout.base_latency = 0.2;
    brownout.drop_probability = 0.5;
    spec.faults.actions.push_back(std::move(brownout));
    spec.probes = {"regret", "message_cost", "adoption"};
    catalog.push_back(std::move(spec));
  }
  {
    // Heterogeneity as a three-way rule mixture (exact grouped engine).
    auto spec = base("mixture-discernment",
                     "Heterogeneous mixture: 300 discerning (0.05/0.95), 400 "
                     "paper-rule (0.35/0.65), 300 indiscriminate (0.5/0.5) "
                     "agents via the exact grouped engine");
    spec.params = core::theorem_params(4, 0.65);
    spec.engine = engine_kind::grouped;
    spec.num_agents = 1000;
    spec.environment.etas = {0.85, 0.45, 0.40, 0.35};
    spec.groups = {{300, {0.05, 0.95}}, {400, {0.35, 0.65}}, {300, {0.5, 0.5}}};
    catalog.push_back(std::move(spec));
  }

  return catalog;
}

const std::vector<scenario_spec>& catalog() {
  static const std::vector<scenario_spec> scenarios = build_catalog();
  return scenarios;
}

}  // namespace

std::span<const scenario_spec> all_scenarios() { return catalog(); }

const scenario_spec* find_scenario(std::string_view name) noexcept {
  for (const auto& spec : catalog()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

scenario_spec get_scenario(std::string_view name) {
  if (const scenario_spec* spec = find_scenario(name)) return *spec;
  std::string message{"unknown scenario '"};
  message += name;
  message += "'; known:";
  for (const auto& spec : catalog()) {
    message += ' ';
    message += spec.name;
  }
  throw std::invalid_argument{message};
}

}  // namespace sgl::scenario
