// Experiment E14 — the distributed low-memory MWU on a sensor network
// (§1 and §6: "perhaps appropriate for low-power devices in distributed
// settings such as sensor networks or the internet-of-things").
//
// Each node stores one integer and runs the gossip protocol over a lossy,
// asynchronous network (discrete-event simulation).  We sweep packet loss
// and crash faults, reporting convergence, regret, and message cost.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/probe.h"
#include "core/theory.h"
#include "scenario/scenario.h"

namespace {

using namespace sgl;

constexpr std::size_t k_nodes = 200;
constexpr std::uint64_t k_rounds = 300;
constexpr std::uint64_t k_late_window = 50;

struct case_spec {
  std::string name;
  double drop = 0.0;
  double crash_fraction = 0.0;
  bool sticky = false;
  bool use_torus = false;
  bool split_brain = false;
};

/// The protocol-engine spec of one case: the radio-channel environment,
/// jittery links, and the case's loss / stickiness / topology / faults.
scenario::scenario_spec make_spec(const case_spec& c) {
  using fault = scenario::fault_action_spec;
  scenario::scenario_spec spec;
  spec.name = c.name;
  spec.params = core::theorem_params(3, 0.65);
  spec.engine = scenario::engine_kind::protocol;
  spec.num_agents = k_nodes;
  spec.environment.etas = {0.9, 0.4, 0.4};  // e.g. radio channels
  spec.protocol.base_latency = 0.05;
  spec.protocol.jitter_mean = 0.05;
  spec.protocol.drop_probability = c.drop;
  spec.protocol.sticky = c.sticky;
  if (c.use_torus) {
    spec.topology.family = scenario::topology_spec::family_kind::torus;
    spec.topology.rows = 20;
    spec.topology.cols = 10;
  }
  if (c.crash_fraction > 0.0) {
    fault wave;
    wave.kind = fault::action_kind::crash_wave;
    wave.at = 50.0;
    wave.fraction = c.crash_fraction;
    spec.faults.actions.push_back(std::move(wave));
  }
  if (c.split_brain) {
    fault cut;
    cut.kind = fault::action_kind::partition;
    cut.at = 80.0;
    cut.until = 160.0;
    for (std::uint64_t id = 0; id < k_nodes / 2; ++id) cut.targets.push_back(id);
    spec.faults.actions.push_back(std::move(cut));
  }
  return spec;
}

int run(const bench::standard_options& options) {
  bench::print_banner(
      "E14: Low-memory distributed MWU on a simulated sensor network (Sections 1, 6)",
      "Claim: one-integer-per-node gossip implements the dynamics; convergence "
      "survives packet loss and crash faults, at ~2 messages/node/round.");

  const std::vector<case_spec> cases{
      {"complete, lossless", 0.0, 0.0, false, false},
      {"complete, 10% loss", 0.1, 0.0, false, false},
      {"complete, 30% loss", 0.3, 0.0, false, false},
      {"complete, 50% loss", 0.5, 0.0, false, false},
      {"complete, 20% crash @ r50", 0.1, 0.2, false, false},
      {"complete, sticky mode", 0.1, 0.0, true, false},
      {"torus 20x10, 10% loss", 0.1, 0.0, false, true},
      {"split-brain r80..160", 0.1, 0.0, false, false, true},
  };

  // Each replication is a full discrete-event simulation; a few suffice.
  core::run_config config;
  config.horizon = k_rounds;
  config.replications = std::max<std::uint64_t>(3, options.replications / 10);
  config.seed = options.seed;
  config.threads = options.threads;
  const std::vector<std::string> probe_specs{"regret", "trajectory", "message_cost"};

  text_table table{{"scenario", "late best frac", "avg regret", "msgs/node/round",
                    "kB total", "drop rate", "converged"}};

  for (const auto& c : cases) {
    const core::probe_list merged = scenario::run_probes(make_spec(c), config, probe_specs);
    const auto& scalars = dynamic_cast<const core::regret_probe&>(*merged[0]);
    const auto& curves = dynamic_cast<const core::trajectory_probe&>(*merged[1]);
    const core::probe_report cost = merged[2]->report();

    // Best-option share over the last rounds: the window mean of the
    // per-round means, ± the window mean of their 95% half-widths (an upper
    // bound on the half-width of the window mean).
    double late = 0.0;
    double late_half_width = 0.0;
    for (std::uint64_t t = k_rounds - k_late_window; t < k_rounds; ++t) {
      const mean_ci at = curves.best_mass().ci(t);
      late += at.mean / static_cast<double>(k_late_window);
      late_half_width += at.half_width / static_cast<double>(k_late_window);
    }
    const double bytes_per_round = cost.find_scalar("bytes_per_round")->value;
    table.add_row({c.name, fmt_pm(late, late_half_width),
                   fmt(scalars.regret_stats().mean(), 4),
                   fmt(cost.find_scalar("messages_per_node_round")->value, 2),
                   fmt(bytes_per_round * static_cast<double>(k_rounds) / 1024.0, 0),
                   fmt(cost.find_scalar("drop_rate")->value, 3),
                   bench::verdict(late > 0.6)});
  }
  bench::emit(table, options);
  std::printf("N = %zu nodes, %llu rounds, m = 3 'channels', eta = (0.9, 0.4, 0.4), "
              "beta = 0.65; nodes start uncommitted.\nShape: loss and crashes slow "
              "convergence but do not break it; per-node state is a single int "
              "throughout.\n",
              k_nodes, static_cast<unsigned long long>(k_rounds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sgl::bench::make_standard_flags(
      "e14_sensor_network", "Distributed MWU over a lossy sensor network", 30);
  sgl::bench::standard_options options;
  int exit_code = 0;
  if (!sgl::bench::parse_standard(flags, argc, argv, options, exit_code)) return exit_code;
  return run(options);
}
