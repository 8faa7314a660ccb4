// Sensor-network channel selection — the paper's converse (§1, §6):
// "the learning dynamics in social groups considered here can inform novel,
// low-memory, low-communication, distributed implementations of the MWU
// algorithm in the stochastic setting; perhaps appropriate for low-power
// devices in distributed settings such as sensor networks or the
// internet-of-things."
//
// 150 battery-powered sensors on a 15x10 grid must converge on the least
// congested of 4 radio channels.  Each node stores ONE integer (its current
// channel), wakes once per round, asks a random grid neighbour which
// channel it uses, senses that channel, and commits with probability
// beta/alpha.  Links are lossy; a fifth of the fleet dies mid-run.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/probe.h"
#include "scenario/scenario.h"
#include "support/table.h"

int main() {
  using namespace sgl;

  // The whole deployment is one protocol-engine spec.
  scenario::scenario_spec spec;
  spec.name = "sensor_channels";
  spec.engine = scenario::engine_kind::protocol;
  spec.environment.etas = {0.9, 0.55, 0.5, 0.45};  // clear-air probability per channel
  spec.params = core::theorem_params(spec.environment.etas.size(), 0.65);
  spec.num_agents = 150;
  spec.topology.family = scenario::topology_spec::family_kind::grid;
  spec.topology.rows = 15;
  spec.topology.cols = 10;
  spec.protocol.round_interval = 1.0;      // one wakeup per second
  spec.protocol.sticky = true;             // a radio must stay on *some* channel
  spec.protocol.base_latency = 0.02;
  spec.protocol.jitter_mean = 0.03;
  spec.protocol.drop_probability = 0.15;   // lossy radio links
  scenario::fault_action_spec battery_deaths;
  battery_deaths.kind = scenario::fault_action_spec::action_kind::crash_wave;
  battery_deaths.at = 120.0;               // two minutes in...
  battery_deaths.fraction = 0.2;           // ...a fifth of the fleet dies
  spec.faults.actions.push_back(battery_deaths);

  core::run_config config;
  config.horizon = 240;
  config.replications = 1;
  config.seed = 2718;
  const std::vector<std::string> probes{"regret", "trajectory", "adoption", "message_cost"};

  std::printf("Channel selection on a 15x10 sensor grid (%llu nodes, 4 channels,\n"
              "clear-air probabilities 0.9/0.55/0.5/0.45, 15%% packet loss, 20%% of\n"
              "nodes die at round 120).  Per-node state: one int.\n\n",
              static_cast<unsigned long long>(spec.num_agents));

  const core::probe_list merged = scenario::run_probes(spec, config, probes);
  const auto& scalars = dynamic_cast<const core::regret_probe&>(*merged[0]);
  const auto& curves = dynamic_cast<const core::trajectory_probe&>(*merged[1]);
  const core::probe_report adoption = merged[2]->report();
  const core::probe_report cost = merged[3]->report();

  text_table table{{"round", "share on best channel"}};
  for (const std::size_t round : {1U, 30U, 60U, 120U, 121U, 180U, 240U}) {
    table.add_row({std::to_string(round), fmt(curves.best_mass().mean(round - 1), 3)});
  }
  table.print(std::cout);

  const double rounds = static_cast<double>(config.horizon);
  std::printf("\ncommitted share: %.3f averaged over the run, %.3f at the end; "
              "%.0f%% of nodes alive\n",
              adoption.find_scalar("committed_fraction")->value,
              adoption.find_scalar("final_committed_fraction")->value,
              100.0 * adoption.find_scalar("final_alive_fraction")->value);
  std::printf("network cost: %.0f messages (%.1f kB), %.2f msgs/node/round, "
              "%.1f%% dropped\n",
              cost.find_scalar("messages_per_round")->value * rounds,
              cost.find_scalar("bytes_per_round")->value * rounds / 1024.0,
              cost.find_scalar("messages_per_node_round")->value,
              100.0 * cost.find_scalar("drop_rate")->value);
  std::printf("average regret vs always-best-channel: %.4f\n", scalars.regret_stats().mean());
  std::printf("\nThe fleet herds onto the clear channel and re-converges after the "
              "crash wave,\nwith two tiny message types and no routing, tables, or "
              "weight vectors anywhere.\n");
  return 0;
}
