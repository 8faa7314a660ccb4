#pragma once

/// \file layers.h
/// The traced path.  Every workload's traced run drives the program's
/// layers by hand, through the same public calls the sweep scheduler and
/// the job queue make, with a span around each call:
///
///   prepare → digest → store get → (on a miss) graph build → factories →
///   context build / reset → replications (env sample, engine step, probe
///   on_step) → shard merge → payload encode → store put
///
/// and then replays the workload's submissions through an in-process
/// session + job_queue over the filled store, with event lines written by
/// write_all on a socketpair.  Both halves check every payload byte for
/// byte against the untraced run's.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "graph/graph.h"
#include "scenario/scenario.h"
#include "service/result_store.h"
#include "support/json_parse.h"

namespace perfbench {

/// One submission: a base spec, its sweep axes, the expanded grid, the run
/// shape and the probe list.  The base never carries a prebuilt graph.
struct job_spec {
  sgl::scenario::scenario_spec base;
  std::vector<std::string> sweep_axes;  ///< "key=v1,v2,..." as sent on the wire
  std::vector<std::vector<std::pair<std::string, std::string>>> grid;
  sgl::core::run_config config;
  std::vector<std::string> probe_specs;

  [[nodiscard]] std::size_t points() const { return grid.empty() ? 1 : grid.size(); }
};

/// Builds a job from a registry scenario and sweep axes (grid in
/// expand_sweep order, the order the daemon uses).
[[nodiscard]] job_spec make_job(const std::string& scenario_name,
                                const std::vector<std::string>& sweep_axes,
                                std::uint64_t horizon, std::uint64_t replications,
                                std::uint64_t seed);

/// The submit request line sociolearnd parses for `job`.
[[nodiscard]] std::string submit_line(const job_spec& job);

/// Canonical payloads by digest hex.
using payload_map = std::unordered_map<std::string, std::string>;

/// The canonical payload of a run_sweep point result, as the job queue
/// would persist it.
[[nodiscard]] std::pair<std::string, std::string> payload_of(
    const sgl::scenario::scenario_spec& point_spec, const job_spec& job,
    const sgl::core::probe_list& merged);

/// `object[key]`; throws std::runtime_error naming the key when the
/// program's reply lacks it.
[[nodiscard]] const sgl::json_value& member(const sgl::json_value& object, std::string_view key);

/// The `result` object embedded in a cache_hit/point_done event line,
/// byte for byte; empty when the line has none.
[[nodiscard]] std::string event_payload(const std::string& line);

/// Counts gathered from outside the program while tracing.
struct trace_counts {
  std::uint64_t agent_steps = 0;      ///< Σ N over simulation-engine steps
  std::uint64_t changed_agents = 0;   ///< agents whose choice changed in a step
  std::uint64_t delta_edges = 0;      ///< Σ degree of the changed agents
  std::int64_t network_step_ns = 0;   ///< engine.step time on steps with a graph
  std::uint64_t working_set_bytes = 0;  ///< computed, max over points
  std::uint64_t graph_bytes = 0;      ///< computed CSR size, Σ distinct graphs
  std::uint64_t payload_bytes = 0;    ///< Σ encoded payload sizes
  std::uint64_t computed_points = 0;
};

/// The job queue's per-point logic, by hand and single-threaded.
class hand_runner {
 public:
  hand_runner(tracer& trace, sgl::service::result_store& store)
      : trace_{trace}, store_{store} {}

  /// Runs every point of `job` in grid order.  Each payload — computed or
  /// served from the store — must equal reference[digest].
  void run_job(const job_spec& job, const payload_map& reference, run_result& result);

  [[nodiscard]] const trace_counts& counts() const { return counts_; }

 private:
  std::string compute_point(const sgl::scenario::scenario_spec& spec, const job_spec& job,
                            const sgl::service::digest128& digest);
  void run_replication(sgl::core::dynamics_engine& engine, sgl::env::reward_model& environment,
                       const sgl::core::run_config& config, std::uint64_t replication,
                       const sgl::core::probe_list& probes, const sgl::graph::graph* topology,
                       std::uint64_t agent_count);
  std::shared_ptr<const sgl::graph::graph> graph_for(const sgl::scenario::scenario_spec& spec);

  tracer& trace_;
  sgl::service::result_store& store_;
  trace_counts counts_;
  std::map<std::string, std::shared_ptr<const sgl::graph::graph>> graphs_;
  std::vector<std::uint8_t> rewards_;
  std::vector<double> q_prev_;
  std::vector<std::int32_t> previous_choices_;
};

/// What the session replay measured besides its spans.
struct replay_stats {
  std::uint64_t points = 0;
  std::uint64_t socket_bytes = 0;
  double seconds = 0.0;
};

/// Replays `jobs` closed-loop (next submit after job_done) through an
/// in-process session + job_queue over the store at `store_dir`, which must
/// already hold every point: each must come back as a cache_hit whose
/// payload equals reference[digest], and each job as done with
/// computed + cached == total.
[[nodiscard]] replay_stats replay_through_session(tracer& trace, const std::string& store_dir,
                                                  const std::vector<const job_spec*>& jobs,
                                                  const payload_map& reference,
                                                  unsigned threads, run_result& result);

/// The traced half of every workload, after its untraced reference run:
/// a hand pass over `jobs` with tracing off and one with tracing on (each
/// into a fresh store), the session replay over the traced store, the
/// layer table, spans.jsonl, and every per-layer metric.  `sweep_overlap`
/// is Σ point seconds / wall of the reference run's scheduler.
/// `designed_hits` is the number of points the jobs repeat.
void run_traced_layers(const std::vector<const job_spec*>& jobs, const payload_map& reference,
                       double sweep_overlap, std::uint64_t designed_hits, unsigned threads,
                       run_result& result);

}  // namespace perfbench
