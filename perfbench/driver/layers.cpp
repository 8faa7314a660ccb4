#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>

#include "core/finite_dynamics.h"
#include "protocol/protocol_engine.h"
#include "scenario/registry.h"
#include "scenario/serialize.h"
#include "service/digest.h"
#include "service/job_queue.h"
#include "service/payload.h"
#include "service/service.h"
#include "service/socket.h"
#include "support/json.h"
#include "support/parallel.h"

namespace perfbench {

namespace scn = sgl::scenario;
namespace svc = sgl::service;

job_spec make_job(const std::string& scenario_name, const std::vector<std::string>& sweep_axes,
                  std::uint64_t horizon, std::uint64_t replications, std::uint64_t seed) {
  job_spec job;
  // Through the canonical text, exactly as the daemon receives the spec.
  job.base = scn::parse_scenario(scn::serialize_scenario(scn::get_scenario(scenario_name)));
  job.sweep_axes = sweep_axes;
  std::vector<scn::sweep_axis> axes;
  for (const std::string& axis : sweep_axes) axes.push_back(scn::parse_sweep_axis(axis));
  if (!axes.empty()) job.grid = scn::expand_sweep(axes);
  job.config.horizon = horizon;
  job.config.replications = replications;
  job.config.seed = seed;
  return job;
}

std::string submit_line(const job_spec& job) {
  std::ostringstream out;
  sgl::json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("op").value("submit");
  json.key("spec").value(scn::serialize_scenario(job.base));
  json.key("sweep").begin_array();
  for (const std::string& axis : job.sweep_axes) json.value(axis);
  json.end_array();
  json.key("horizon").value(job.config.horizon);
  json.key("replications").value(job.config.replications);
  json.key("seed").value(job.config.seed);
  if (!job.probe_specs.empty()) {
    json.key("probes").begin_array();
    for (const std::string& probe : job.probe_specs) json.value(probe);
    json.end_array();
  }
  json.end_object();
  return std::move(out).str();
}

std::pair<std::string, std::string> payload_of(const scn::scenario_spec& point_spec,
                                               const job_spec& job,
                                               const sgl::core::probe_list& merged) {
  scn::scenario_spec spec = point_spec;
  spec.prebuilt_graph = nullptr;  // a runtime handle; never part of the digest
  const svc::digest128 digest = svc::spec_digest(spec, job.config, job.probe_specs);
  return {digest.hex(), svc::build_point_payload(digest, spec, job.config, job.probe_specs,
                                                 sgl::core::collect_reports(merged))};
}

const sgl::json_value& member(const sgl::json_value& object, std::string_view key) {
  const sgl::json_value* value = object.find(key);
  if (value == nullptr) throw std::runtime_error{"reply without '" + std::string{key} + "'"};
  return *value;
}

std::string event_payload(const std::string& line) {
  // The payload is the last member of the event object and is embedded
  // verbatim (session: json.key("result").raw(payload)).
  static constexpr std::string_view k_key = ",\"result\":";
  const std::size_t at = line.find(k_key);
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  const std::size_t begin = at + k_key.size();
  return line.substr(begin, line.size() - 1 - begin);
}

namespace {

/// Runs `call`, adding its duration to `leaf` when tracing.
template <typename Call>
void timed(bool on, leaf_accumulator& leaf, Call&& call) {
  if (!on) {
    call();
    return;
  }
  const std::int64_t start = now_ns();
  call();
  leaf.add(start, now_ns());
}

std::uint64_t csr_bytes(const sgl::graph::graph& graph) {
  return graph.offsets().size() * sizeof(std::size_t) +
         graph.adjacency().size() * sizeof(sgl::graph::graph::vertex);
}

/// Computed bytes the step touches: the O(m) popularity/count vectors, the
/// agents' current and previous choices, and — with a graph — the CSR
/// arrays plus the committed-neighbour view (one packed row per vertex at
/// m = 2, m rows otherwise).
std::uint64_t working_set(const scn::scenario_spec& spec, const sgl::graph::graph* topology) {
  const std::uint64_t m = spec.params.num_options;
  const std::uint64_t n = spec.num_agents;
  std::uint64_t bytes = 4 * m * sizeof(double);
  if (scn::resolved_engine(spec) == scn::engine_kind::aggregate) return bytes;
  bytes += 2 * n * sizeof(std::int32_t);
  if (topology != nullptr) {
    bytes += csr_bytes(*topology) + n * sizeof(std::uint32_t) * (m == 2 ? 1 : m);
  }
  return bytes;
}

}  // namespace

std::shared_ptr<const sgl::graph::graph> hand_runner::graph_for(const scn::scenario_spec& spec) {
  // The same sharing key idea as shared_topology: N plus the topology
  // fields.  Built uncached so the build shows as its own span.
  std::string key = std::to_string(spec.num_agents);
  for (const auto& [field, value] : scn::scenario_fields(spec)) {
    if (field.rfind("topology.", 0) == 0) key += "|" + field + "=" + value;
  }
  auto& slot = graphs_[key];
  if (slot == nullptr) {
    scoped_span span{trace_, layer::graph_build};
    slot = std::make_shared<const sgl::graph::graph>(
        scn::build_topology(spec.topology, static_cast<std::size_t>(spec.num_agents)));
    counts_.graph_bytes += csr_bytes(*slot);
  }
  return slot;
}

void hand_runner::run_job(const job_spec& job, const payload_map& reference,
                          run_result& result) {
  for (std::size_t p = 0; p < job.points(); ++p) {
    scoped_span point_span{trace_, layer::point};
    scn::scenario_spec spec = job.base;
    {
      scoped_span span{trace_, layer::prepare};
      if (!job.grid.empty()) {
        for (const auto& [key, value] : job.grid[p]) scn::apply_override(spec, key, value);
      }
      scn::validate_spec(spec);
    }
    svc::digest128 digest;
    {
      scoped_span span{trace_, layer::digest};
      digest = svc::spec_digest(spec, job.config, job.probe_specs);
    }
    std::optional<std::string> cached;
    {
      scoped_span span{trace_, layer::store_get};
      cached = store_.get(digest);
    }
    std::string payload;
    if (cached) {
      payload = std::move(*cached);
    } else {
      payload = compute_point(spec, job, digest);
      scoped_span span{trace_, layer::store_put};
      store_.put(digest, payload);
    }
    const auto expected = reference.find(digest.hex());
    result.check(expected != reference.end() && expected->second == payload,
                 "traced payload differs from the untraced run for digest " + digest.hex());
  }
}

std::string hand_runner::compute_point(const scn::scenario_spec& spec, const job_spec& job,
                                       const svc::digest128& digest) {
  ++counts_.computed_points;
  scn::scenario_spec run_spec = spec;
  if (spec.topology.family != scn::topology_spec::family_kind::none) {
    run_spec.prebuilt_graph = graph_for(spec);
  }
  const sgl::graph::graph* topology = run_spec.prebuilt_graph.get();
  counts_.working_set_bytes = std::max(counts_.working_set_bytes, working_set(spec, topology));

  sgl::core::engine_factory make_engine;
  sgl::core::env_factory make_env;
  sgl::core::probe_list prototypes;
  {
    scoped_span span{trace_, layer::prepare};
    make_engine = scn::make_engine(run_spec);
    make_env = scn::make_environment(run_spec.environment);
    const std::vector<std::string> probes = svc::resolved_probes(spec, job.probe_specs);
    prototypes = sgl::core::make_probes(probes);
  }

  // The sweep scheduler's fixed shard decomposition and per-replication
  // streams, walked in shard order on one thread: one context, built once
  // and reset between replications when both sides are reusable.
  const sgl::core::run_config& config = job.config;
  const auto replications = static_cast<std::size_t>(config.replications);
  const sgl::shard_layout layout = sgl::reduce_layout(replications);
  std::vector<sgl::core::probe_list> shards(layout.shard_count);
  for (auto& shard : shards) {
    for (const auto& prototype : prototypes) shard.push_back(prototype->clone());
  }
  std::unique_ptr<sgl::env::reward_model> environment;
  std::unique_ptr<sgl::core::dynamics_engine> engine;
  bool reusable = false;
  for (std::size_t s = 0; s < layout.shard_count; ++s) {
    const std::size_t lo = s * layout.chunk;
    const std::size_t hi = std::min(replications, lo + layout.chunk);
    for (std::size_t replication = lo; replication < hi; ++replication) {
      if (engine == nullptr || !reusable) {
        scoped_span span{trace_, layer::context_build};
        environment = make_env();
        engine = make_engine();
        if (environment->num_options() != engine->num_options()) {
          throw std::invalid_argument{"engine/environment option-count mismatch"};
        }
        if (auto* agents = dynamic_cast<sgl::core::finite_dynamics*>(engine.get())) {
          agents->set_threads(1);  // layer times are single-threaded
        }
        reusable = engine->reusable() && environment->reusable();
        rewards_.assign(environment->num_options(), 0);
        q_prev_.assign(environment->num_options(), 0.0);
      } else {
        scoped_span span{trace_, layer::reset};
        engine->reset();
        environment->reset();
      }
      run_replication(*engine, *environment, config, replication, shards[s], topology,
                      spec.num_agents);
    }
  }
  engine.reset();
  environment.reset();

  sgl::core::probe_list merged;
  {
    scoped_span span{trace_, layer::probe_merge};
    merged = std::move(shards[0]);
    for (std::size_t s = 1; s < shards.size(); ++s) {
      for (std::size_t i = 0; i < merged.size(); ++i) merged[i]->merge(*shards[s][i]);
    }
  }
  scoped_span span{trace_, layer::payload_encode};
  std::string payload = svc::build_point_payload(digest, spec, config, job.probe_specs,
                                                 sgl::core::collect_reports(merged));
  counts_.payload_bytes += payload.size();
  return payload;
}

void hand_runner::run_replication(sgl::core::dynamics_engine& engine,
                                  sgl::env::reward_model& environment,
                                  const sgl::core::run_config& config,
                                  std::uint64_t replication,
                                  const sgl::core::probe_list& probes,
                                  const sgl::graph::graph* topology,
                                  std::uint64_t agent_count) {
  scoped_span replication_span{trace_, layer::replication};
  const bool on = trace_.on();
  const bool protocol = dynamic_cast<const sgl::protocol::protocol_engine*>(&engine) != nullptr;
  // The choice diff feeds the delta-walk counts, so only network steps pay
  // for it.
  const auto* agents = on && topology != nullptr
                           ? dynamic_cast<const sgl::core::finite_dynamics*>(&engine)
                           : nullptr;
  leaf_accumulator sample_leaf;
  leaf_accumulator step_leaf;
  leaf_accumulator on_step_leaf;
  leaf_accumulator edges_leaf;
  leaf_accumulator bookkeeping_leaf;

  // replication_context::run, call for call.
  sgl::rng reward_gen = sgl::rng::from_stream(config.seed, 2 * replication);
  sgl::rng process_gen = sgl::rng::from_stream(config.seed, 2 * replication + 1);
  timed(on, edges_leaf, [&] {
    for (const auto& probe : probes) probe->begin_replication(config.horizon);
  });
  for (std::uint64_t t = 1; t <= config.horizon; ++t) {
    const auto popularity = engine.popularity();
    std::copy(popularity.begin(), popularity.end(), q_prev_.begin());
    timed(on, sample_leaf, [&] { environment.sample(t, reward_gen, rewards_); });
    if (agents != nullptr) {
      timed(on, bookkeeping_leaf, [&] {
        const auto choices = agents->choices();
        previous_choices_.assign(choices.begin(), choices.end());
      });
    }
    const std::int64_t busy_before = step_leaf.busy_ns;
    timed(on, step_leaf, [&] { engine.step(rewards_, process_gen); });
    if (on && !protocol) {
      counts_.agent_steps += agent_count;
      if (topology != nullptr) counts_.network_step_ns += step_leaf.busy_ns - busy_before;
    }
    if (agents != nullptr) {
      timed(on, bookkeeping_leaf, [&] {
        const auto choices = agents->choices();
        const auto offsets = topology->offsets();
        for (std::size_t i = 0; i < choices.size(); ++i) {
          if (choices[i] == previous_choices_[i]) continue;
          ++counts_.changed_agents;
          counts_.delta_edges += offsets[i + 1] - offsets[i];
        }
      });
    }
    const sgl::core::probe_step_view view{.t = t,
                                          .horizon = config.horizon,
                                          .popularity_before = q_prev_,
                                          .rewards = rewards_,
                                          .engine = engine,
                                          .environment = environment};
    timed(on, on_step_leaf, [&] {
      for (const auto& probe : probes) probe->on_step(view);
    });
  }
  timed(on, edges_leaf, [&] {
    for (const auto& probe : probes) {
      probe->end_replication(engine, environment, config.horizon);
    }
  });
  trace_.add_leaf(layer::env_sample, sample_leaf);
  trace_.add_leaf(protocol ? layer::protocol_round : layer::engine_step, step_leaf);
  trace_.add_leaf(layer::probe_on_step, on_step_leaf);
  trace_.add_leaf(layer::probe_edges, edges_leaf);
  trace_.add_leaf(layer::bookkeeping, bookkeeping_leaf);
}

// --- session replay ----------------------------------------------------------

namespace {

/// Reader side of the socketpair: parses the session's event lines and
/// checks them; the main thread waits on `done` for the closed loop.
struct replay_reader {
  explicit replay_reader(const payload_map& expected) : reference{expected} {}

  const payload_map& reference;
  std::mutex mutex;
  std::condition_variable settled;
  std::size_t jobs_settled = 0;
  std::uint64_t hits = 0;
  std::vector<std::string> failures;
  std::map<std::uint64_t, std::vector<std::string>> digests;  // job -> per-point digest

  void fail(std::string what) {
    const std::lock_guard<std::mutex> lock{mutex};
    failures.push_back(std::move(what));
  }

  void settle() {
    {
      const std::lock_guard<std::mutex> lock{mutex};
      ++jobs_settled;
    }
    settled.notify_all();
  }

  void handle(const std::string& line) {
    const sgl::json_value event = sgl::parse_json(line);
    const std::string& kind = member(event, "event").as_string("event");
    if (kind == "job_accepted") {
      std::vector<std::string>& list = digests[member(event, "job").as_uint64("job")];
      for (const auto& item : member(event, "digests").items) {
        list.push_back(item.as_string("digest"));
      }
    } else if (kind == "cache_hit") {
      const auto& list = digests[member(event, "job").as_uint64("job")];
      const std::uint64_t point = member(event, "point").as_uint64("point");
      const auto expected = point < list.size() ? reference.find(list[point]) : reference.end();
      if (expected == reference.end() || expected->second != event_payload(line)) {
        fail("replay: cache_hit payload differs from the untraced run");
      }
      const std::lock_guard<std::mutex> lock{mutex};
      ++hits;
    } else if (kind == "job_done") {
      const std::uint64_t total = member(event, "total").as_uint64("total");
      const std::uint64_t computed = member(event, "computed").as_uint64("computed");
      const std::uint64_t cached = member(event, "cached").as_uint64("cached");
      if (member(event, "status").as_string("status") != "done" || computed + cached != total ||
          computed != 0) {
        fail("replay: job_done " + line);
      }
      settle();
    } else {
      fail("replay: unexpected event " + line.substr(0, 200));
      if (kind == "error" || kind == "job_rejected") settle();
    }
  }
};

}  // namespace

replay_stats replay_through_session(tracer& trace, const std::string& store_dir,
                                    const std::vector<const job_spec*>& jobs,
                                    const payload_map& reference, unsigned threads,
                                    run_result& result) {
  replay_stats stats;
  svc::result_store store{store_dir};
  svc::job_queue queue{store, threads};

  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    throw std::runtime_error{"socketpair failed"};
  }
  svc::unix_fd write_end{pair[0]};
  svc::unix_fd read_end{pair[1]};

  replay_reader reader{reference};
  std::thread reader_thread{[&] {
    try {
      svc::line_reader lines;
      while (std::optional<std::string> line = lines.next_line(read_end.get())) {
        reader.handle(*line);
      }
    } catch (const std::exception& e) {
      reader.fail(std::string{"replay reader: "} + e.what());
      reader.settle();
    }
  }};
  struct reader_joiner {
    std::thread& thread;
    int fd;
    ~reader_joiner() {
      ::shutdown(fd, SHUT_RDWR);  // the reader sees end-of-stream
      thread.join();
    }
  } join_reader{reader_thread, write_end.get()};

  // Event lines are written from the calling thread (job_accepted, inside
  // handle_line) and from the queue's dispatcher (cache_hit, job_done).
  // Calling-thread writes become leaves of the submit span; the others are
  // added under the replay root at the end.
  const std::thread::id main_thread = std::this_thread::get_id();
  std::mutex writes_mutex;
  leaf_accumulator main_writes;
  leaf_accumulator other_writes;
  std::uint64_t socket_bytes = 0;
  svc::session_options options;
  options.write_line = [&](std::string_view line) {
    std::string out{line};
    out += '\n';
    const std::int64_t start = now_ns();
    const bool ok = svc::write_all(write_end.get(), out);
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock{writes_mutex};
    (std::this_thread::get_id() == main_thread ? main_writes : other_writes).add(start, end);
    socket_bytes += out.size();
    return ok;
  };

  scoped_span replay_span{trace, layer::replay};
  const std::int64_t start = now_ns();
  {
    svc::session session{queue, std::move(options)};
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::string line = submit_line(*jobs[j]);
      {
        scoped_span span{trace, layer::submit};
        session.handle_line(line);
        const std::lock_guard<std::mutex> lock{writes_mutex};
        trace.add_leaf(layer::socket_write, main_writes);
        main_writes = {};
      }
      std::unique_lock<std::mutex> lock{reader.mutex};
      if (!reader.settled.wait_for(lock, std::chrono::seconds{120},
                                   [&] { return reader.jobs_settled > j; })) {
        result.check(false, "replay: job " + std::to_string(j) + " timed out");
        break;
      }
      stats.points += jobs[j]->points();
    }
    session.finish();
  }
  stats.seconds = seconds_between(start, now_ns());
  {
    const std::lock_guard<std::mutex> lock{writes_mutex};
    trace.add_leaf(layer::socket_write, other_writes);
    stats.socket_bytes = socket_bytes;
  }
  {
    const std::lock_guard<std::mutex> lock{reader.mutex};
    for (const std::string& failure : reader.failures) result.check(false, failure);
    result.check(reader.hits == stats.points,
                 "replay: " + std::to_string(reader.hits) + " cache hits for " +
                     std::to_string(stats.points) + " points");
  }
  return stats;
}

namespace {

struct layer_inputs {
  trace_counts counts;
  replay_stats replay;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  double sweep_overlap = 0.0;
  double trace_overhead_frac = 0.0;
};

struct hand_pass_result {
  double seconds = 0.0;
  trace_counts counts;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
};

hand_pass_result hand_pass(tracer& trace, const std::string& store_dir,
                           const std::vector<const job_spec*>& jobs,
                           const payload_map& reference, run_result& result) {
  std::filesystem::remove_all(store_dir);
  svc::result_store store{store_dir};
  hand_runner runner{trace, store};
  hand_pass_result pass;
  const std::int64_t start = now_ns();
  {
    scoped_span root{trace, layer::pass};
    for (const job_spec* job : jobs) runner.run_job(*job, reference, result);
  }
  pass.seconds = seconds_between(start, now_ns());
  pass.counts = runner.counts();
  pass.store_hits = store.hits();
  pass.store_misses = store.misses();
  return pass;
}

void report_layer_metrics(const tracer& trace, const layer_inputs& in, run_result& result) {
  const auto totals = trace.totals();
  const auto self = [&](layer which) { return totals[static_cast<std::size_t>(which)].self_s; };
  const trace_counts& c = in.counts;
  const double step_ns = self(layer::engine_step) * 1e9;

  result.metric("graph.build_s", self(layer::graph_build), "s");
  result.metric("graph.bytes", static_cast<double>(c.graph_bytes), "bytes");
  result.metric("scenario.prepare_s", self(layer::prepare), "s");
  result.metric("experiment.context_build_s", self(layer::context_build), "s");
  result.metric("experiment.reset_s", self(layer::reset), "s");
  result.metric("env.sample_s", self(layer::env_sample), "s");
  result.metric("probe.on_step_s", self(layer::probe_on_step), "s");
  result.metric("probe.merge_s", self(layer::probe_merge), "s");
  result.metric("engine.step_s", self(layer::engine_step), "s");
  result.metric("engine.step_ns_per_agent",
                c.agent_steps > 0 ? step_ns / static_cast<double>(c.agent_steps) : 0.0, "ns");
  result.metric("engine.changed_agents", static_cast<double>(c.changed_agents), "count");
  result.metric("engine.delta_edges", static_cast<double>(c.delta_edges), "count");
  result.metric("engine.working_set_bytes", static_cast<double>(c.working_set_bytes), "bytes");
  result.metric("engine.ns_per_delta_edge",
                c.delta_edges > 0 ? static_cast<double>(c.network_step_ns) /
                                        static_cast<double>(c.delta_edges)
                                  : 0.0,
                "ns");
  result.metric("sweep.overlap", in.sweep_overlap, "ratio");
  result.metric("protocol.round_s", self(layer::protocol_round), "s");
  result.metric("service.submit_s", self(layer::submit), "s");
  result.metric("service.digest_s", self(layer::digest), "s");
  result.metric("service.payload_encode_s", self(layer::payload_encode), "s");
  result.metric("service.payload_bytes", static_cast<double>(c.payload_bytes), "bytes");
  result.metric("service.store_put_s", self(layer::store_put), "s");
  result.metric("service.store_get_s", self(layer::store_get), "s");
  result.metric("service.store_hits", static_cast<double>(in.store_hits), "count");
  result.metric("service.store_misses", static_cast<double>(in.store_misses), "count");
  const std::uint64_t lookups = in.store_hits + in.store_misses;
  result.metric("service.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(in.store_hits) / static_cast<double>(lookups)
                            : 0.0,
                "frac");
  result.metric("service.socket_write_s", self(layer::socket_write), "s");
  result.metric("service.socket_bytes", static_cast<double>(in.replay.socket_bytes), "bytes");
  result.metric("service.warm_points_per_s",
                in.replay.seconds > 0.0
                    ? static_cast<double>(in.replay.points) / in.replay.seconds
                    : 0.0,
                "1/s");
  result.metric("trace_overhead_frac", in.trace_overhead_frac, "frac");
}

}  // namespace

void run_traced_layers(const std::vector<const job_spec*>& jobs, const payload_map& reference,
                       double sweep_overlap, std::uint64_t designed_hits, unsigned threads,
                       run_result& result) {
  tracer off{false};
  const hand_pass_result untraced = hand_pass(off, "store-untraced", jobs, reference, result);
  tracer trace{true};
  const hand_pass_result traced = hand_pass(trace, "store-traced", jobs, reference, result);

  layer_inputs inputs;
  inputs.counts = traced.counts;
  inputs.store_hits = traced.store_hits;
  inputs.store_misses = traced.store_misses;
  inputs.sweep_overlap = sweep_overlap;
  inputs.trace_overhead_frac = (traced.seconds - untraced.seconds) / untraced.seconds;
  result.check(traced.counts.computed_points == reference.size(),
               "traced pass computed " + std::to_string(traced.counts.computed_points) +
                   " points, the untraced run " + std::to_string(reference.size()));
  result.check(traced.store_hits == designed_hits,
               "traced pass: " + std::to_string(traced.store_hits) + " store hits, " +
                   std::to_string(designed_hits) + " designed");
  inputs.replay = replay_through_session(trace, "store-traced", jobs, reference, threads, result);

  print_layer_table(trace);
  std::printf("hand pass: untraced %.3f s, traced %.3f s; replay %.3f s\n", untraced.seconds,
              traced.seconds, inputs.replay.seconds);
  trace.write_jsonl("spans.jsonl");
  report_layer_metrics(trace, inputs, result);
}

}  // namespace perfbench
