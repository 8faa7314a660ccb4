// The service workload: the real sociolearnd on a fresh store, one client
// connection in a closed loop (the next submit goes out after job_done,
// as `sociolearn_cli submit` blocks), a seeded mix of small jobs with
// repeats, then a warm pass that replays every job against the full store.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include <sys/socket.h>

#include "layers.h"
#include "process.h"
#include "service/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = sgl::service;

struct service_request {
  const job_spec* job = nullptr;
  std::string line;  ///< the submit request
};

/// The request file of a seed.  Its composition is fixed, so every seed
/// asks for the same amount of work: unique job u is a quickstart beta
/// sub-sweep when u mod 5 < 3 (60%), a network_ring_1e5 sweep when it is 3
/// and a gossip_ring_300 sweep when it is 4 (20% each), with a point count
/// and run shape fixed by u; repeat r re-submits unique job 3r mod U
/// exactly, so about 40% of all jobs are repeats.  The seed chooses the
/// beta values and run seeds (each unique job has its own, so no two share
/// a point), the order of the unique jobs, and where each repeat lands
/// after its original.
struct request_file {
  std::vector<job_spec> unique_jobs;
  std::vector<service_request> requests;
  std::uint64_t designed_hits = 0;  ///< points of the repeat jobs
  std::uint64_t unique_points = 0;
  std::uint64_t total_points = 0;
};

request_file make_requests(const options& opts) {
  input_stream inputs{opts.seed ^ 0x5e41ce};
  const std::size_t uniques = opts.toy ? 12 : 144;
  const std::size_t repeats = opts.toy ? 8 : 96;
  request_file file;
  file.unique_jobs.reserve(uniques);
  for (std::size_t u = 0; u < uniques; ++u) {
    const std::size_t shape = u / 5;
    if (u % 5 < 3) {
      const std::size_t points = 4 + shape % 5;
      const std::uint64_t horizon = opts.toy ? 50 : 800 + 400 * (shape % 3);
      const std::uint64_t replications = shape % 2 == 0 ? 8 : 16;
      const std::string axis = beta_axis(inputs, points, 0.55, 0.16 / static_cast<double>(points));
      file.unique_jobs.push_back(
          make_job("quickstart", {axis}, horizon, replications, run_seed(inputs)));
    } else {
      const bool ring = u % 5 == 3;
      const std::size_t points = 2 + shape % 3;
      const std::string axis = beta_axis(inputs, points, 0.55, 0.16 / static_cast<double>(points));
      const std::uint64_t horizon = ring ? (opts.toy ? 3 : 40) : (opts.toy ? 5 : 80);
      file.unique_jobs.push_back(make_job(ring ? "network_ring_1e5" : "gossip_ring_300", {axis},
                                          horizon, 2, run_seed(inputs)));
    }
    file.unique_points += file.unique_jobs.back().points();
  }

  std::vector<std::size_t> order(uniques);  // unique job indices, seeded shuffle
  for (std::size_t i = 0; i < uniques; ++i) order[i] = i;
  for (std::size_t i = uniques - 1; i > 0; --i) std::swap(order[i], order[inputs.between(0, i)]);
  std::vector<std::pair<std::size_t, bool>> sequence;  // (unique index, repeat)
  for (const std::size_t u : order) sequence.emplace_back(u, false);
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::size_t origin = (3 * r) % uniques;
    std::size_t at = 0;
    while (sequence[at].first != origin || sequence[at].second) ++at;
    sequence.insert(sequence.begin() + static_cast<std::ptrdiff_t>(
                                           inputs.between(at + 1, sequence.size())),
                    {origin, true});
  }
  for (const auto& [u, repeat] : sequence) {
    service_request request;
    request.job = &file.unique_jobs[u];
    request.line = submit_line(*request.job);
    if (repeat) file.designed_hits += request.job->points();
    file.total_points += request.job->points();
    file.requests.push_back(std::move(request));
  }
  return file;
}

/// `sociolearnd --socket` on its own store directory, once it is ready.
ready_process spawn_daemon(const options& opts, const std::string& dir, unsigned threads) {
  return ready_process{{opts.daemon_path, "--socket", dir + "/d.sock", "--store", dir + "/store",
                        "--threads", std::to_string(threads)},
                       dir + "/daemon.log", "\"ready\""};
}

/// One client connection; reads time out after 60 s.
class client {
 public:
  explicit client(const std::string& socket_path) : fd_{svc::unix_connect(socket_path)} {
    timeval timeout{60, 0};
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  void send(const std::string& line) {
    if (!svc::write_all(fd_.get(), line + "\n")) throw std::runtime_error{"daemon hung up"};
  }

  std::string next() {
    std::optional<std::string> line = reader_.next_line(fd_.get());
    if (!line) throw std::runtime_error{"daemon closed the connection"};
    return std::move(*line);
  }

 private:
  svc::unix_fd fd_;
  svc::line_reader reader_;
};

/// The daemon's worker threads: one core is left to the client and the
/// daemon's own session and dispatcher threads, so the workload never asks
/// for more runnable threads than there are cores.
unsigned worker_threads(const options& opts) { return opts.threads > 1 ? opts.threads - 1 : 1; }

struct pass_stats {
  double seconds = 0.0;
  std::uint64_t points = 0;
  std::uint64_t hits = 0;
  std::uint64_t computed = 0;
  double point_seconds = 0.0;  ///< Σ point_done `seconds`
  std::vector<double> point_latency_ms;
  std::vector<double> job_latency_ms;
};

/// Submits every request closed-loop and checks each event.  Computed
/// payloads are recorded into `reference` the first time a digest is seen
/// and compared with it afterwards; every cache_hit must equal it.
pass_stats run_pass(client& conn, const request_file& file, payload_map& reference, bool warm,
                    run_result& result) {
  pass_stats pass;
  const std::int64_t pass_start = now_ns();
  for (const service_request& request : file.requests) {
    const std::size_t points = request.job->points();
    result.add_attempted(1 + points);
    conn.send(request.line);
    const std::int64_t submitted = now_ns();
    std::vector<std::string> digests;
    std::size_t delivered = 0;
    bool done = false;
    while (!done) {
      const std::string line = conn.next();
      const std::int64_t read_at = now_ns();
      const sgl::json_value event = sgl::parse_json(line);
      const std::string& kind = member(event, "event").as_string("event");
      if (kind == "job_accepted") {
        for (const auto& item : member(event, "digests").items) {
          digests.push_back(item.as_string("digest"));
        }
        result.check(digests.size() == points, "job_accepted lists the wrong number of digests");
      } else if (kind == "cache_hit" || kind == "point_done") {
        const std::uint64_t point = member(event, "point").as_uint64("point");
        if (point >= digests.size()) {
          result.check(false, "point event outside the job's grid: " + line.substr(0, 120));
          continue;
        }
        ++delivered;
        pass.point_latency_ms.push_back(seconds_between(submitted, read_at) * 1e3);
        const std::string payload = event_payload(line);
        const auto known = reference.find(digests[point]);
        if (kind == "cache_hit") {
          ++pass.hits;
          result.check(known != reference.end() && known->second == payload,
                       "cache_hit payload differs from the point_done of digest " +
                           digests[point]);
        } else {
          ++pass.computed;
          pass.point_seconds += member(event, "seconds").as_double("seconds");
          result.check(!warm, "warm pass recomputed digest " + digests[point]);
          if (known == reference.end()) {
            reference.emplace(digests[point], payload);
          } else {
            result.check(known->second == payload,
                         "recomputed payload differs for digest " + digests[point]);
          }
        }
      } else if (kind == "job_done") {
        pass.job_latency_ms.push_back(seconds_between(submitted, read_at) * 1e3);
        const std::uint64_t total = member(event, "total").as_uint64("total");
        const std::uint64_t computed = member(event, "computed").as_uint64("computed");
        const std::uint64_t cached = member(event, "cached").as_uint64("cached");
        const bool ok = member(event, "status").as_string("status") == "done" &&
                        computed + cached == total && total == points && delivered == points;
        result.check(ok, "job_done does not account for every point: " + line);
        if (!ok) result.add_failed(1 + points - std::min(delivered, points));
        done = true;
      } else {
        result.check(false, "unexpected event: " + line.substr(0, 200));
        if (kind == "job_rejected" || kind == "error") {
          result.add_failed(1 + points - std::min(delivered, points));
          done = true;
        }
      }
    }
    pass.points += points;
  }
  pass.seconds = seconds_between(pass_start, now_ns());
  return pass;
}

/// `sociolearn_cli fsck` on a quiescent store: clean, nothing quarantined,
/// one object per unique point.
void check_fsck(const options& opts, const std::string& store, std::uint64_t objects,
                run_result& result) {
  const std::string command = "'" + opts.cli_path + "' fsck --store '" + store + "' --format json";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    result.check(false, "cannot run fsck");
    return;
  }
  std::string text;
  char buffer[4096];
  while (const std::size_t got = std::fread(buffer, 1, sizeof buffer, pipe)) {
    text.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  bool ok = status == 0;
  try {
    const sgl::json_value report = sgl::parse_json(text);
    ok = ok && member(report, "clean").as_bool("clean") &&
         member(report, "objects_ok").as_uint64("objects_ok") == objects &&
         member(report, "quarantined").as_uint64("quarantined") == 0;
  } catch (const std::exception&) {
    ok = false;
  }
  result.check(ok, "fsck of " + store + " is not clean: " + text);
}

struct round_stats {
  double setup_seconds = 0.0;
  pass_stats mixed;
  pass_stats warm;
  double cpu_seconds = 0.0;
  double daemon_peak_rss_mb = 0.0;
};

/// A fresh store and daemon, the mixed pass, the warm pass, a clean stop
/// and fsck.
round_stats run_round(const options& opts, std::size_t index, const request_file& file,
                      payload_map& reference, run_result& result) {
  const std::string dir = "svc-" + std::to_string(index);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  round_stats round;
  {
    ready_process daemon = spawn_daemon(opts, dir, worker_threads(opts));
    round.setup_seconds = daemon.ready_seconds();
    const double cpu_start = pid_cpu_seconds(daemon.pid()) + process_cpu_seconds();
    {
      client conn{dir + "/d.sock"};
      round.mixed = run_pass(conn, file, reference, /*warm=*/false, result);
      round.warm = run_pass(conn, file, reference, /*warm=*/true, result);
    }
    round.cpu_seconds = pid_cpu_seconds(daemon.pid()) + process_cpu_seconds() - cpu_start;
    round.daemon_peak_rss_mb = pid_peak_rss_mb(daemon.pid());
    result.check(daemon.stop(), "sociolearnd did not drain and exit 0 on SIGTERM");
  }
  result.check(round.mixed.hits == file.designed_hits,
               "mixed pass: " + std::to_string(round.mixed.hits) + " cache hits, " +
                   std::to_string(file.designed_hits) + " designed");
  result.check(round.mixed.computed == file.unique_points,
               "mixed pass computed " + std::to_string(round.mixed.computed) + " points, " +
                   std::to_string(file.unique_points) + " unique");
  result.check(round.warm.hits == file.total_points, "warm pass missed the store");
  check_fsck(opts, dir + "/store", file.unique_points, result);
  std::filesystem::remove_all(dir);
  return round;
}

/// Extra set-up samples: spawn on a fresh store until `ready`, then kill.
std::vector<double> time_spawns(const options& opts, std::size_t count) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string dir = "spawn-" + std::to_string(i);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      ready_process daemon = spawn_daemon(opts, dir, worker_threads(opts));
      samples.push_back(daemon.ready_seconds());
      daemon.stop(/*graceful=*/false);
    }
    std::filesystem::remove_all(dir);
  }
  return samples;
}

void run_untraced(const options& opts, const request_file& file, run_result& result) {
  payload_map reference;
  std::vector<round_stats> rounds;
  std::vector<double> setups;
  const std::size_t min_rounds = opts.toy ? 1 : 3;
  const std::int64_t begin = now_ns();
  while (rounds.size() < min_rounds || seconds_between(begin, now_ns()) < opts.seconds) {
    // Extra set-up samples between rounds, so they see the same host state
    // as the rounds do.
    const std::vector<double> spawns = time_spawns(opts, 4);
    setups.insert(setups.end(), spawns.begin(), spawns.end());
    rounds.push_back(run_round(opts, rounds.size(), file, reference, result));
  }

  std::vector<double> rates;
  std::vector<double> warm_rates;
  std::vector<double> cpu;
  std::vector<double> point_latency_ms;
  std::vector<double> job_latency_ms;
  double daemon_rss = 0.0;
  for (const round_stats& round : rounds) {
    setups.push_back(round.setup_seconds);
    rates.push_back(static_cast<double>(round.mixed.points) / round.mixed.seconds);
    warm_rates.push_back(static_cast<double>(round.warm.points) / round.warm.seconds);
    cpu.push_back(round.cpu_seconds);
    point_latency_ms.insert(point_latency_ms.end(), round.mixed.point_latency_ms.begin(),
                            round.mixed.point_latency_ms.end());
    job_latency_ms.insert(job_latency_ms.end(), round.mixed.job_latency_ms.begin(),
                          round.mixed.job_latency_ms.end());
    daemon_rss = std::max(daemon_rss, round.daemon_peak_rss_mb);
  }
  std::printf("setup samples %zu, rounds %zu; per round %zu jobs, %llu point events "
              "(%llu designed hits); "
              "point-latency samples %zu, job-latency samples %zu\n",
              setups.size(), rounds.size(), file.requests.size(),
              static_cast<unsigned long long>(file.total_points),
              static_cast<unsigned long long>(file.designed_hits), point_latency_ms.size(),
              job_latency_ms.size());
  std::printf("warm pass: %.1f points/s (median of %zu)\nround points/s:", median(warm_rates),
              warm_rates.size());
  for (const double rate : rates) std::printf(" %.2f", rate);
  std::printf("\nset-up ms:");
  for (const double setup : setups) std::printf(" %.3f", setup * 1e3);
  std::printf("\n");
  result.metric("setup_s", median(setups), "s");
  result.metric("points_per_s", median(rates), "1/s");
  result.metric("cpu_s", median(cpu), "s");
  result.metric("peak_rss_mb", daemon_rss + process_peak_rss_mb(), "MiB");
  result.metric("point_latency_p50_ms", quantile(point_latency_ms, 0.5), "ms");
  result.metric("point_latency_p99_ms", quantile(point_latency_ms, 0.99), "ms");
  result.metric("job_latency_p50_ms", quantile(job_latency_ms, 0.5), "ms");
  result.metric("job_latency_p90_ms", quantile(job_latency_ms, 0.9), "ms");
}

void run_traced(const options& opts, const request_file& file, run_result& result) {
  // The untraced reference: one daemon round.
  payload_map reference;
  const round_stats round = run_round(opts, 0, file, reference, result);
  std::vector<const job_spec*> jobs;
  for (const service_request& request : file.requests) jobs.push_back(request.job);
  run_traced_layers(jobs, reference, round.mixed.point_seconds / round.mixed.seconds,
                    file.designed_hits, worker_threads(opts), result);
}

}  // namespace

void run_service_mix(const options& opts, run_result& result) {
  const request_file file = make_requests(opts);
  if (opts.trace) run_traced(opts, file, result);
  else run_untraced(opts, file, result);
}

}  // namespace perfbench
