// Tests for the sociolearnd service layer: digest stability and
// sensitivity, the content-addressed result store (checksum trailers,
// quarantine, tmp GC, fsck), cache/resume semantics of the job queue
// (identical resubmission served entirely from cache, byte-identically; a
// partial store resumes by recomputing only the missing points),
// cancellation, priorities, bounded-queue backpressure, per-job timeouts,
// the wire session, and the fail-point-driven I/O edge paths.

#include "service/digest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "service/job_queue.h"
#include "service/payload.h"
#include "service/result_store.h"
#include "service/service.h"
#include "service/socket.h"
#include "support/failpoint.h"
#include "support/json.h"
#include "support/json_parse.h"

namespace sgl::service {
namespace {

/// A fresh per-test store directory under the gtest temp root.
std::filesystem::path fresh_store_root(const std::string& name) {
  const std::filesystem::path root =
      std::filesystem::path{testing::TempDir()} / ("sgl_service_" + name);
  std::filesystem::remove_all(root);
  return root;
}

scenario::scenario_spec test_spec() {
  return scenario::parse_scenario(
      "engine = \"agent_based\"\n"
      "num_agents = 40\n"
      "params.num_options = 3\n"
      "params.beta = 0.65\n"
      "environment.etas = [0.8, 0.5, 0.3]\n");
}

core::run_config test_config() {
  core::run_config config;
  config.horizon = 30;
  config.replications = 3;
  config.seed = 7;
  config.threads = 1;
  return config;
}

// --- spec_digest ------------------------------------------------------------

TEST(spec_digest, canonical_serialization_is_override_order_independent) {
  // The same overrides in two insertion orders: the canonical serialized
  // text and the digest must be byte-identical — key order is the
  // serializer's, never the caller's.
  scenario::scenario_spec a = test_spec();
  scenario::apply_override(a, "params.beta", "0.7");
  scenario::apply_override(a, "num_agents", "60");
  scenario::apply_override(a, "params.mu", "0.02");

  scenario::scenario_spec b = test_spec();
  scenario::apply_override(b, "params.mu", "0.02");
  scenario::apply_override(b, "params.beta", "0.7");
  scenario::apply_override(b, "num_agents", "60");

  EXPECT_EQ(scenario::serialize_scenario(a), scenario::serialize_scenario(b));
  const core::run_config config = test_config();
  EXPECT_EQ(spec_digest(a, config, {}), spec_digest(b, config, {}));
  EXPECT_EQ(digest_input(a, config, {}), digest_input(b, config, {}));
}

TEST(spec_digest, inert_fields_do_not_change_the_digest) {
  const scenario::scenario_spec base = test_spec();
  const core::run_config config = test_config();
  const digest128 reference = spec_digest(base, config, {});

  // name/description are labels; the run_config's thread count is a
  // scheduling choice — proven bit-identical by the determinism suite, so
  // none may split the cache.
  scenario::scenario_spec relabeled = base;
  relabeled.name = "some other name";
  relabeled.description = "same experiment, different words";
  EXPECT_EQ(spec_digest(relabeled, config, {}), reference);

  core::run_config reconfigured = config;
  reconfigured.threads = 13;
  EXPECT_EQ(spec_digest(base, reconfigured, {}), reference);
}

TEST(spec_digest, every_semantic_field_changes_the_digest) {
  const scenario::scenario_spec base = test_spec();
  const core::run_config config = test_config();
  const digest128 reference = spec_digest(base, config, {});

  const std::vector<std::pair<std::string, std::string>> semantic_overrides{
      {"params.beta", "0.7"},
      {"params.mu", "0.07"},
      {"params.num_options", "4"},
      {"num_agents", "41"},
      {"environment.etas", "[0.8, 0.5, 0.31]"},
      {"topology.family", "\"complete\""},
  };
  for (const auto& [key, value] : semantic_overrides) {
    scenario::scenario_spec changed = base;
    scenario::apply_override(changed, key, value);
    EXPECT_NE(spec_digest(changed, config, {}), reference) << key;
  }

  core::run_config longer = config;
  longer.horizon = 31;
  EXPECT_NE(spec_digest(base, longer, {}), reference);
  core::run_config more = config;
  more.replications = 4;
  EXPECT_NE(spec_digest(base, more, {}), reference);
  core::run_config reseeded = config;
  reseeded.seed = 8;
  EXPECT_NE(spec_digest(base, reseeded, {}), reference);

  const std::vector<std::string> other_probes{"regret", "final_histogram"};
  EXPECT_NE(spec_digest(base, config, other_probes), reference);
}

TEST(spec_digest, probe_fallback_matches_explicit_probes) {
  // digest(no probes) resolves through the spec's probes then {"regret"},
  // exactly like the runner, so the fallback and its explicit spelling
  // share one cache entry.
  const scenario::scenario_spec base = test_spec();
  const core::run_config config = test_config();
  const std::vector<std::string> regret{"regret"};
  EXPECT_EQ(spec_digest(base, config, {}), spec_digest(base, config, regret));
}

TEST(spec_digest, requested_probes_make_the_spec_probes_inert) {
  // A requested probe list replaces the spec's own, so the spec's list may
  // not split the cache or change the payload's spec echo.
  const scenario::scenario_spec plain = scenario::get_scenario("quickstart");
  scenario::scenario_spec listed = plain;
  scenario::apply_override(listed, "probes", "[\"final_histogram\"]");
  const core::run_config config = test_config();
  const std::vector<std::string> regret{"regret"};
  const digest128 digest = spec_digest(plain, config, regret);
  EXPECT_EQ(spec_digest(listed, config, regret), digest);
  EXPECT_EQ(build_point_payload(digest, listed, config, regret, {}),
            build_point_payload(digest, plain, config, regret, {}));
  EXPECT_NE(spec_digest(listed, config, {}), spec_digest(plain, config, {}));
}

TEST(spec_digest, prebuilt_graph_is_rejected) {
  scenario::scenario_spec spec = scenario::get_scenario("ring");
  spec.prebuilt_graph = scenario::shared_topology(spec.topology, spec.num_agents);
  EXPECT_THROW((void)spec_digest(spec, test_config(), {}), std::invalid_argument);
}

TEST(spec_digest, hex_is_stable_and_distinct) {
  const digest128 a = fnv1a_128("one input");
  const digest128 b = fnv1a_128("another input");
  EXPECT_EQ(a.hex().size(), 32U);
  EXPECT_EQ(a, fnv1a_128("one input"));
  EXPECT_NE(a, b);
  EXPECT_NE(a.hex(), b.hex());
}

// --- result_store -----------------------------------------------------------

TEST(result_store, round_trips_and_counts) {
  result_store store{fresh_store_root("roundtrip")};
  const digest128 digest = fnv1a_128("key");
  EXPECT_EQ(store.get(digest), std::nullopt);
  store.put(digest, "payload-bytes");
  EXPECT_EQ(store.get(digest), "payload-bytes");
  EXPECT_EQ(store.object_count(), 1U);
  EXPECT_EQ(store.hits(), 1U);
  EXPECT_EQ(store.misses(), 1U);

  // put() is idempotent, and no in-flight temp files survive it.
  store.put(digest, "payload-bytes");
  EXPECT_EQ(store.object_count(), 1U);
  EXPECT_TRUE(std::filesystem::is_empty(store.root() / "tmp"));
}

TEST(result_store, persists_across_instances) {
  const std::filesystem::path root = fresh_store_root("persist");
  const digest128 digest = fnv1a_128("durable");
  {
    result_store store{root};
    store.put(digest, "survives the process");
  }
  result_store reopened{root};
  EXPECT_EQ(reopened.get(digest), "survives the process");
}

// --- result_store: self-verification, quarantine, tmp GC, fsck --------------

/// Clears the process-global fail-point registry around a test body.
/// Every test that arms a fail point must hold one of these, or a failing
/// test could leak its fault schedule into unrelated tests.
struct failpoint_guard {
  failpoint_guard() { failpoints::clear(); }
  ~failpoint_guard() { failpoints::clear(); }
};

/// The store's on-disk path for a digest (mirrors the layout contract in
/// result_store.h: objects/<hh>/<hex>.json).
std::filesystem::path object_path_of(const result_store& store, const digest128& digest) {
  const std::string hex = digest.hex();
  return store.root() / "objects" / hex.substr(0, 2) / (hex + ".json");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t file_count(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator{dir}) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

TEST(result_store, object_framing_round_trips_and_rejects_tampering) {
  const std::string payload = R"({"digest":"abc","values":[1,2,3]})";
  const std::string framed = frame_object(payload);
  EXPECT_NE(framed.find(k_object_trailer_magic), std::string::npos);
  EXPECT_EQ(unframe_object(framed), payload);

  // Any payload change breaks the checksum; any trailer damage breaks
  // the frame.  Both must read as "corrupt", never as a payload.
  std::string flipped = framed;
  flipped[10] ^= 0x20;
  EXPECT_EQ(unframe_object(flipped), std::nullopt);
  EXPECT_EQ(unframe_object(framed.substr(0, framed.size() - 2)), std::nullopt);
  EXPECT_EQ(unframe_object(payload), std::nullopt) << "pre-v2 object (no trailer)";
  EXPECT_EQ(unframe_object(""), std::nullopt);
}

TEST(result_store, objects_on_disk_carry_the_checksum_trailer) {
  result_store store{fresh_store_root("trailer")};
  const digest128 digest = fnv1a_128("framed");
  store.put(digest, "the payload");
  const std::string on_disk = read_file(object_path_of(store, digest));
  EXPECT_EQ(on_disk, frame_object("the payload"));
  // get() strips the trailer: callers always see the exact payload bytes.
  EXPECT_EQ(store.get(digest), "the payload");
}

TEST(result_store, corrupt_object_is_quarantined_and_treated_as_a_miss) {
  result_store store{fresh_store_root("quarantine")};
  const digest128 digest = fnv1a_128("rot");
  store.put(digest, "good bytes");

  // Flip one payload byte in place — the trailer no longer matches.
  const std::filesystem::path object = object_path_of(store, digest);
  std::string bytes = read_file(object);
  bytes[2] ^= 0x01;
  std::ofstream{object, std::ios::binary | std::ios::trunc} << bytes;

  EXPECT_EQ(store.get(digest), std::nullopt) << "corrupt results are never served";
  EXPECT_EQ(store.quarantined(), 1U);
  EXPECT_FALSE(std::filesystem::exists(object)) << "moved out of objects/";
  EXPECT_EQ(file_count(store.root() / "quarantine"), 1U);

  // The digest is now a plain miss; a recompute re-populates it cleanly.
  store.put(digest, "good bytes");
  EXPECT_EQ(store.get(digest), "good bytes");
}

TEST(result_store, pre_v2_object_without_trailer_is_quarantined) {
  result_store store{fresh_store_root("prev2")};
  const digest128 digest = fnv1a_128("legacy");
  const std::filesystem::path object = object_path_of(store, digest);
  std::filesystem::create_directories(object.parent_path());
  std::ofstream{object, std::ios::binary} << "raw payload with no trailer";
  EXPECT_EQ(store.get(digest), std::nullopt);
  EXPECT_EQ(store.quarantined(), 1U);
  EXPECT_FALSE(std::filesystem::exists(object));
}

TEST(result_store, construction_collects_tmp_files_of_dead_writers_only) {
  const std::filesystem::path root = fresh_store_root("tmpgc");
  std::filesystem::create_directories(root / "tmp");
  // Our own pid counts as dead (a fresh store instance cannot have
  // in-flight writes from this process); pid 1 is alive and not ours.
  const std::string dead = "aaaa." + std::to_string(::getpid()) + ".0";
  std::ofstream{root / "tmp" / dead} << "torn write";
  std::ofstream{root / "tmp" / "bbbb.1.0"} << "live writer";
  std::ofstream{root / "tmp" / "unrecognized-name"} << "not ours to judge";

  result_store store{root};
  EXPECT_EQ(store.tmp_collected(), 1U);
  EXPECT_FALSE(std::filesystem::exists(root / "tmp" / dead));
  EXPECT_TRUE(std::filesystem::exists(root / "tmp" / "bbbb.1.0"));
  EXPECT_TRUE(std::filesystem::exists(root / "tmp" / "unrecognized-name"));

  // fsck's opening mode: gc off preserves the evidence.
  std::ofstream{root / "tmp" / dead} << "torn write again";
  result_store no_gc{root, store_options{.gc_stale_tmp = false}};
  EXPECT_EQ(no_gc.tmp_collected(), 0U);
  EXPECT_TRUE(std::filesystem::exists(root / "tmp" / dead));
}

TEST(result_store, put_failures_throw_and_leave_no_tmp_files) {
  const failpoint_guard guard;
  result_store store{fresh_store_root("putfail")};
  const digest128 digest = fnv1a_128("doomed");
  for (const char* site :
       {"store.tmp_open", "store.write", "store.fsync", "store.rename"}) {
    failpoints::clear();
    failpoints::set(site, "1");
    EXPECT_THROW(store.put(digest, "payload"), std::runtime_error) << site;
    EXPECT_TRUE(std::filesystem::is_empty(store.root() / "tmp"))
        << site << ": the failed write leaked its tmp file";
    EXPECT_FALSE(std::filesystem::exists(object_path_of(store, digest))) << site;
  }
  // After the schedule is exhausted the same put succeeds.
  failpoints::clear();
  store.put(digest, "payload");
  EXPECT_EQ(store.get(digest), "payload");
}

TEST(result_store, read_failure_is_a_miss_without_quarantine) {
  const failpoint_guard guard;
  result_store store{fresh_store_root("readfail")};
  const digest128 digest = fnv1a_128("transient");
  store.put(digest, "still good");
  failpoints::set("store.read", "1");
  EXPECT_EQ(store.get(digest), std::nullopt);
  EXPECT_EQ(store.quarantined(), 0U)
      << "an unreadable object is not evidence of corruption";
  EXPECT_TRUE(std::filesystem::exists(object_path_of(store, digest)));
  failpoints::clear();
  EXPECT_EQ(store.get(digest), "still good");
}

TEST(result_store, fsck_reports_and_repairs) {
  const std::filesystem::path root = fresh_store_root("fsck");
  const digest128 good = fnv1a_128("good");
  const digest128 bad = fnv1a_128("bad");
  std::string dead_tmp;
  {
    result_store store{root};
    store.put(good, "intact");
    store.put(bad, "will rot");
    const std::filesystem::path object = object_path_of(store, bad);
    std::string bytes = read_file(object);
    bytes[1] ^= 0x08;
    std::ofstream{object, std::ios::binary | std::ios::trunc} << bytes;
    dead_tmp = "cccc." + std::to_string(::getpid()) + ".7";
    std::ofstream{root / "tmp" / dead_tmp} << "orphan";
  }

  // Report pass: everything is named, nothing is touched.
  result_store store{root, store_options{.gc_stale_tmp = false}};
  fsck_report report = store.fsck(/*repair=*/false);
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.repaired);
  EXPECT_EQ(report.objects_ok, 1U);
  ASSERT_EQ(report.corrupt.size(), 1U);
  EXPECT_NE(report.corrupt[0].find(bad.hex()), std::string::npos);
  ASSERT_EQ(report.orphaned_tmp.size(), 1U);
  EXPECT_NE(report.orphaned_tmp[0].find(dead_tmp), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(root / "tmp" / dead_tmp));

  // Repair pass: corrupt object quarantined, orphan removed, store clean.
  report = store.fsck(/*repair=*/true);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(report.corrupt.size(), 1U);
  EXPECT_FALSE(std::filesystem::exists(root / "tmp" / dead_tmp));
  EXPECT_EQ(file_count(root / "quarantine"), 1U);

  const fsck_report after = store.fsck(/*repair=*/false);
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.objects_ok, 1U);
  EXPECT_EQ(after.quarantined, 1U);
  // The quarantined digest is recomputable: it is simply a miss now.
  EXPECT_EQ(store.get(bad), std::nullopt);
  EXPECT_EQ(store.get(good), "intact");
}

// --- payload ----------------------------------------------------------------

TEST(payload, is_canonical_json_without_timing) {
  const scenario::scenario_spec spec = test_spec();
  const core::run_config config = test_config();
  const std::vector<std::string> probe_specs{"regret"};
  const auto reports =
      core::collect_reports(scenario::run_probes(spec, config, probe_specs));
  const digest128 digest = spec_digest(spec, config, {});
  const std::string payload = build_point_payload(digest, spec, config, {}, reports);

  // Byte-deterministic, parseable, and carries its own identity.
  EXPECT_EQ(payload, build_point_payload(digest, spec, config, {}, reports));
  const json_value parsed = parse_json(payload);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.find("digest")->as_string("digest"), digest.hex());
  EXPECT_EQ(parsed.find("stream_derivation")->as_string("sd"),
            std::string{k_stream_derivation_id});
  EXPECT_NE(parsed.find("spec"), nullptr);
  EXPECT_NE(parsed.find("probes"), nullptr);
  // Timing varies run to run, so it may never enter the cached bytes.
  EXPECT_EQ(parsed.find("seconds"), nullptr);
  EXPECT_EQ(parsed.find("timing"), nullptr);
}

// --- job_queue: cache and resume --------------------------------------------

/// Collects a job's events; safe to share across worker threads.
struct event_log {
  std::mutex mutex;
  std::vector<job_point_event> points;  // payload copied into `payloads`
  std::vector<std::string> payloads;
  std::vector<job_done_event> done;

  job_sinks sinks() {
    job_sinks s;
    s.on_point = [this](const job_point_event& event) {
      const std::lock_guard<std::mutex> lock{mutex};
      points.push_back(event);
      payloads.push_back(*event.payload);
      points.back().payload = &payloads.back();
    };
    s.on_done = [this](const job_done_event& event) {
      const std::lock_guard<std::mutex> lock{mutex};
      done.push_back(event);
    };
    return s;
  }
};

job_request sweep_request() {
  job_request request;
  request.base = test_spec();
  std::vector<scenario::sweep_axis> axes;
  axes.push_back(scenario::parse_sweep_axis("params.beta=0.6,0.65,0.7"));
  request.grid = scenario::expand_sweep(axes);
  request.config = test_config();
  return request;
}

TEST(job_queue, identical_resubmission_is_served_from_cache_byte_identically) {
  result_store store{fresh_store_root("cache")};
  job_queue queue{store, 1};

  event_log first;
  queue.submit(sweep_request(), first.sinks());
  queue.drain();
  ASSERT_EQ(first.done.size(), 1U);
  EXPECT_EQ(first.done[0].state, job_state::done);
  EXPECT_EQ(first.done[0].computed, 3U);
  EXPECT_EQ(first.done[0].cached, 0U);
  ASSERT_EQ(first.points.size(), 3U);
  EXPECT_TRUE(std::none_of(first.points.begin(), first.points.end(),
                           [](const job_point_event& e) { return e.cache_hit; }));
  EXPECT_EQ(store.object_count(), 3U);

  event_log second;
  queue.submit(sweep_request(), second.sinks());
  queue.drain();
  ASSERT_EQ(second.done.size(), 1U);
  EXPECT_EQ(second.done[0].state, job_state::done);
  EXPECT_EQ(second.done[0].computed, 0U);
  EXPECT_EQ(second.done[0].cached, 3U);
  ASSERT_EQ(second.points.size(), 3U);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(second.points[p].cache_hit) << p;
    EXPECT_EQ(second.points[p].index, p);
    // The heart of the contract: the cached bytes ARE the computed bytes.
    const std::size_t original = static_cast<std::size_t>(
        std::find_if(first.points.begin(), first.points.end(),
                     [p](const job_point_event& e) { return e.index == p; }) -
        first.points.begin());
    ASSERT_LT(original, first.payloads.size());
    EXPECT_EQ(second.payloads[p], first.payloads[original]) << p;
  }
  // Nothing was recomputed, nothing new was stored.
  EXPECT_EQ(store.object_count(), 3U);
}

TEST(job_queue, partial_store_resumes_by_recomputing_only_missing_points) {
  result_store store{fresh_store_root("resume")};
  job_queue queue{store, 1};

  // Act 1: run ONE grid point as its own job — the same resolved spec a
  // sweep point would have, so the same digest.  This is the state a
  // killed sweep leaves behind: some points persisted, the rest absent.
  job_request one_point;
  one_point.base = test_spec();
  scenario::apply_override(one_point.base, "params.beta", "0.65");
  one_point.config = test_config();
  event_log warmup;
  queue.submit(std::move(one_point), warmup.sinks());
  queue.drain();
  ASSERT_EQ(warmup.done.size(), 1U);
  ASSERT_EQ(warmup.done[0].computed, 1U);
  ASSERT_EQ(store.object_count(), 1U);

  // Act 2: the full sweep resumes — the persisted point is served from
  // cache, exactly the other two are computed.
  event_log resumed;
  queue.submit(sweep_request(), resumed.sinks());
  queue.drain();
  ASSERT_EQ(resumed.done.size(), 1U);
  EXPECT_EQ(resumed.done[0].state, job_state::done);
  EXPECT_EQ(resumed.done[0].cached, 1U);
  EXPECT_EQ(resumed.done[0].computed, 2U);
  ASSERT_EQ(resumed.points.size(), 3U);
  for (const job_point_event& event : resumed.points) {
    EXPECT_EQ(event.cache_hit, event.index == 1) << event.index;  // beta=0.65
  }
  // And the resumed point's bytes are the warmup job's bytes.
  const auto hit = std::find_if(resumed.points.begin(), resumed.points.end(),
                                [](const job_point_event& e) { return e.cache_hit; });
  ASSERT_NE(hit, resumed.points.end());
  EXPECT_EQ(resumed.payloads[static_cast<std::size_t>(hit - resumed.points.begin())],
            warmup.payloads.at(0));
  EXPECT_EQ(store.object_count(), 3U);
}

TEST(job_queue, a_key_the_topology_does_not_read_is_a_cache_hit) {
  // Only watts_strogatz and barabasi_albert read topology.degree, so on the
  // ring it cannot change the result and must not split the cache.
  result_store store{fresh_store_root("unread_key")};
  job_queue queue{store, 1};
  job_request ring;
  ring.base = scenario::get_scenario("network_ring_1e5");
  ring.config = test_config();
  ring.config.horizon = 3;
  ring.config.replications = 1;
  job_request rewired = ring;
  scenario::apply_override(rewired.base, "topology.degree", "7");

  event_log first;
  queue.submit(std::move(ring), first.sinks());
  queue.drain();
  event_log second;
  queue.submit(std::move(rewired), second.sinks());
  queue.drain();
  ASSERT_EQ(first.points.size(), 1U);
  ASSERT_EQ(second.points.size(), 1U);
  EXPECT_FALSE(first.points[0].cache_hit);
  EXPECT_TRUE(second.points[0].cache_hit);
  EXPECT_EQ(second.payloads[0], first.payloads[0]);
  EXPECT_EQ(store.object_count(), 1U);
}

TEST(job_queue, queued_jobs_cancel_without_running) {
  result_store store{fresh_store_root("cancel")};
  job_queue queue{store, 1};
  queue.pause();

  event_log log;
  const std::uint64_t id = queue.submit(sweep_request(), log.sinks());
  ASSERT_TRUE(queue.status(id).has_value());
  EXPECT_EQ(queue.status(id)->state, job_state::queued);

  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.status(id)->state, job_state::cancelled);
  EXPECT_FALSE(queue.cancel(id)) << "second cancel of a terminal job";

  queue.drain();
  ASSERT_EQ(log.done.size(), 1U);
  EXPECT_EQ(log.done[0].state, job_state::cancelled);
  EXPECT_TRUE(log.points.empty());
  EXPECT_EQ(store.object_count(), 0U);
}

TEST(job_queue, finished_jobs_release_their_sinks_and_keep_their_status) {
  result_store store{fresh_store_root("release")};
  job_queue queue{store, 1};
  queue.pause();

  // Each job's sinks hold the only other reference to a token; once the
  // job's done event is delivered, the queue must drop the sinks (and the
  // request with them), keeping only what status() reports.
  const auto sinks_holding = [](event_log& log, const std::shared_ptr<int>& token) {
    job_sinks sinks = log.sinks();
    const auto inner = sinks.on_done;
    sinks.on_done = [inner, token](const job_done_event& event) { inner(event); };
    return sinks;
  };
  event_log ran_log;
  event_log cancelled_log;
  auto ran_token = std::make_shared<int>(1);
  auto cancelled_token = std::make_shared<int>(2);
  const std::weak_ptr<int> ran_watch = ran_token;
  const std::weak_ptr<int> cancelled_watch = cancelled_token;
  const std::uint64_t ran = queue.submit(sweep_request(), sinks_holding(ran_log, ran_token));
  job_request second = sweep_request();
  second.priority = 3;
  const std::uint64_t cancelled =
      queue.submit(std::move(second), sinks_holding(cancelled_log, cancelled_token));
  ran_token.reset();
  cancelled_token.reset();

  EXPECT_TRUE(queue.cancel(cancelled));  // the cancel-while-queued path
  ASSERT_EQ(cancelled_log.done.size(), 1U);
  EXPECT_TRUE(cancelled_watch.expired());
  EXPECT_FALSE(ran_watch.expired()) << "a queued job keeps its sinks";

  queue.drain();
  ASSERT_EQ(ran_log.done.size(), 1U);
  EXPECT_TRUE(ran_watch.expired());

  const std::optional<job_status> done = queue.status(ran);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, job_state::done);
  EXPECT_EQ(done->total, 3U);
  EXPECT_EQ(done->computed, 3U);
  EXPECT_EQ(done->cached, 0U);
  const std::optional<job_status> gone = queue.status(cancelled);
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->state, job_state::cancelled);
  EXPECT_EQ(gone->priority, 3);
  EXPECT_EQ(gone->total, 3U);
}

TEST(job_queue, higher_priority_jobs_run_first) {
  result_store store{fresh_store_root("priority")};
  job_queue queue{store, 1};
  queue.pause();  // both jobs queued before the dispatcher may choose

  std::mutex order_mutex;
  std::vector<std::uint64_t> finish_order;
  const auto track = [&](event_log& log) {
    job_sinks sinks = log.sinks();
    const auto inner = sinks.on_done;
    sinks.on_done = [&, inner](const job_done_event& event) {
      {
        const std::lock_guard<std::mutex> lock{order_mutex};
        finish_order.push_back(event.job);
      }
      inner(event);
    };
    return sinks;
  };

  event_log low_log;
  event_log high_log;
  job_request low = sweep_request();
  low.priority = 0;
  job_request high = sweep_request();
  high.priority = 5;
  const std::uint64_t low_id = queue.submit(std::move(low), track(low_log));
  const std::uint64_t high_id = queue.submit(std::move(high), track(high_log));
  queue.drain();

  ASSERT_EQ(finish_order.size(), 2U);
  EXPECT_EQ(finish_order[0], high_id);
  EXPECT_EQ(finish_order[1], low_id);
  // The low-priority job re-ran nothing: the high-priority job populated
  // the cache for the identical request.
  ASSERT_EQ(low_log.done.size(), 1U);
  EXPECT_EQ(low_log.done[0].cached, 3U);
  EXPECT_EQ(low_log.done[0].computed, 0U);
}

TEST(job_queue, invalid_submissions_fail_fast_and_leave_no_job) {
  result_store store{fresh_store_root("invalid")};
  job_queue queue{store, 1};
  job_request bad = sweep_request();
  bad.grid.push_back({{"params.beta", "1.5"}});  // out of range at point 4
  event_log log;
  EXPECT_THROW((void)queue.submit(std::move(bad), log.sinks()), std::invalid_argument);
  queue.drain();
  EXPECT_TRUE(log.done.empty());
  EXPECT_EQ(store.object_count(), 0U);
}

// --- session (wire protocol) ------------------------------------------------

struct wire {
  std::mutex mutex;
  std::vector<std::string> lines;

  session_options options() {
    session_options o;
    o.write_line = [this](std::string_view line) {
      const std::lock_guard<std::mutex> lock{mutex};
      lines.emplace_back(line);
      return true;
    };
    return o;
  }

  std::vector<std::string> events() {
    const std::lock_guard<std::mutex> lock{mutex};
    std::vector<std::string> kinds;
    for (const std::string& line : lines) {
      const json_value event = parse_json(line);
      kinds.push_back(event.find("event")->as_string("event"));
    }
    return kinds;
  }
};

std::string submit_line() {
  const scenario::scenario_spec spec = test_spec();
  std::string line = R"({"op":"submit","spec":)";
  line += '"';
  line += json_escape(scenario::serialize_scenario(spec));
  line += '"';
  line += R"(,"sweep":["params.beta=0.6,0.65"],"horizon":30,"replications":3,"seed":7})";
  return line;
}

TEST(session, submit_streams_accept_points_done_in_order) {
  result_store store{fresh_store_root("session")};
  job_queue queue{store, 1};
  wire out;
  session s{queue, out.options()};
  s.handle_line(submit_line());
  s.finish();

  const std::vector<std::string> events = out.events();
  ASSERT_EQ(events.size(), 4U);
  EXPECT_EQ(events[0], "job_accepted");
  EXPECT_EQ(events[1], "point_done");
  EXPECT_EQ(events[2], "point_done");
  EXPECT_EQ(events[3], "job_done");

  const json_value accepted = parse_json(out.lines[0]);
  EXPECT_EQ(accepted.find("points")->as_uint64("points"), 2U);
  ASSERT_NE(accepted.find("digests"), nullptr);
  EXPECT_EQ(accepted.find("digests")->items.size(), 2U);
  const json_value done = parse_json(out.lines[3]);
  EXPECT_EQ(done.find("status")->as_string("status"), "done");
  EXPECT_EQ(done.find("computed")->as_uint64("computed"), 2U);

  // Resubmission over the wire: same events, but every point a cache_hit
  // whose result object is byte-identical to the computed one.
  wire again;
  session s2{queue, again.options()};
  s2.handle_line(submit_line());
  s2.finish();
  const std::vector<std::string> second = again.events();
  ASSERT_EQ(second.size(), 4U);
  EXPECT_EQ(second[1], "cache_hit");
  EXPECT_EQ(second[2], "cache_hit");
  for (std::size_t i = 1; i <= 2; ++i) {
    const json_value computed = parse_json(out.lines[i]);
    const json_value hit = parse_json(again.lines[i]);
    const std::uint64_t point = hit.find("point")->as_uint64("point");
    EXPECT_EQ(computed.find("point")->as_uint64("point"), point);
    // Compare the exact cached bytes through the store.
    const json_value* result = hit.find("result");
    ASSERT_NE(result, nullptr);
    const digest128 digest = spec_digest(
        [&] {
          scenario::scenario_spec spec = test_spec();
          scenario::apply_override(spec, "params.beta", point == 0 ? "0.6" : "0.65");
          return spec;
        }(),
        test_config(), {});
    const std::optional<std::string> stored = store.get(digest);
    ASSERT_TRUE(stored.has_value());
    EXPECT_NE(again.lines[i].find(*stored), std::string::npos)
        << "cache_hit must embed the stored payload verbatim";
    EXPECT_NE(out.lines[i].find(*stored), std::string::npos)
        << "point_done must embed the stored payload verbatim";
  }
}

TEST(session, accepted_digests_key_each_resolved_point) {
  result_store store{fresh_store_root("session_digests")};
  job_queue queue{store, 1};
  wire out;
  session s{queue, out.options()};
  std::string line = submit_line();
  line.insert(line.size() - 1, R"(,"set":["params.mu=0.1"])");
  s.handle_line(line);
  s.finish();

  const std::vector<std::string> events = out.events();
  ASSERT_EQ(events.size(), 4U);
  ASSERT_EQ(events[0], "job_accepted");
  ASSERT_EQ(events[3], "job_done");
  const json_value accepted = parse_json(out.lines[0]);
  const json_value* digests = accepted.find("digests");
  ASSERT_NE(digests, nullptr);
  ASSERT_EQ(digests->items.size(), 2U);
  const char* betas[] = {"0.6", "0.65"};
  for (std::size_t point = 0; point < 2; ++point) {
    scenario::scenario_spec spec = test_spec();
    scenario::apply_override(spec, "params.mu=0.1");
    scenario::apply_override(spec, "params.beta", betas[point]);
    const digest128 digest = spec_digest(spec, test_config(), {});
    EXPECT_EQ(digests->items[point].as_string("digest"), digest.hex()) << "point " << point;
    EXPECT_TRUE(store.get(digest).has_value()) << "point " << point;
  }
}

TEST(session, malformed_and_unknown_requests_produce_error_events) {
  result_store store{fresh_store_root("session_err")};
  job_queue queue{store, 1};
  wire out;
  session s{queue, out.options()};
  s.handle_line("this is not json");
  s.handle_line(R"({"op":"frobnicate"})");
  s.handle_line(R"({"no_op":1})");
  s.handle_line(R"({"op":"status","job":999})");
  s.handle_line("");  // blank lines are ignored
  // A priority outside int's range is refused, not wrapped into another
  // priority, and nothing is enqueued.
  for (const char* priority : {"3000000000", "-3000000000"}) {
    std::string line = submit_line();
    line.pop_back();
    line += R"(,"priority":)";
    line += priority;
    line += '}';
    s.handle_line(line);
  }
  s.finish();
  const std::vector<std::string> events = out.events();
  ASSERT_EQ(events.size(), 6U);
  for (const std::string& kind : events) EXPECT_EQ(kind, "error");
  for (std::size_t i = 4; i < 6; ++i) {
    EXPECT_NE(out.lines[i].find("priority"), std::string::npos) << out.lines[i];
  }
}

TEST(session, a_key_swept_twice_is_an_error_event) {
  // A later axis on the same key would overwrite the earlier one at every
  // point; the submit is refused, naming the key, and nothing runs.
  result_store store{fresh_store_root("session_swept_twice")};
  job_queue queue{store, 1};
  wire out;
  session s{queue, out.options()};
  std::string line = submit_line();
  const std::string sweep = R"("sweep":["params.beta=0.6,0.65"])";
  line.replace(line.find(sweep), sweep.size(),
               R"("sweep":["params.beta=0.6:0.7:0.05","params.beta=0.6"])");
  s.handle_line(line);
  s.finish();
  ASSERT_EQ(out.events(), std::vector<std::string>{"error"});
  EXPECT_NE(out.lines[0].find("sweep axis 'params.beta' is given twice"), std::string::npos)
      << out.lines[0];
  EXPECT_EQ(store.object_count(), 0U) << "no point may run";
}

TEST(session, an_aggregate_spec_without_agents_is_an_error_event) {
  // num_agents = 0 on the aggregate engine is refused by validate_spec,
  // naming the key, before any job is accepted.
  result_store store{fresh_store_root("session_no_agents")};
  job_queue queue{store, 1};
  wire out;
  session s{queue, out.options()};
  std::string line = submit_line();
  line.insert(line.size() - 1, R"(,"set":["engine=aggregate","num_agents=0"])");
  s.handle_line(line);
  s.finish();
  ASSERT_EQ(out.events(), std::vector<std::string>{"error"});
  EXPECT_NE(out.lines[0].find("the aggregate engine needs num_agents >= 1"),
            std::string::npos)
      << out.lines[0];
  EXPECT_EQ(store.object_count(), 0U) << "no point may run";
}

TEST(session, a_bad_probe_is_an_error_event) {
  // Every point's probes are built at submit, beside validate_spec: an
  // unknown probe or an argument out of range is refused, naming it,
  // before any job is accepted.
  const std::pair<const char*, const char*> cases[] = {
      {R"(["regrett"])", "unknown probe 'regrett'"},
      {R"j(["hitting_time(eps=2)"])j", "hitting_time: eps must be in (0,1)"},
  };
  for (const auto& [probes, message] : cases) {
    result_store store{fresh_store_root("session_bad_probe")};
    job_queue queue{store, 1};
    wire out;
    session s{queue, out.options()};
    std::string line = submit_line();
    line.insert(line.size() - 1, std::string{R"(,"probes":)"} + probes);
    s.handle_line(line);
    s.finish();
    ASSERT_EQ(out.events(), std::vector<std::string>{"error"}) << probes;
    EXPECT_NE(out.lines[0].find(message), std::string::npos) << out.lines[0];
    EXPECT_EQ(store.object_count(), 0U) << "no point may run";
  }
}

TEST(session, cancel_round_trip_over_the_wire) {
  result_store store{fresh_store_root("session_cancel")};
  job_queue queue{store, 1};
  queue.pause();
  wire out;
  session s{queue, out.options()};
  s.handle_line(submit_line());
  const json_value accepted = parse_json(out.lines.at(0));
  const std::uint64_t job = accepted.find("job")->as_uint64("job");
  s.handle_line(R"({"op":"cancel","job":)" + std::to_string(job) + "}");
  s.handle_line(R"({"op":"status","job":)" + std::to_string(job) + "}");
  queue.resume();
  s.finish();

  const std::vector<std::string> events = out.events();
  // job_accepted, job_done (from the cancel), cancel_result, status.
  ASSERT_EQ(events.size(), 4U);
  EXPECT_EQ(events[0], "job_accepted");
  EXPECT_EQ(events[1], "job_done");
  EXPECT_EQ(events[2], "cancel_result");
  EXPECT_EQ(events[3], "status");
  EXPECT_EQ(parse_json(out.lines[1]).find("status")->as_string("s"), "cancelled");
  EXPECT_TRUE(parse_json(out.lines[2]).find("cancelled")->as_bool("c"));
  EXPECT_EQ(parse_json(out.lines[3]).find("state")->as_string("s"), "cancelled");
}

// --- job_queue: overload and fault robustness --------------------------------

TEST(job_queue, bounded_queue_rejects_submissions_past_the_limit) {
  result_store store{fresh_store_root("bounded")};
  job_queue queue{store, 1, /*max_queued=*/1};
  queue.pause();

  event_log first;
  (void)queue.submit(sweep_request(), first.sinks());
  event_log second;
  try {
    (void)queue.submit(sweep_request(), second.sinks());
    FAIL() << "submit past the bound must throw queue_full_error";
  } catch (const queue_full_error& e) {
    EXPECT_EQ(e.limit(), 1U);
  }
  // Nothing was enqueued for the rejected job...
  queue.drain();
  EXPECT_TRUE(second.done.empty());
  ASSERT_EQ(first.done.size(), 1U);
  EXPECT_EQ(first.done[0].state, job_state::done);

  // ...and once the queue settles, the identical resubmission is accepted
  // and served entirely from cache — backpressure costs no compute.
  event_log retry;
  (void)queue.submit(sweep_request(), retry.sinks());
  queue.drain();
  ASSERT_EQ(retry.done.size(), 1U);
  EXPECT_EQ(retry.done[0].cached, 3U);
  EXPECT_EQ(retry.done[0].computed, 0U);
}

TEST(job_queue, timeout_fails_the_job_but_keeps_persisted_points) {
  result_store store{fresh_store_root("timeout")};
  job_queue queue{store, 1};

  // A budget far below the job's real cost: the watchdog raises the stop
  // flag mid-run.  The job must finish `failed` with a timeout error, and
  // whatever points completed first must already be in the store.
  job_request timed = sweep_request();
  timed.config.horizon = 20000;
  timed.config.replications = 8;
  timed.timeout_seconds = 1e-3;
  event_log log;
  (void)queue.submit(std::move(timed), log.sinks());
  queue.drain();
  ASSERT_EQ(log.done.size(), 1U);
  EXPECT_EQ(log.done[0].state, job_state::failed);
  EXPECT_NE(log.done[0].error.find("timed out"), std::string::npos)
      << log.done[0].error;
  EXPECT_LT(log.done[0].computed, 3U);
  EXPECT_EQ(store.object_count(), log.done[0].computed);

  // Resubmitted with no budget, the sweep resumes from the persisted
  // points and completes.
  job_request again = sweep_request();
  again.config.horizon = 20000;
  again.config.replications = 8;
  event_log resumed;
  (void)queue.submit(std::move(again), resumed.sinks());
  queue.drain();
  ASSERT_EQ(resumed.done.size(), 1U);
  EXPECT_EQ(resumed.done[0].state, job_state::done);
  EXPECT_EQ(resumed.done[0].cached, log.done[0].computed);
  EXPECT_EQ(resumed.done[0].cached + resumed.done[0].computed, 3U);
  EXPECT_EQ(store.object_count(), 3U);
}

TEST(job_queue, timeout_past_the_clock_range_means_no_timeout) {
  // 1e10 s is past steady_clock's ~292-year range: the deadline saturates
  // instead of overflowing into the past and failing the job before it
  // computes a point.  The same holds when the daemon's --job-timeout
  // supplies it as the session default.
  for (const double huge : {1e10, 1e300}) {
    result_store store{fresh_store_root("huge_timeout")};
    job_queue queue{store, 1};
    job_request timed = sweep_request();
    timed.timeout_seconds = huge;
    event_log log;
    (void)queue.submit(std::move(timed), log.sinks());
    queue.drain();
    ASSERT_EQ(log.done.size(), 1U);
    EXPECT_EQ(log.done[0].state, job_state::done) << huge << ": " << log.done[0].error;
    EXPECT_EQ(log.done[0].computed, 3U) << huge;
  }

  result_store store{fresh_store_root("huge_default_timeout")};
  job_queue queue{store, 1};
  wire out;
  session_options options = out.options();
  options.default_timeout_seconds = 1e10;
  session s{queue, options};
  s.handle_line(submit_line());
  s.finish();
  const json_value done = parse_json(out.lines.back());
  EXPECT_EQ(done.find("event")->as_string("event"), "job_done");
  EXPECT_EQ(done.find("status")->as_string("status"), "done") << out.lines.back();
}

TEST(job_queue, injected_point_failure_resumes_byte_identically) {
  const failpoint_guard guard;
  // Control: the same sweep, undisturbed, in its own store.
  result_store control_store{fresh_store_root("pointfail_control")};
  std::vector<std::string> control_payloads;
  {
    job_queue queue{control_store, 1};
    event_log log;
    (void)queue.submit(sweep_request(), log.sinks());
    queue.drain();
    control_payloads = log.payloads;
    std::sort(control_payloads.begin(), control_payloads.end());
  }

  // Faulted run: the first computed point's delivery throws.
  result_store store{fresh_store_root("pointfail")};
  job_queue queue{store, 1};
  failpoints::set("queue.point", "1");
  event_log failed;
  (void)queue.submit(sweep_request(), failed.sinks());
  queue.drain();
  ASSERT_EQ(failed.done.size(), 1U);
  EXPECT_EQ(failed.done[0].state, job_state::failed);
  EXPECT_FALSE(failed.done[0].error.empty());

  // Recovery: clear the fault, resubmit, and the store converges to the
  // exact bytes the undisturbed run produced.
  failpoints::clear();
  event_log resumed;
  (void)queue.submit(sweep_request(), resumed.sinks());
  queue.drain();
  ASSERT_EQ(resumed.done.size(), 1U);
  EXPECT_EQ(resumed.done[0].state, job_state::done);
  EXPECT_EQ(resumed.done[0].cached + resumed.done[0].computed, 3U);
  std::vector<std::string> payloads = resumed.payloads;
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, control_payloads)
      << "a faulted-then-resumed sweep must converge to the control bytes";
}

TEST(session, full_queue_replies_with_job_rejected) {
  result_store store{fresh_store_root("rejected")};
  job_queue queue{store, 1, /*max_queued=*/1};
  queue.pause();
  wire out;
  session s{queue, out.options()};
  s.handle_line(submit_line());
  s.handle_line(submit_line());
  {
    const std::vector<std::string> events = out.events();
    ASSERT_EQ(events.size(), 2U);
    EXPECT_EQ(events[0], "job_accepted");
    EXPECT_EQ(events[1], "job_rejected");
    const json_value rejected = parse_json(out.lines[1]);
    EXPECT_EQ(rejected.find("reason")->as_string("reason"), "queue_full");
    EXPECT_EQ(rejected.find("limit")->as_uint64("limit"), 1U);
    EXPECT_NE(rejected.find("message"), nullptr);
  }
  // The rejected submit left nothing outstanding: finish() returns once
  // the accepted job completes, with exactly one job_done.
  queue.resume();
  s.finish();
  const std::vector<std::string> events = out.events();
  EXPECT_EQ(std::count(events.begin(), events.end(), "job_done"), 1);
  EXPECT_EQ(std::count(events.begin(), events.end(), "job_rejected"), 1);
}

TEST(session, peer_disconnect_mid_reply_cancels_outstanding_jobs) {
  result_store store{fresh_store_root("disconnect")};
  job_queue queue{store, 1};
  // A wire whose peer vanishes after the first event line (job_accepted):
  // the first point_done write fails, the session must cancel its jobs
  // and drop further events instead of wedging or crashing.
  std::mutex mutex;
  std::vector<std::string> lines;
  session_options options;
  options.write_line = [&](std::string_view line) {
    const std::lock_guard<std::mutex> lock{mutex};
    if (lines.size() >= 1) return false;  // peer gone
    lines.emplace_back(line);
    return true;
  };
  {
    session s{queue, std::move(options)};
    s.handle_line(submit_line());
    s.finish();
    EXPECT_TRUE(s.peer_closed());
  }
  queue.drain();
  const std::lock_guard<std::mutex> lock{mutex};
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("job_accepted"), std::string::npos);
}

// --- socket edge paths (driven by fail points over a socketpair) ------------

struct socket_pair {
  unix_fd a;
  unix_fd b;
  socket_pair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
    }
    a = unix_fd{fds[0]};
    b = unix_fd{fds[1]};
  }
};

TEST(socket, write_all_completes_through_short_writes) {
  const failpoint_guard guard;
  socket_pair pair;
  // Every one of the first eight writes is capped at 3 bytes; write_all
  // must loop until the whole line is on the wire.
  failpoints::set("socket.write_short", "1..8(3)");
  const std::string data = "a line that takes many short writes\n";
  ASSERT_TRUE(write_all(pair.a.get(), data));
  pair.a.reset();  // EOF for the reader
  line_reader reader;
  const std::optional<std::string> line = reader.next_line(pair.b.get());
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "a line that takes many short writes");
  EXPECT_EQ(reader.next_line(pair.b.get()), std::nullopt);
}

TEST(socket, write_all_reports_a_broken_connection) {
  const failpoint_guard guard;
  socket_pair pair;
  failpoints::set("socket.write_fail", "1");
  EXPECT_FALSE(write_all(pair.a.get(), "never arrives\n"));
  failpoints::clear();
  EXPECT_TRUE(write_all(pair.a.get(), "arrives\n"));
}

TEST(socket, line_reader_reassembles_through_eintr_and_short_reads) {
  const failpoint_guard guard;
  socket_pair pair;
  ASSERT_TRUE(write_all(pair.a.get(), "alpha\nbeta\n"));
  pair.a.reset();
  // First read interrupted, the next several capped at 2 bytes: the
  // reader must still produce exactly the two lines, byte-perfect.
  failpoints::configure("socket.read_eintr=1;socket.read_short=1..8(2)");
  line_reader reader;
  EXPECT_EQ(reader.next_line(pair.b.get()), "alpha");
  EXPECT_EQ(reader.next_line(pair.b.get()), "beta");
  EXPECT_EQ(reader.next_line(pair.b.get()), std::nullopt);
}

TEST(socket, line_reader_surfaces_hard_read_errors) {
  const failpoint_guard guard;
  socket_pair pair;
  ASSERT_TRUE(write_all(pair.a.get(), "doomed\n"));
  failpoints::set("socket.read_fail", "1");
  line_reader reader;
  EXPECT_THROW((void)reader.next_line(pair.b.get()), std::runtime_error);
}

TEST(socket, line_reader_rejects_oversized_lines) {
  // A hostile peer streaming one endless line must hit the bound, both
  // with and without ever sending the newline.
  {
    socket_pair pair;
    ASSERT_TRUE(write_all(pair.a.get(), std::string(64, 'x') + "\n"));
    pair.a.reset();
    line_reader reader{/*max_line=*/16};
    EXPECT_THROW((void)reader.next_line(pair.b.get()), std::runtime_error);
  }
  {
    socket_pair pair;
    ASSERT_TRUE(write_all(pair.a.get(), std::string(64, 'y')));  // no newline
    pair.a.reset();
    line_reader reader{/*max_line=*/16};
    EXPECT_THROW((void)reader.next_line(pair.b.get()), std::runtime_error);
  }
  {
    // At the bound is fine; the cap is on a line longer than max_line.
    socket_pair pair;
    ASSERT_TRUE(write_all(pair.a.get(), std::string(16, 'z') + "\n"));
    pair.a.reset();
    line_reader reader{/*max_line=*/16};
    EXPECT_EQ(reader.next_line(pair.b.get()), std::string(16, 'z'));
  }
}

}  // namespace
}  // namespace sgl::service
