// The store-audit contract, at both levels: the result_store fsck/repair
// API (quarantine-then-recompute round trip) and the `sociolearn_cli fsck`
// subcommand's exit codes — 2 for usage errors, 1 for findings (even when
// repaired), 0 for a clean store.  The CLI half drives the real binary via
// SGL_CLI_PATH (set by CMake when SGL_BUILD_TOOLS is on; skipped when the
// tools are not built), as do the `check-trace` exit-code case and the
// usage checks on the run subcommands' count flags at the end of the file
// (which also run sociolearnd, via SGL_DAEMON_PATH).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "service/digest.h"
#include "service/result_store.h"

namespace {

using namespace sgl;
namespace fs = std::filesystem;

class fsck_cli_test : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sgl-fsck-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] fs::path store_dir() const { return root_ / "store"; }

  /// The single object file in objects/, failing if there is not exactly one.
  [[nodiscard]] fs::path only_object() const {
    fs::path found;
    std::size_t count = 0;
    for (const auto& entry : fs::recursive_directory_iterator(store_dir() / "objects")) {
      if (entry.is_regular_file()) {
        found = entry.path();
        ++count;
      }
    }
    EXPECT_EQ(count, 1U);
    return found;
  }

  fs::path root_;
};

service::digest128 test_digest() {
  return service::fnv1a_128("fsck round-trip payload key");
}

TEST_F(fsck_cli_test, quarantine_then_recompute_round_trip) {
  const std::string payload = R"({"probe":"regret","value":0.25})";
  {
    service::result_store store{store_dir()};
    store.put(test_digest(), payload);
    ASSERT_EQ(store.get(test_digest()), payload);
  }

  // Corrupt the object bytes in place (checksum trailer now lies).
  {
    const fs::path object = only_object();
    std::ofstream out{object, std::ios::binary};
    out << "garbage that is definitely not the framed payload\n";
  }

  service::store_options no_gc;
  no_gc.gc_stale_tmp = false;
  {
    // Report-only fsck: findings listed, nothing touched.
    service::result_store store{store_dir(), no_gc};
    const service::fsck_report report = store.fsck(/*repair=*/false);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.corrupt.size(), 1U);
    EXPECT_FALSE(report.repaired);
    EXPECT_TRUE(fs::exists(only_object())) << "report-only fsck must not move objects";
  }
  {
    // Repair: the corrupt object is quarantined, the digest becomes a miss.
    service::result_store store{store_dir(), no_gc};
    const service::fsck_report report = store.fsck(/*repair=*/true);
    EXPECT_TRUE(report.repaired);
    ASSERT_EQ(report.corrupt.size(), 1U);
    EXPECT_EQ(store.get(test_digest()), std::nullopt)
        << "a quarantined object must never be served";
    EXPECT_FALSE(fs::is_empty(store_dir() / "quarantine"));

    // Recompute: put() the payload again; the store serves it and audits
    // clean (the quarantined copy stays in quarantine/, which is not a
    // finding — it is the record of past repairs).
    store.put(test_digest(), payload);
    EXPECT_EQ(store.get(test_digest()), payload);
    const service::fsck_report after = store.fsck(/*repair=*/false);
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.objects_ok, 1U);
    EXPECT_EQ(after.quarantined, 1U);
  }
}

// --- the CLI subcommand ------------------------------------------------------

/// Reads the file at `path` into `text` and removes the file.
void take_text(const fs::path& path, std::string* text) {
  std::ifstream input{path};
  text->assign(std::istreambuf_iterator<char>{input}, std::istreambuf_iterator<char>{});
  fs::remove(path);
}

/// Runs the binary named by the environment variable `path_variable` with
/// `args` and returns its exit code, or nullopt when the binary is not
/// available (tools not built).  With `error_text`, the command's stderr is
/// captured into it; with `output_text`, its stdout.
std::optional<int> run_tool(const char* path_variable, const std::string& args,
                            std::string* error_text, std::string* output_text = nullptr) {
  const char* tool = std::getenv(path_variable);
  if (tool == nullptr || *tool == '\0') return std::nullopt;
  const std::string stem =
      (fs::temp_directory_path() / ("sgl-cli-" + std::to_string(::getpid()))).string();
  const std::string out_log = stem + "-stdout.txt";
  const std::string err_log = stem + "-stderr.txt";
  const std::string command = std::string{tool} + " " + args + " </dev/null >" +
                              (output_text != nullptr ? out_log : "/dev/null") + " 2>" +
                              (error_text != nullptr ? err_log : "/dev/null");
  const int status = std::system(command.c_str());
  if (status < 0) return std::nullopt;
  if (error_text != nullptr) take_text(err_log, error_text);
  if (output_text != nullptr) take_text(out_log, output_text);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `sociolearn_cli <args>` (see run_tool).
std::optional<int> run_cli(const std::string& args, std::string* error_text = nullptr,
                           std::string* output_text = nullptr) {
  return run_tool("SGL_CLI_PATH", args, error_text, output_text);
}

std::optional<int> run_fsck_cli(const std::string& args) { return run_cli("fsck " + args); }

#define REQUIRE_CLI(result)                                              \
  if (!(result)) GTEST_SKIP() << "SGL_CLI_PATH not set (tools not built)"

TEST_F(fsck_cli_test, usage_errors_exit_2) {
  const std::optional<int> missing_store = run_fsck_cli("");
  REQUIRE_CLI(missing_store);
  EXPECT_EQ(*missing_store, 2) << "--store is required";
  EXPECT_EQ(*run_fsck_cli("--store " + (root_ / "nonexistent").string()), 2)
      << "a missing directory must not be created-and-audited-clean";
  EXPECT_EQ(*run_fsck_cli("--store " + root_.string() + " --no-such-flag"), 2);
}

TEST_F(fsck_cli_test, clean_store_exits_0_findings_exit_1) {
  const std::string payload = "cached result bytes";
  {
    service::result_store store{store_dir()};
    store.put(test_digest(), payload);
  }
  const std::optional<int> clean = run_fsck_cli("--store " + store_dir().string());
  REQUIRE_CLI(clean);
  EXPECT_EQ(*clean, 0);

  // Corrupt the object: fsck reports (exit 1) without --repair, still
  // exits 1 with --repair (findings were found), then audits clean.
  {
    std::ofstream out{only_object(), std::ios::binary};
    out << "flipped bits";
  }
  EXPECT_EQ(*run_fsck_cli("--store " + store_dir().string()), 1);
  EXPECT_TRUE(fs::exists(only_object())) << "no --repair, no quarantine move";
  EXPECT_EQ(*run_fsck_cli("--store " + store_dir().string() + " --repair"), 1)
      << "repaired findings still exit 1 so scripts notice the event";
  EXPECT_EQ(*run_fsck_cli("--store " + store_dir().string()), 0)
      << "after repair the store audits clean";

  // The round trip closes: recompute the object, still clean.
  {
    service::store_options no_gc;
    no_gc.gc_stale_tmp = false;
    service::result_store store{store_dir(), no_gc};
    EXPECT_EQ(store.get(test_digest()), std::nullopt);
    store.put(test_digest(), payload);
  }
  EXPECT_EQ(*run_fsck_cli("--store " + store_dir().string()), 0);
}

// --- check-trace exit codes --------------------------------------------------

/// `check-trace` exits 0 on a clean trace, 1 on an invariant violation, and
/// 2 on a file it cannot read as a trace, naming the line.
TEST_F(fsck_cli_test, check_trace_exits_0_clean_1_violation_2_unreadable) {
  const std::string header =
      R"({"sociolearn_trace":1,"num_nodes":2,"num_options":2,"max_retries":1,)"
      R"("round_interval":1,"rounds":2,"seed":5,"evicted":0})"
      "\n"
      R"({"t":0,"kind":"post","node":0,"peer":0,"detail":2,"a":1,"b":3})"
      "\n"
      R"({"t":0.1,"kind":"send","node":0,"peer":1,"detail":1,"a":0,"b":0})"
      "\n";
  const std::string deliver =
      R"({"t":0.3,"kind":"deliver","node":1,"peer":0,"detail":1,"a":0,"b":0})"
      "\n";
  const std::string crash =
      R"({"t":0.2,"kind":"crash","node":1,"peer":0,"detail":0,"a":0,"b":0})"
      "\n";
  const auto trace_file = [this](const std::string& name, const std::string& text) {
    const fs::path path = root_ / name;
    std::ofstream{path} << text;
    return path.string();
  };

  const std::optional<int> clean = run_cli("check-trace " + trace_file("clean", header + deliver));
  REQUIRE_CLI(clean);
  EXPECT_EQ(*clean, 0);
  EXPECT_EQ(*run_cli("check-trace " + trace_file("crashed", header + crash + deliver)), 1);

  std::string error_text;
  EXPECT_EQ(*run_cli("check-trace " + trace_file("cut", header + deliver.substr(0, 30)),
                     &error_text),
            2);
  EXPECT_NE(error_text.find("trace line 4"), std::string::npos) << error_text;
  EXPECT_EQ(*run_cli("check-trace " + trace_file("missing", header + R"({"t":0.5})" + "\n"),
                     &error_text),
            2);
  EXPECT_NE(error_text.find("trace line 4: missing key 'kind'"), std::string::npos)
      << error_text;
  EXPECT_EQ(*run_cli("check-trace " + (root_ / "nonexistent").string()), 2);
}

// --- count flags of the run subcommands -------------------------------------

/// A negative --reps/--horizon/--threads/--agents is a usage error (exit 2,
/// the flag named) on every subcommand that takes it, and so are the
/// daemon's --threads and status/cancel's --retries/--retry-base-ms, and a
/// --retries or --threads above INT_MAX.  Cast to an unsigned count it used
/// to wrap: an empty report, an endless run, a bad_alloc, a daemon that
/// exited 0, or --threads 4294967297 running on one thread; cast to int,
/// --retries 4294967296 gave up after one attempt.
TEST(cli_counts, negative_counts_exit_2_naming_the_flag) {
  struct usage_case {
    std::string args;
    std::string flag;
    const char* tool = "SGL_CLI_PATH";  ///< the variable naming the binary
  };
  const std::string daemon_store =
      (fs::temp_directory_path() / ("sgl-usage-store-" + std::to_string(::getpid()))).string();
  const usage_case cases[] = {
      {"scenario --name mixed_baseline --reps -3", "--reps"},
      {"scenario --name mixed_baseline --horizon -5", "--horizon"},
      {"scenario --name mixed_baseline --threads -2", "--threads"},
      {"scenario --name mixed_baseline --agents -5", "--agents"},
      {"sweep --name mixed_baseline --sweep params.beta=0.6,0.7 --reps -1", "--reps"},
      {"sweep --name mixed_baseline --horizon -1", "--horizon"},
      {"simulate --horizon 5", "unknown subcommand"},
      {"submit --socket /nonexistent.sock --reps -3", "--reps"},
      {"submit --socket /nonexistent.sock --horizon -3", "--horizon"},
      {"status --socket /nonexistent.sock --job 1 --retries -3", "--retries"},
      {"cancel --socket /nonexistent.sock --job 1 --retry-base-ms -5", "--retry-base-ms"},
      {"status --socket /nonexistent.sock --job 1 --retries 4294967296", "--retries"},
      {"submit --socket /nonexistent.sock --retries 4294967297", "--retries"},
      {"scenario --name quickstart --horizon 5 --reps 2 --threads 4294967297", "--threads"},
      {"claims claims/sec3_two_stages.scn --threads 4294967297", "--threads"},
      {"--once --store " + daemon_store + " --threads -1", "--threads", "SGL_DAEMON_PATH"},
  };
  for (const usage_case& c : cases) {
    std::string error_text;
    const std::optional<int> code = run_tool(c.tool, c.args, &error_text);
    if (!code) GTEST_SKIP() << c.tool << " not set (tools not built)";
    EXPECT_EQ(*code, 2) << c.args << "\n" << error_text;
    EXPECT_NE(error_text.find(c.flag), std::string::npos) << c.args << "\n" << error_text;
  }
  // The sentinel stays: --agents -1 keeps the scenario's population.
  EXPECT_EQ(*run_cli("scenario --name mixed_baseline --agents -1 --horizon 5 --reps 2"), 0);
}

// --- hand-formatted run output ----------------------------------------------

/// `scenario`'s regret table, its --curves CSV and its --format csv row are
/// formatted by hand, so their bytes are pinned here: stdout only (the
/// `elapsed` line goes to stderr) and without the CSV's wall-clock
/// `seconds` column.
TEST(cli_output, regret_table_curves_and_csv_are_pinned) {
  const std::string run = "scenario --name quickstart --horizon 20 --reps 4 --threads 1";
  std::string table;
  const std::optional<int> code = run_cli(run, nullptr, &table);
  REQUIRE_CLI(code);
  EXPECT_EQ(*code, 0);
  EXPECT_EQ(table, R"(scenario: quickstart
4 options, N=1000 agents, theorem-regime parameters (beta=0.65), Bernoulli qualities (0.85, 0.45, 0.40, 0.35)

               measure            value
---------------------------------------
                regret  0.1908 ± 0.0296
        average reward  0.6592 ± 0.0296
  avg best-option mass  0.4728 ± 0.1176
final best-option mass  0.7219 ± 0.1686
   empty-step fraction           0.0000
                 bound           3.7142
          replications                4
)");

  std::string curves;
  EXPECT_EQ(*run_cli(run + " --curves", nullptr, &curves), 0);
  EXPECT_EQ(curves, R"(t,running_regret,best_mass,min_popularity
1,0.537500,0.254478,0.193377
2,0.280923,0.270280,0.179669
3,0.276896,0.276757,0.160208
4,0.271771,0.239003,0.138259
5,0.271741,0.296438,0.159279
6,0.255512,0.369135,0.108146
7,0.287394,0.374130,0.102659
8,0.278486,0.450030,0.092468
9,0.238822,0.451561,0.095239
10,0.232521,0.533521,0.075231
11,0.227735,0.603313,0.066175
12,0.235997,0.557203,0.074008
13,0.222648,0.591421,0.063180
14,0.210956,0.629512,0.062416
15,0.192082,0.632557,0.061125
16,0.193232,0.637708,0.055810
17,0.196921,0.652647,0.065945
18,0.196069,0.655359,0.068972
19,0.192774,0.731357,0.053767
20,0.190798,0.721866,0.054262
)");

  std::string csv;
  EXPECT_EQ(*run_cli(run + " --format csv", nullptr, &csv), 0);
  std::string without_seconds;  // each line minus its last (seconds) field
  std::istringstream lines{csv};
  for (std::string line; std::getline(lines, line);) {
    without_seconds += line.substr(0, line.rfind(',')) + "\n";
  }
  EXPECT_EQ(without_seconds,
            "scenario,regret.regret,regret.average_reward,regret.best_mass,"
            "regret.final_best_mass,regret.empty_step_fraction,regret.replications\n"
            "quickstart,0.1907984757050338,0.659201524294966,0.4728204496979196,"
            "0.7218664279727687,0,4\n");

  // An interval scalar no replication produced (no run hits 99% mass in 5
  // steps) is marked in the table, not printed as a measured 0 ± 0.
  std::string empty_mean;
  EXPECT_EQ(*run_cli("scenario --name quickstart --horizon 5 --reps 20 --probes "
                     "'hitting_time(eps=0.01)'",
                     nullptr, &empty_mean),
            0);
  EXPECT_EQ(empty_mean, R"(scenario: quickstart
4 options, N=1000 agents, theorem-regime parameters (beta=0.65), Bernoulli qualities (0.85, 0.45, 0.40, 0.35)


             probe metric            value
------------------------------------------
   hitting_time.threshold           0.9900
hitting_time.hit_fraction  0.0000 ± 0.0000
hitting_time.hitting_time  n/a (0 samples)
        hitting_time.hits           0.0000
hitting_time.replications          20.0000
)");

  // The catalog listing: one row per scenarios/*.scn, in file-name order.
  std::string listing;
  EXPECT_EQ(*run_cli("scenarios --format csv", nullptr, &listing), 0);
  EXPECT_EQ(listing, R"csv(name,description
drift_tracking_1e5,Drifting qualities at N=1e5 (exact aggregate engine): the ranking inverts over 400 steps (the default horizon); the final-histogram probe shows the end-state mass per option
drifting-crossover,"Non-stationary: qualities drift linearly over 2000 steps, the initially-worst option ends up best"
ef-exclusive,"Ellison-Fudenberg reduction: two options, exactly one good per step (win probabilities 0.7/0.3)"
gossip_crash_recovery,"Gossip under churn (N=400): 2% of nodes crash per round, crashed nodes restart at 10% per round; the adoption probe tracks committed/alive fractions"
gossip_crash_waves,"Crash-wave nemesis (N=300): 30% of nodes crash at rounds 8 and 24, all crashed nodes restart at rounds 16 and 32; adoption tracks the committed fraction through both waves"
gossip_degraded_links,"Degraded-links nemesis (N=250): cross links into nodes 0..124 run at 4x latency and 50% loss during rounds 12..30, then recover; message-cost accounting rides along"
gossip_lossy_sweep,"Fully mixed gossip over lossy links (N=500, 10% drop by default) — the canonical base for --sweep protocol.drop_probability grids"
gossip_partition_heal,"Scheduled partition nemesis (N=200): nodes 0..99 are cut off during rounds 10..25, then healed; the partition-divergence probe measures per-side disagreement and post-heal re-convergence"
gossip_ring_300,Gossip restricted to the cycle C_300 with exponential link jitter — the protocol analogue of the Section 6 low-conductance stress case
gossip_sensor_1e4,"Gossip protocol on a 100x100 sensor torus (N=10^4): asynchronous rounds over 5%-latency links, with message-cost and commit-latency accounting"
gossip_sync_ideal,"Degenerate synchronous gossip (N=400): zero latency, zero loss, lockstep rounds, fully mixed — the configuration whose adoption law matches finite_dynamics (statistical test tier)"
mixed_baseline,"Fully mixed homogeneous baseline: m=10, beta=0.62, N=1000 via the exact aggregate engine — the canonical spec to override (--set) and sweep"
mixture-discernment,"Heterogeneous mixture: 300 discerning (0.05/0.95), 400 paper-rule (0.35/0.65), 300 indiscriminate (0.5/0.5) agents via the exact grouped engine"
network_ba_1e6,"Network-restricted sampling on a Barabasi-Albert graph (N=10^6, attach=5) — heavy-tailed degrees at scale (sharded engine)"
network_ring_1e5,Network-restricted sampling on the cycle C_100000 — large-N low-conductance scaling run (sharded engine)
network_smallworld_1e6,"Network-restricted sampling on a Watts-Strogatz small world (N=10^6, k=5, rewire 0.1) — high clustering, short paths, at scale (sharded engine)"
nonuniform-start,Theorem 4.6: infinite dynamics started with 99% of the mass on the worst option
quickstart,"4 options, N=1000 agents, theorem-regime parameters (beta=0.65), Bernoulli qualities (0.85, 0.45, 0.40, 0.35)"
ring,Network-restricted sampling on the cycle C_900 — the low-conductance stress case of Section 6's open problem
small-world,"Network-restricted sampling on a Watts-Strogatz small world (N=900, k=5, rewire 0.1)"
switching-stocks,"Non-stationary: qualities rotate one index every 400 steps (m=5), the group must re-learn after each switch"
switching_recovery,"Switching qualities (m=5, period 300) with the recovery-time probe: steps until the new best option regains 60% of the mass after each switch"
theorem-finite,"Theorem 4.4: finite population via the exact aggregate engine, m=10, beta=0.62, N=1000, qualities 0.85/0.35"
theorem-infinite,"Theorem 4.3: infinite-population stochastic MWU, m=10, beta=0.62, canonical two-level qualities 0.85/0.35"
torus,Network-restricted sampling on the 30x30 torus (N=900)
two-cliques,Network-restricted sampling on two 450-cliques joined by one bridge — the information-bottleneck topology
two_cliques_consensus,Two 300-cliques joined by two bridges with the hitting-time probe: first step at which the best option holds 75% of the mass across the bottleneck
)csv");
}

}  // namespace
