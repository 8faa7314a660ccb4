// The store-audit contract, at both levels: the result_store fsck/repair
// API (quarantine-then-recompute round trip) and the `sociolearn_cli fsck`
// subcommand's exit codes — 2 for usage errors, 1 for findings (even when
// repaired), 0 for a clean store.  The CLI half drives the real binary via
// SGL_CLI_PATH (set by CMake when SGL_BUILD_TOOLS is on; skipped when the
// tools are not built), as do the usage checks on the run subcommands'
// count flags at the end of the file (which also run sociolearnd, via
// SGL_DAEMON_PATH).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
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

/// Runs the binary named by the environment variable `path_variable` with
/// `args` and returns its exit code, or nullopt when the binary is not
/// available (tools not built).  With `error_text`, the command's stderr is
/// captured into it.
std::optional<int> run_tool(const char* path_variable, const std::string& args,
                            std::string* error_text) {
  const char* tool = std::getenv(path_variable);
  if (tool == nullptr || *tool == '\0') return std::nullopt;
  const fs::path log = fs::temp_directory_path() /
                       ("sgl-cli-stderr-" + std::to_string(::getpid()) + ".txt");
  const std::string command = std::string{tool} + " " + args + " </dev/null >/dev/null 2>" +
                              (error_text != nullptr ? log.string() : "&1");
  const int status = std::system(command.c_str());
  if (status < 0) return std::nullopt;
  if (error_text != nullptr) {
    std::ifstream input{log};
    error_text->assign(std::istreambuf_iterator<char>{input},
                       std::istreambuf_iterator<char>{});
    fs::remove(log);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `sociolearn_cli <args>` (see run_tool).
std::optional<int> run_cli(const std::string& args, std::string* error_text = nullptr) {
  return run_tool("SGL_CLI_PATH", args, error_text);
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

// --- count flags of the run subcommands -------------------------------------

/// A negative --reps/--horizon/--threads/--agents is a usage error (exit 2,
/// the flag named) on every subcommand that takes it, and so are the
/// daemon's --threads and status/cancel's --retries/--retry-base-ms.  Cast to an unsigned count it used to wrap: an empty
/// report, an endless run, a bad_alloc, or a daemon that exited 0.
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

}  // namespace
