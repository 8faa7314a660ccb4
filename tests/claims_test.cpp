// Tests for paper claims as checked data (scenario/claims.h): every
// load-time rejection names the file, the line and the point; the
// comparison rule on interval and plain scalars; a tiny claim that passes;
// a bound on a mean of no samples, and the tiny claim with its bound
// tightened, which must FAIL — the latter in the library and, through the
// real binary (SGL_CLI_PATH), as exit code 1.

#include "scenario/claims.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <stdexcept>
#include <string>

#include "core/probe.h"
#include "scenario/scenario.h"

namespace sgl::scenario {
namespace {

namespace fs = std::filesystem;

/// Two points of the infinite dynamics at different horizons; mu = 0.03
/// satisfies 6*mu <= delta^2 for both betas, and both horizons clear
/// ln(2)/delta^2, so the theory bound is admissible on both.
const std::string k_tiny_claim = R"(# a tiny claim
name = "tiny"
engine = "infinite"
num_agents = 0
params.num_options = 2
params.mu = 0.03
environment.etas = [0.85, 0.35]

run.horizon = 16
run.replications = 8
run.seed = 5

point.0 = "params.beta=0.62"
point.1 = "params.beta=0.65; run.horizon=40"  # its own horizon

expect.0 = "regret.regret <= 3*delta"
expect.1 = "regret.best_mass >= 0.5"
)";

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) throw std::logic_error{"fixture lacks '" + from + "'"};
  return text.replace(at, from.size(), to);
}

/// The rejection message parse_claims throws for `text`.
std::string rejection(const std::string& text) {
  try {
    (void)parse_claims(text, "claims/bad.scn");
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "parse_claims accepted:\n" << text;
  return "";
}

TEST(claims_load, parses_points_expects_and_bounds) {
  const claim_file file = parse_claims(k_tiny_claim, "tiny.scn");
  EXPECT_EQ(file.source, "tiny.scn");
  ASSERT_EQ(file.points.size(), 2U);
  ASSERT_EQ(file.expects.size(), 2U);

  EXPECT_EQ(file.points[0].line, 13U);
  EXPECT_EQ(file.points[0].run.horizon, 16U);
  EXPECT_EQ(file.points[1].run.horizon, 40U) << "a point may set run.horizon";
  EXPECT_EQ(file.points[1].run.replications, 8U);
  EXPECT_EQ(file.points[1].run.seed, 5U);
  ASSERT_EQ(file.points[1].assignments.size(), 1U) << "run.horizon is not a spec key";
  EXPECT_EQ(file.points[1].assignments[0].first, "params.beta");
  EXPECT_DOUBLE_EQ(file.points[1].spec.params.beta, 0.65);

  const claim_expect& regret = file.expects[0];
  EXPECT_EQ(regret.line, 16U);
  EXPECT_EQ(regret.probe, "regret");
  EXPECT_EQ(regret.scalar, "regret");
  EXPECT_TRUE(regret.at_most);
  EXPECT_EQ(regret.bound, claim_expect::bound_kind::delta_multiple);
  EXPECT_FALSE(file.expects[1].at_most);

  // Bounds are evaluated per point: 3*delta follows each point's beta.
  EXPECT_DOUBLE_EQ(file.points[0].bounds[0], 3.0 * file.points[0].spec.params.delta());
  EXPECT_DOUBLE_EQ(file.points[1].bounds[0], 3.0 * file.points[1].spec.params.delta());
  EXPECT_DOUBLE_EQ(file.points[1].bounds[1], 0.5);
}

TEST(claims_load, best_mass_lower_bound_uses_the_gap_of_the_two_best_options) {
  const claim_file file = parse_claims(
      replaced(replaced(k_tiny_claim, "[0.85, 0.35]", "[0.4, 0.9, 0.5]"),
               "params.num_options = 2", "params.num_options = 3") +
          "expect.2 = \"regret.best_mass >= best_mass_lower_bound\"\n",
      "gap.scn");
  const double delta = file.points[0].spec.params.delta();
  EXPECT_DOUBLE_EQ(file.points[0].bounds[2], std::max(0.0, 1.0 - 3.0 * delta / 0.4));
}

TEST(claims_load, rejects_an_unknown_key_in_a_point) {
  const std::string message =
      rejection(replaced(k_tiny_claim, "params.beta=0.65", "params.bta=0.65"));
  EXPECT_NE(message.find("claims/bad.scn:14: point.1:"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean 'params.beta'"), std::string::npos) << message;
}

TEST(claims_load, rejects_a_malformed_expect) {
  for (const char* bad :
       {"regret.regret < 0.5", "regret <= 0.5", "regret.regret <= ", ".regret >= 1"}) {
    const std::string message =
        rejection(replaced(k_tiny_claim, "regret.best_mass >= 0.5", bad));
    EXPECT_NE(message.find("claims/bad.scn:17: expect.1 '"), std::string::npos) << message;
  }
}

TEST(claims_load, rejects_an_unknown_probe_or_scalar) {
  const std::string probe =
      rejection(replaced(k_tiny_claim, "regret.best_mass", "hitting_time.hit_fraction"));
  EXPECT_NE(probe.find("claims/bad.scn:17: expect.1 on point.0 (line 13): probe "
                       "'hitting_time' is not run on this point"),
            std::string::npos)
      << probe;

  const std::string scalar =
      rejection(replaced(k_tiny_claim, "regret.best_mass", "regret.best_mas"));
  EXPECT_NE(scalar.find("claims/bad.scn:17: expect.1 on point.0"), std::string::npos)
      << scalar;
  EXPECT_NE(scalar.find("did you mean 'best_mass'"), std::string::npos) << scalar;

  // A probe the point does run is fine: probes come from the spec.
  EXPECT_NO_THROW((void)parse_claims(
      replaced(replaced(k_tiny_claim, "regret.best_mass", "hitting_time.hit_fraction"),
               "run.seed = 5", "run.seed = 5\nprobes = [\"regret\", \"hitting_time(eps=0.2)\"]"),
      "ok.scn"));
}

TEST(claims_load, rejects_an_unknown_bound_name) {
  const std::string message =
      rejection(replaced(k_tiny_claim, "3*delta", "3*epsilon"));
  EXPECT_NE(message.find("claims/bad.scn:16:"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown bound '3*epsilon'"), std::string::npos) << message;
}

// A non-finite bound is refused at load time: `<= inf` would pass every
// row vacuously, and `<= nan` could only fail at run time.  Neither is a
// JSON number, so both are unknown bounds.
TEST(claims_load, rejects_an_infinite_bound) {
  const std::string message =
      rejection(replaced(k_tiny_claim, "regret.best_mass >= 0.5", "regret.regret <= inf"));
  EXPECT_NE(message.find("claims/bad.scn:17: expect.1 'regret.regret <= inf': unknown "
                         "bound 'inf'"),
            std::string::npos)
      << message;
}

TEST(claims_load, rejects_an_infinite_delta_multiple) {
  const std::string message = rejection(replaced(k_tiny_claim, "3*delta", "inf*delta"));
  EXPECT_NE(message.find("claims/bad.scn:16: expect.0 'regret.regret <= inf*delta'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("unknown bound 'inf*delta'"), std::string::npos) << message;
}

TEST(claims_load, rejects_a_nan_bound) {
  const std::string message =
      rejection(replaced(k_tiny_claim, "regret.best_mass >= 0.5", "regret.regret <= nan"));
  EXPECT_NE(message.find("claims/bad.scn:17: expect.1 'regret.regret <= nan'"),
            std::string::npos)
      << message;
}

TEST(claims_load, rejects_a_theory_bound_on_a_point_outside_the_hypotheses) {
  // beta above e/(e+1).
  const std::string beta = rejection(replaced(k_tiny_claim, "beta=0.65", "beta=0.8"));
  EXPECT_NE(beta.find("claims/bad.scn:16: expect.0 on point.1 (line 14): a theory bound "
                      "needs the theorem hypotheses"),
            std::string::npos)
      << beta;
  // T below ln(m)/delta^2 (beta = 0.52: delta^2 = 0.0064, ln 2 / delta^2 = 108).
  const std::string horizon = rejection(replaced(
      replaced(k_tiny_claim, "beta=0.62", "beta=0.52"), "params.mu = 0.03", "params.mu = 0.001"));
  EXPECT_NE(horizon.find("expect.0 on point.0 (line 13)"), std::string::npos) << horizon;
  EXPECT_NE(horizon.find("T = 16"), std::string::npos) << horizon;
  // A plain number has no hypotheses to check.
  EXPECT_NO_THROW((void)parse_claims(
      replaced(replaced(k_tiny_claim, "beta=0.65", "beta=0.8"), "3*delta", "2.0"), "ok.scn"));
}

TEST(claims_load, rejects_missing_or_misnumbered_claim_keys) {
  EXPECT_NE(rejection(replaced(k_tiny_claim, "run.seed = 5", "")).find("no run.seed"),
            std::string::npos);
  EXPECT_NE(rejection(replaced(k_tiny_claim, "run.seed", "run.sed")).find("claims/bad.scn:11:"),
            std::string::npos);
  EXPECT_NE(rejection(replaced(k_tiny_claim, "point.1", "point.2")).find("expected point.1"),
            std::string::npos);
  EXPECT_NE(rejection(replaced(k_tiny_claim, "run.horizon = 16", ""))
                .find("point.0: no run.horizon"),
            std::string::npos);
  EXPECT_NE(rejection(replaced(k_tiny_claim, "run.replications = 8", "run.replications = 0"))
                .find("claims/bad.scn:10:"),
            std::string::npos);
}

TEST(claims_rule, interval_scalars_fail_only_when_the_whole_interval_is_wrong) {
  const core::probe_scalar ci{
      .key = "x", .value = 0.5, .half_width = 0.1, .has_ci = true, .samples = 8};
  EXPECT_TRUE(claim_holds(ci, /*at_most=*/true, 0.45)) << "interval straddles the bound";
  EXPECT_TRUE(claim_holds(ci, true, 0.4)) << "touching counts as holding";
  EXPECT_FALSE(claim_holds(ci, true, 0.39));
  EXPECT_TRUE(claim_holds(ci, /*at_most=*/false, 0.55));
  EXPECT_TRUE(claim_holds(ci, false, 0.6));
  EXPECT_FALSE(claim_holds(ci, false, 0.61));
}

TEST(claims_rule, plain_scalars_compare_directly) {
  const core::probe_scalar plain{.key = "x", .value = 0.5, .half_width = 0.1};
  EXPECT_FALSE(claim_holds(plain, true, 0.45)) << "a half_width without has_ci is ignored";
  EXPECT_TRUE(claim_holds(plain, true, 0.5));
  EXPECT_FALSE(claim_holds(plain, false, 0.55));
  EXPECT_TRUE(claim_holds(plain, false, 0.5));
}

TEST(claims_run, tiny_claim_passes_and_matches_running_each_point_alone) {
  const claim_file file = parse_claims(k_tiny_claim, "tiny.scn");
  const std::vector<claim_row> rows = run_claims(file, 2);
  ASSERT_EQ(rows.size(), 4U);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].point, i / 2);
    EXPECT_EQ(rows[i].expect, i % 2);
    EXPECT_TRUE(rows[i].pass) << "row " << i << ": " << rows[i].measured.value;
  }
  // Per-horizon scheduling returns each point's own result.
  for (std::size_t p = 0; p < file.points.size(); ++p) {
    const core::probe_list alone = run_probes(file.points[p].spec, file.points[p].run);
    const core::probe_report report = alone[0]->report();
    EXPECT_EQ(rows[2 * p].measured.value, report.find_scalar("regret")->value) << p;
    EXPECT_EQ(rows[2 * p + 1].measured.value, report.find_scalar("best_mass")->value) << p;
  }
  // Thread count never changes a verdict or a digit.
  const std::vector<claim_row> serial = run_claims(file, 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(serial[i].measured.value, rows[i].measured.value);
    EXPECT_EQ(serial[i].measured.half_width, rows[i].measured.half_width);
  }
}

// The quickstart point cannot reach a 99% share in 5 steps, so no
// replication records a hitting time and the reported 0.0 is the mean of
// nothing: the row fails instead of passing `<= 20` vacuously.
TEST(claims_run, hitting_time_bound_fails_when_no_replication_hits) {
  const claim_file file = parse_claims(R"scn(name = "quickstart_no_hit"
engine = "agent_based"
params.num_options = 4
params.mu = 0.06386825692403399
params.beta = 0.65
environment.etas = [0.85, 0.45, 0.4, 0.35]
probes = ["hitting_time(eps=0.01)"]

run.horizon = 5
run.replications = 20
run.seed = 1

point.0 = "params.beta=0.65"

expect.0 = "hitting_time.hitting_time <= 20"
expect.1 = "hitting_time.hit_fraction <= 0"
)scn",
                                       "no_hit.scn");
  const std::vector<claim_row> rows = run_claims(file, 2);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_FALSE(rows[0].pass) << "hitting_time " << rows[0].measured.value;
  EXPECT_TRUE(rows[1].pass) << "every replication counts toward hit_fraction";
}

TEST(claims_run, tightened_bound_fails) {
  const claim_file file =
      parse_claims(replaced(k_tiny_claim, "3*delta", "0.001"), "tight.scn");
  const std::vector<claim_row> rows = run_claims(file, 0);
  ASSERT_EQ(rows.size(), 4U);
  EXPECT_FALSE(rows[0].pass);
  EXPECT_FALSE(rows[2].pass);
  EXPECT_TRUE(rows[1].pass);
  EXPECT_TRUE(rows[3].pass);
}

// --- the CLI subcommand ------------------------------------------------------

class claims_cli_test : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sgl-claims-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Writes `text` to `name` under the scratch root and returns its path.
  [[nodiscard]] std::string write(const std::string& name, const std::string& text) const {
    const fs::path path = root_ / name;
    std::ofstream{path} << text;
    return path.string();
  }

  /// Runs `sociolearn_cli claims <args>`; returns the exit code and fills
  /// `out` with stdout + stderr, or nullopt when the binary is not built.
  [[nodiscard]] std::optional<int> run(const std::string& args, std::string& out) const {
    const char* cli = std::getenv("SGL_CLI_PATH");
    if (cli == nullptr || *cli == '\0') return std::nullopt;
    const fs::path log = root_ / "out.txt";
    const std::string command =
        std::string{cli} + " claims " + args + " >" + log.string() + " 2>&1";
    const int status = std::system(command.c_str());
    if (status < 0) return std::nullopt;
    std::ifstream input{log};
    out.assign(std::istreambuf_iterator<char>{input}, std::istreambuf_iterator<char>{});
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path root_;
};

#define REQUIRE_CLI(result) \
  if (!(result)) GTEST_SKIP() << "SGL_CLI_PATH not set (tools not built)"

TEST_F(claims_cli_test, passing_claim_exits_0_tightened_copy_exits_1) {
  std::string out;
  const std::string tiny = write("tiny.scn", k_tiny_claim);
  const std::optional<int> passing = run(tiny, out);
  REQUIRE_CLI(passing);
  EXPECT_EQ(*passing, 0) << out;
  EXPECT_NE(out.find("4 rows from 1 files, 0 FAIL"), std::string::npos) << out;

  const std::string tight = write("tight.scn", replaced(k_tiny_claim, "3*delta", "0.001"));
  EXPECT_EQ(*run(tiny + " " + tight + " --threads 2", out), 1) << out;
  // The failing row names the file, the point and the expect.
  EXPECT_TRUE(std::regex_search(
      out, std::regex{"tight\\.scn +point\\.1 +expect\\.0: regret\\.regret <= 0\\.001 .* FAIL"}))
      << out;
  EXPECT_NE(out.find("8 rows from 2 files, 2 FAIL"), std::string::npos) << out;
}

TEST_F(claims_cli_test, refused_file_runs_nothing_and_exits_2) {
  std::string out;
  const std::string tiny = write("tiny.scn", k_tiny_claim);
  const std::string bad = write("bad.scn", replaced(k_tiny_claim, "beta=0.65", "beta=0.8"));
  const std::optional<int> code = run(tiny + " " + bad, out);
  REQUIRE_CLI(code);
  EXPECT_EQ(*code, 2) << out;
  EXPECT_NE(out.find("bad.scn:16: expect.0 on point.1"), std::string::npos) << out;
  EXPECT_EQ(out.find("rows from"), std::string::npos) << "no point may run: " << out;

  const std::string inf = write("inf.scn", replaced(k_tiny_claim, "3*delta", "inf*delta"));
  EXPECT_EQ(*run(inf, out), 2) << out;
  EXPECT_NE(out.find("inf.scn:16: expect.0 'regret.regret <= inf*delta'"), std::string::npos)
      << out;

  EXPECT_EQ(*run("", out), 2) << "no files";
  EXPECT_EQ(*run(tiny + " --reps 4", out), 2) << "claims takes only --threads/--format";
  EXPECT_EQ(*run(tiny + " --threads -1", out), 2);
  EXPECT_NE(out.find("--threads must be >= 0"), std::string::npos) << out;
}

}  // namespace
}  // namespace sgl::scenario
