// The generator-driven property tier's core suite: universal invariants
// asserted over randomly drawn valid scenario_specs spanning every engine
// kind, topology family, environment family, and protocol/fault knob
// (tests/property/generators.h).  Each TEST states one law the whole
// engine family must satisfy; a violation is shrunk to a minimal failing
// spec and reported as `--file`-loadable text plus the exact reproduction
// command (tests/property/property_harness.h).
//
// Iteration count and seed come from SGL_PROPERTY_ITERS / SGL_PROPERTY_SEED
// (decimal) when set; the defaults keep the suite a few seconds per test.
// The first corner_specs().size() iterations are the curated hostile
// corners, so every run covers all five engine kinds before any random
// draw.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "core/probe.h"
#include "property/generators.h"
#include "property/property_harness.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "service/digest.h"
#include "service/payload.h"
#include "support/rng.h"

namespace {

using namespace sgl;
using testgen::check_scenario_property;
using testgen::property_run_config;
using testgen::run_fingerprint;

/// Wraps property bodies that run specs: an exception is a failure message,
/// not a test abort, so "this spec throws" shrinks like any other violation.
template <typename Body>
std::string guarded(const Body& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    return std::string{"unexpected exception: "} + error.what();
  }
}

// Law 1: the canonical text form is a fixpoint — serialize, parse,
// serialize again must reproduce the text byte for byte — and the reparsed
// spec must run bit-identically to the original.  This is the contract the
// service digest's cache soundness stands on.
TEST(scenario_property, serialize_parse_serialize_fixpoint_and_run_identity) {
  check_scenario_property([](const scenario::scenario_spec& spec) {
    return guarded([&]() -> std::string {
      const std::string text = scenario::serialize_scenario(spec);
      const scenario::scenario_spec reparsed = scenario::parse_scenario(text);
      const std::string again = scenario::serialize_scenario(reparsed);
      if (text != again) return "serialize/parse/serialize is not a fixpoint";
      const std::string validity = scenario::validate_spec_error(reparsed);
      if (!validity.empty()) {
        return "reparsed spec fails validate_spec: " + validity;
      }
      const core::run_config config = property_run_config();
      if (run_fingerprint(spec, config) != run_fingerprint(reparsed, config)) {
        return "reparsed spec runs differently from the original";
      }
      return {};
    });
  });
}

// Law 2: probe merging is schedule-invariant — the merged probe reports
// are bit-identical across harness thread counts, for every drawn spec
// (the registry-wide version of this law is pinned golden in
// harness_determinism_test.cpp).
TEST(scenario_property, probe_merge_is_schedule_invariant) {
  check_scenario_property(
      [](const scenario::scenario_spec& spec) {
        return guarded([&]() -> std::string {
          core::run_config config = property_run_config();
          config.replications = 3;  // an odd count shards unevenly
          const std::string reference = run_fingerprint(spec, config);
          for (const unsigned threads : {2U, 3U}) {
            config.threads = threads;
            if (run_fingerprint(spec, config) != reference) {
              return "merged probes diverge at threads=" + std::to_string(threads);
            }
          }
          return {};
        });
      },
      /*default_iterations=*/40);
}

// Law 3: the engine-state contract (core/invariants.h) holds at every step
// of every drawn spec: popularity stays a simplex vector, adopter counts
// stay consistent with it, empty_steps never exceeds steps.
TEST(scenario_property, state_invariants_hold_at_every_step) {
  check_scenario_property([](const scenario::scenario_spec& spec) {
    return guarded([&]() -> std::string {
      auto engine = scenario::make_engine(spec)();
      auto environment = scenario::make_environment(spec.environment)();
      rng reward_gen = rng::from_stream(33, 0);
      rng process_gen = rng::from_stream(33, 1);
      std::vector<std::uint8_t> rewards(engine->num_options());
      std::string error = core::state_invariant_error(*engine);
      if (!error.empty()) return "after construction: " + error;
      for (std::uint64_t t = 1; t <= 25; ++t) {
        environment->sample(t, reward_gen, rewards);
        engine->step(rewards, process_gen);
        error = core::state_invariant_error(*engine);
        if (!error.empty()) return "after step " + std::to_string(t) + ": " + error;
      }
      return {};
    });
  });
}

// Law 4: reset() restores the exact constructed state — a used-then-
// reset() engine or environment replays the draws of a fresh one bit for
// bit, for every kind and every start, which is what lets the harness
// reset instead of rebuilding between replications; and factory-fresh
// engines are deterministic (two builds, same streams, same trajectory).
TEST(scenario_property, reset_reuse_and_fresh_build_determinism) {
  const auto trajectory = [](core::dynamics_engine& engine) {
    rng reward_gen = rng::from_stream(11, 0);
    rng process_gen = rng::from_stream(11, 1);
    std::vector<std::uint8_t> rewards(engine.num_options());
    std::vector<double> out;
    for (std::uint64_t t = 1; t <= 20; ++t) {
      for (auto& r : rewards) r = reward_gen.next_bernoulli(0.6) ? 1 : 0;
      engine.step(rewards, process_gen);
      for (const double q : engine.popularity()) out.push_back(q);
    }
    out.push_back(static_cast<double>(engine.empty_steps()));
    out.push_back(static_cast<double>(engine.steps()));
    return out;
  };
  const auto samples = [](env::reward_model& environment) {
    rng gen = rng::from_stream(11, 0);
    std::vector<std::uint8_t> rewards(environment.num_options());
    std::vector<std::uint8_t> out;
    for (std::uint64_t t = 1; t <= 20; ++t) {
      environment.sample(t, gen, rewards);
      out.insert(out.end(), rewards.begin(), rewards.end());
    }
    return out;
  };
  check_scenario_property([&trajectory, &samples](const scenario::scenario_spec& spec) {
    return guarded([&]() -> std::string {
      auto environment = scenario::make_environment(spec.environment)();
      const std::vector<std::uint8_t> fresh_samples = samples(*environment);
      environment->reset();
      if (samples(*environment) != fresh_samples) {
        return "reset() environment diverges from a fresh one";
      }

      const core::engine_factory make_engine = scenario::make_engine(spec);
      auto first = make_engine();
      const std::vector<double> reference = trajectory(*first);
      auto second = make_engine();
      if (trajectory(*second) != reference) {
        return "two factory-fresh engines disagree from identical streams";
      }
      first->reset();
      if (trajectory(*first) != reference) {
        return "reset() engine diverges from a fresh one";
      }
      return {};
    });
  });
}

// Law 6: the service digest keys exactly the semantically meaningful
// inputs — stable under every documented-inert mutation (name,
// description, config.threads) and under keys the spec's engine or
// family does not read, which leave the payload bytes unchanged too;
// changed by meaningful ones (master seed, horizon, mu, the graph seed of
// a random topology).
TEST(scenario_property, spec_digest_keys_meaningful_inputs_only) {
  check_scenario_property([](const scenario::scenario_spec& spec) {
    return guarded([&]() -> std::string {
      const core::run_config config = property_run_config();
      const std::vector<std::string> no_probes;
      const service::digest128 base = service::spec_digest(spec, config, no_probes);

      scenario::scenario_spec renamed = spec;
      renamed.name += "-renamed";
      renamed.description += " (documentation only)";
      core::run_config reshaped = config;
      reshaped.threads = 4;
      if (service::spec_digest(renamed, reshaped, no_probes) != base) {
        return "digest moved under inert mutations (name/description/"
               "config.threads)";
      }

      core::run_config reseeded = config;
      reseeded.seed = config.seed + 1;
      if (service::spec_digest(spec, reseeded, no_probes) == base) {
        return "digest ignored the master seed";
      }
      core::run_config longer = config;
      longer.horizon = config.horizon + 1;
      if (service::spec_digest(spec, longer, no_probes) == base) {
        return "digest ignored the horizon";
      }
      scenario::scenario_spec mixed = spec;
      mixed.params.mu = spec.params.mu == 1.0 ? 0.5 : (spec.params.mu + 1.0) / 2.0;
      if (service::spec_digest(mixed, config, no_probes) == base) {
        return "digest ignored params.mu";
      }

      // Every key below is either read by this spec's engine and family, so
      // changing it must move the digest, or unread, so changing it must
      // leave the digest and the payload bytes alone.
      using topology = scenario::topology_spec::family_kind;
      const topology family = spec.topology.family;
      scenario::scenario_spec unread = spec;
      const auto check = [&](bool read, const char* key, auto mutate) -> std::string {
        scenario::scenario_spec changed = spec;
        mutate(changed);
        if (read) {
          if (service::spec_digest(changed, config, no_probes) == base) {
            return std::string{"digest ignored "} + key + ", which the spec reads";
          }
        } else {
          mutate(unread);
        }
        return {};
      };
      const bool random_graph = family == topology::erdos_renyi ||
                                family == topology::watts_strogatz ||
                                family == topology::barabasi_albert;
      for (const std::string& failure : {
               check(random_graph, "topology.seed",
                     [](scenario::scenario_spec& s) { ++s.topology.seed; }),
               check(family == topology::watts_strogatz || family == topology::barabasi_albert,
                     "topology.degree", [](scenario::scenario_spec& s) { ++s.topology.degree; }),
               check(spec.environment.family == scenario::environment_spec::family_kind::switching,
                     "environment.period",
                     [](scenario::scenario_spec& s) { ++s.environment.period; }),
               check(spec.engine != scenario::engine_kind::infinite, "num_agents",
                     [](scenario::scenario_spec& s) { ++s.num_agents; }),
           }) {
        if (!failure.empty()) return failure;
      }
      if (service::spec_digest(unread, config, no_probes) != base) {
        return "digest moved under keys the spec does not read";
      }
      const auto payload = [&](const scenario::scenario_spec& s) {
        const auto reports = core::collect_reports(scenario::run_probes(s, config, no_probes));
        return service::build_point_payload(base, s, config, no_probes, reports);
      };
      if (payload(unread) != payload(spec)) {
        return "payload moved under keys the spec does not read";
      }
      return {};
    });
  });
}

// Law 7: every degenerate-parameter corner where the dynamics provably
// freeze — alpha = 0 with an all-bad-signal environment means no agent can
// ever commit — stays frozen in every engine kind: popularity exactly
// uniform, zero adopters, every step an empty step.
TEST(scenario_property, no_commits_under_alpha_zero_and_all_bad_signals) {
  check_scenario_property(
      [](const scenario::scenario_spec& spec) {
        return guarded([&]() -> std::string {
          scenario::scenario_spec frozen = spec;
          frozen.params.alpha = 0.0;
          frozen.environment.family =
              scenario::environment_spec::family_kind::bernoulli;
          frozen.environment.etas.assign(frozen.params.num_options, 0.0);
          frozen.environment.end_etas.clear();
          frozen.start.clear();  // a nonuniform P0 would (correctly) persist
          for (auto& group : frozen.groups) group.rule.alpha = 0.0;
          for (auto& rule : frozen.agent_rules) rule.alpha = 0.0;
          const std::string validity = scenario::validate_spec_error(frozen);
          if (!validity.empty()) return std::string{};  // corner not reachable

          auto engine = scenario::make_engine(frozen)();
          auto environment = scenario::make_environment(frozen.environment)();
          rng reward_gen = rng::from_stream(5, 0);
          rng process_gen = rng::from_stream(5, 1);
          std::vector<std::uint8_t> rewards(engine->num_options());
          const double uniform = 1.0 / static_cast<double>(engine->num_options());
          for (std::uint64_t t = 1; t <= 20; ++t) {
            environment->sample(t, reward_gen, rewards);
            engine->step(rewards, process_gen);
            for (const double q : engine->popularity()) {
              if (q != uniform) return "popularity left uniform with no commits";
            }
            for (const std::uint64_t count : engine->adopter_counts()) {
              if (count != 0) return "an agent committed under alpha=0, all-bad signals";
            }
          }
          if (engine->empty_steps() != engine->steps()) {
            return "a step was counted non-empty with no commits possible";
          }
          return {};
        });
      },
      /*default_iterations=*/40);
}

}  // namespace
