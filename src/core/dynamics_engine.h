#pragma once

/// \file dynamics_engine.h
/// The one interface behind every formulation of the adoption dynamics.
///
/// The paper's central observation is that a single process admits several
/// equivalent formulations — finite agent-based (§2.1), exact aggregate
/// (Propositions 4.1/4.2), and infinite mean-field (§4.2, eq. (1)) — all
/// inducing the same law on the popularity trajectory in the homogeneous,
/// fully mixed case.  The repo mirrors that: aggregate_dynamics (which also
/// runs rule-group mixtures), finite_dynamics and infinite_dynamics are all
/// `dynamics_engine`s, and every harness (the Monte-Carlo runner in
/// experiment.h, the scenario registry in scenario/, the CLI, and the
/// benchmarks) drives them solely through this interface.
///
/// Contract (invariants tested in tests/dynamics_engine_test.cpp):
///   * popularity() is always a probability vector of size num_options()
///     (uniform before the first step and after empty steps — DESIGN.md);
///   * adopter_counts(), when non-empty, has size num_options() and the
///     entries sum to the number of committed individuals;
///   * empty_steps() counts the steps on which nobody adopted (for the
///     infinite engine: the degenerate α = 0 annihilation steps);
///   * step() consumes `gen` deterministically — engines that are
///     distribution-equal may share streams (see the identical-law test).

#include <cstdint>
#include <span>

#include "support/rng.h"

namespace sgl::core {

class dynamics_engine {
 public:
  virtual ~dynamics_engine() = default;

  /// Back to the initial state: nobody committed, uniform popularity,
  /// step/empty-step counters cleared.
  virtual void reset() = 0;

  /// True when reset() restores the engine to the exact state its factory
  /// delivered it in, so the Monte-Carlo harness may keep one instance per
  /// worker and reset() it between replications instead of reconstructing
  /// (core/experiment.h).  Configuration installed through setters
  /// (topology, per-agent rules, thread counts) survives reset() and stays
  /// reusable; an engine put into a state reset() does *not* restore — e.g.
  /// a nonuniform start installed via an overloaded reset(span) — must
  /// report false from then on.  Defaults to false: unknown engines are
  /// reconstructed every replication, which is always correct.
  [[nodiscard]] virtual bool reusable() const noexcept { return false; }

  /// Advances one step given the realized signals R^{t+1} (size must be
  /// num_options()).  Deterministic engines may ignore `gen`.
  virtual void step(std::span<const std::uint8_t> rewards, rng& gen) = 0;

  /// Q^t: the popularity distribution over options.
  [[nodiscard]] virtual std::span<const double> popularity() const noexcept = 0;

  /// D^t_j: committed individuals per option after the last step.  Empty for
  /// engines without individual counts (the infinite-population dynamics).
  [[nodiscard]] virtual std::span<const std::uint64_t> adopter_counts() const noexcept = 0;

  /// Steps on which nobody adopted (popularity reverted to uniform).
  [[nodiscard]] virtual std::uint64_t empty_steps() const noexcept = 0;

  /// Steps taken since the last reset.
  [[nodiscard]] virtual std::uint64_t steps() const noexcept = 0;

  /// m, read off the popularity vector.
  [[nodiscard]] std::size_t num_options() const noexcept { return popularity().size(); }
};

}  // namespace sgl::core
