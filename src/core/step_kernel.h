#pragma once

/// \file step_kernel.h
/// Vectorized step kernels for finite_dynamics — stream derivation v3.
///
/// Two hot paths are implemented as lane-parallel kernels, each the only
/// sampler of its path (DESIGN.md, "SoA state layout and stream derivation
/// v3"):
///
///   * `net2` — the sparse network step for the canonical two-option case
///     (packed committed-neighbour view, one u32 row per vertex), covering
///     both the homogeneous fused-threshold form and heterogeneous
///     per-agent rules;
///   * `mixed` — the fully mixed heterogeneous per-agent step (no
///     topology), with a CDF-ladder popularity draw for m ≤ 64 options.
///
/// Unlike derivation v2 (sequential per-(step, shard) generator streams),
/// v3 consumes *position-addressable* draws: one step seed S is drawn from
/// the caller's stream (exactly one word — the same consumption as v2's
/// step_network, so callers cannot tell the derivations apart by generator
/// state), and agent g reads words w0 = counter_word(S, 2g) and
/// w1 = counter_word(S, 2g+1).  Draws therefore depend only on (S, g):
/// never on the shard decomposition, the thread count, the lane width, or
/// whether the agent lands in a vector batch or the scalar remainder loop.
/// Every ISA variant computes bit-identical results by construction (all
/// arithmetic is integer-exact; see support/simd.h).
///
/// All stage-2 thresholds arrive as u64 comparison scales (rng.h,
/// prob_to_u64).  The endpoint conventions make p = 0 ("never adopt") and
/// p = 1 ("always adopt") exact, not merely 2^-64-close: kernels OR the
/// `w0 < threshold` lane test with a threshold==max (homogeneous) or
/// P==max (per-agent) comparison.
///
/// Dispatch: the four translation units (generic / avx2 / avx512 / neon)
/// compile one shared implementation, with every lane 64 bits wide, under
/// different target flags;
/// `active_isa()` picks once per process from CPU capability and what was
/// compiled in.  The generic TU runs the scalar formulas only, since
/// emulated vectors on a baseline target are slower than plain scalar
/// code.
/// Setting the environment variable SGL_KERNEL=generic forces the generic
/// TU, so one binary can prove that both ISAs produce the same bits.

#include <cstddef>
#include <cstdint>

#include "support/simd.h"

namespace sgl::core::kernel {

/// Arguments for the sparse two-option network kernel.  All array
/// pointers are global-base (indexed by absolute agent index) except
/// `changed`, which the caller pre-offsets to the shard and which must
/// have room for hi − lo entries: the kernel may write any of those
/// slots, and the entries past *changed_len are unspecified (the AVX-512
/// build stores each batch's packed entries at full vector width).
struct net2_args {
  std::uint64_t step_seed = 0;  ///< S: seeds every counter_word draw
  std::size_t lo = 0;           ///< first agent (inclusive)
  std::size_t hi = 0;           ///< last agent (exclusive)
  const std::uint32_t* rows = nullptr;      ///< packed view: c0 | c1 << 16
  const std::int32_t* previous = nullptr;   ///< last step's choices
  std::int32_t* choices = nullptr;          ///< out: this step's choices
  std::uint64_t t_mu = 0;                   ///< prob_to_u64(mu)
  std::uint64_t thr_explore[2] = {0, 0};    ///< homogeneous: prob_to_u64(mu·p_j)
  std::uint64_t thr_copy[2] = {0, 0};       ///< homogeneous: prob_to_u64(mu+(1−mu)p_j)
  /// Heterogeneous per-agent adoption thresholds, already selected by this
  /// step's rewards: p_reward0[g] applies when agent g considered option 0,
  /// p_reward1[g] when it considered option 1.  Null = homogeneous (use
  /// thr_explore/thr_copy instead).
  const std::uint64_t* p_reward0 = nullptr;
  const std::uint64_t* p_reward1 = nullptr;
  std::uint64_t* changed = nullptr;      ///< out: packed (i, was, now) entries, hi − lo slots
  std::uint32_t* changed_len = nullptr;  ///< out: entries written (the rest unspecified)
  std::uint64_t* stage = nullptr;        ///< in/out: stage[2] tallies (+=)
  std::uint64_t* adopt = nullptr;        ///< in/out: adopt[2] tallies (+=)
};

/// Arguments for the fully mixed heterogeneous per-agent kernel.
struct mixed_args {
  std::uint64_t step_seed = 0;
  std::size_t n = 0;  ///< agents (kernel covers [0, n))
  std::size_t m = 0;  ///< options; kernel requires 1 <= m <= 64
  std::uint64_t t_mu = 0;
  /// CDF ladder of the previous step's popularity: m−1 rungs,
  /// pop_cdf[j] = prob_to_u64(q_0 + … + q_j).  The copy branch considers
  /// option #{j : w1 >= pop_cdf[j]}.
  const std::uint64_t* pop_cdf = nullptr;
  std::uint64_t reward_bits = 0;  ///< bit j = reward of option j
  const std::uint64_t* alpha_thr = nullptr;  ///< prob_to_u64(alpha_i) per agent
  const std::uint64_t* beta_thr = nullptr;   ///< prob_to_u64(beta_i) per agent
  std::int32_t* choices = nullptr;           ///< out
  std::uint32_t* considered = nullptr;       ///< out: stage-1 option per agent
};

using net2_fn = void (*)(const net2_args&);
using mixed_fn = void (*)(const mixed_args&);

// Per-ISA entry points.  The avx2/avx512/neon translation units always
// define their symbols; when built without the matching target flags they
// forward to the generic implementation and report not-compiled, so the
// dispatcher below never selects them.
void net2_step_generic(const net2_args& args);
void mixed_step_generic(const mixed_args& args);
void net2_step_avx2(const net2_args& args);
void mixed_step_avx2(const mixed_args& args);
[[nodiscard]] bool avx2_kernels_compiled() noexcept;
void net2_step_avx512(const net2_args& args);
void mixed_step_avx512(const mixed_args& args);
[[nodiscard]] bool avx512_kernels_compiled() noexcept;
void net2_step_neon(const net2_args& args);
void mixed_step_neon(const mixed_args& args);
[[nodiscard]] bool neon_kernels_compiled() noexcept;

/// The ISA the dispatcher resolved to, decided once per process: the best
/// of {avx512, avx2, neon} that is both compiled in and supported by the
/// running CPU, else generic.  SGL_KERNEL=generic in the environment forces
/// generic; results are the same either way, only speed differs.
[[nodiscard]] simd::isa active_isa() noexcept;

/// Kernel entry for the active ISA (valid to call under any ISA including
/// generic — the result is bit-identical everywhere, only speed differs).
[[nodiscard]] net2_fn net2_step() noexcept;
[[nodiscard]] mixed_fn mixed_step() noexcept;

}  // namespace sgl::core::kernel
