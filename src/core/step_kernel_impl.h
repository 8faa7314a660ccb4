// \file step_kernel_impl.h
// The single implementation behind every per-ISA step-kernel translation
// unit.  NOT a normal header: it defines internal-linkage functions and is
// included exactly once per kernel TU (step_kernel_generic.cpp,
// step_kernel_avx2.cpp, step_kernel_avx512.cpp, step_kernel_neon.cpp),
// each compiled with its own target flags.  The lane types from
// support/simd.h resolve to that TU's ABI, so the same source lowers to
// AVX-512, AVX2, NEON or baseline code — with bit-identical results,
// because every operation below is integer-exact.
//
// Every lane is 64 bits wide from load to store: the 32-bit inputs are
// widened as they load and the choices narrowed only as they store, and
// every 32×32-bit product goes through simd::mul32_lanes.
//
// Law and counter layout are specified in core/step_kernel.h; the exact
// arithmetic (fused stage-2 thresholds, the copy-branch rescale
// t_mu + mulhi(2^64 − t_mu, P), endpoint conventions) is documented at the
// point of use.  The scalar remainder loops repeat the vector formulas
// verbatim on one agent at a time — same counter addressing, same
// fixed-point products — so where the tail starts (a function of N, the
// lane width and the TU's ABI only; the generic TU runs the tail alone) can
// never change a trajectory.

#include <cstddef>
#include <cstdint>

#include "core/step_kernel.h"
#include "support/rng.h"
#include "support/simd.h"

// Same -Wpsabi note as support/simd.h: by-value vector parameters are fine
// because nothing here crosses a translation-unit boundary.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace {

using namespace sgl;
using namespace sgl::core::kernel;
using simd::lane_count;
using simd::mul32_lanes;
using simd::vi64;
using simd::vu64;

constexpr std::uint64_t k_gamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t k_max = ~std::uint64_t{0};

/// The generic TU has no native 64-bit lanes: its vector types would be
/// emulated on the baseline target, which is slower than the scalar
/// remainder formulas.  There, the vector loops cover no agents at all.
constexpr bool k_vector_loops = simd::compiled_abi != simd::isa::generic;

/// AVX-512 packs each net2 batch's changed entries inside the main loop
/// (vpcompressq has no GNU-vector spelling, so that one step is an
/// intrinsic).  Every other ISA builds the changed list in a scalar pass
/// after it.
constexpr bool k_compress_in_loop = simd::compiled_abi == simd::isa::avx512;

[[nodiscard]] inline vu64 splat64(std::uint64_t x) noexcept { return vu64{} + x; }
[[nodiscard]] inline vi64 splat_mask64(bool b) noexcept {
  return vi64{} + (b ? std::int64_t{-1} : std::int64_t{0});
}

/// The output mix of counter_word (rng.h) on eight pre-advanced states:
/// callers hand in S + (c+1)·γ per lane and get the lane's word.
[[nodiscard]] inline vu64 mix_lanes(vu64 z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// High 64 bits of the 128-bit product, lane-wise, via 32-bit halves.
/// Each of the four partial products is one mul32_lanes (pmuludq-class on
/// x86), and the half recombination is exact — equal to the scalar
/// (unsigned __int128) reference for all inputs.
[[nodiscard]] inline vu64 mulhi64_lanes(vu64 a, vu64 b) noexcept {
  const vu64 a_hi = a >> 32;
  const vu64 b_hi = b >> 32;
  const vu64 t = mul32_lanes(a_hi, b) + (mul32_lanes(a, b) >> 32);
  const vu64 u = mul32_lanes(a, b_hi) + (t & 0xFFFFFFFFULL);
  return mul32_lanes(a_hi, b_hi) + (t >> 32) + (u >> 32);
}

/// floor(w · bound / 2^64) lane-wise — the vector twin of
/// sgl::scale_bounded (bound < 2^32, so two half products suffice).
[[nodiscard]] inline vu64 scale_bounded_lanes(vu64 w, vu64 bound) noexcept {
  const vu64 lo = mul32_lanes(w, bound);
  const vu64 hi = mul32_lanes(w >> 32, bound);
  return (hi + (lo >> 32)) >> 32;
}

[[nodiscard]] inline std::uint64_t mulhi64_scalar(std::uint64_t a,
                                                  std::uint64_t b) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
}

/// 2^64 − t_mu as the copy-branch rescale factor; t_mu == 0 wraps, so it
/// saturates to max (error 2^-64 — only reachable when mu == 0, where the
/// explore branch never fires anyway).
[[nodiscard]] constexpr std::uint64_t not_mu_scale(std::uint64_t t_mu) noexcept {
  return t_mu == 0 ? k_max : std::uint64_t{0} - t_mu;
}

/// Packed changed-list entry, identical to derivation v2's layout:
/// agent | (was+1) << 32 | (now+1) << 48.
[[nodiscard]] inline std::uint64_t pack_changed(std::size_t i, std::int32_t was,
                                                std::int32_t now) noexcept {
  return static_cast<std::uint64_t>(i) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(was + 1)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(now + 1)) << 48);
}

// ---------------------------------------------------------------------------
// net2: sparse network step, m == 2, packed view rows
// ---------------------------------------------------------------------------

inline void net2_body(const net2_args& a) {
  const std::uint64_t t_mu = a.t_mu;
  const std::uint64_t t_not_mu = not_mu_scale(t_mu);
  const bool mu_always = t_mu == k_max;
  const bool heterogeneous = a.p_reward0 != nullptr;

  const vu64 t_mu_v = splat64(t_mu);
  const vu64 t_not_mu_v = splat64(t_not_mu);
  const vu64 max_v = splat64(k_max);
  const vu64 two_v = splat64(2);
  const vi64 explore_force = splat_mask64(mu_always);
  const vu64 te0 = splat64(a.thr_explore[0]);
  const vu64 te1 = splat64(a.thr_explore[1]);
  const vu64 tc0 = splat64(a.thr_copy[0]);
  const vu64 tc1 = splat64(a.thr_copy[1]);

  // Per-lane tallies: agents that considered option 1, adopters of
  // option 1, and adopters of either option.
  vu64 acc_stage1{};
  vu64 acc_adopt1{};
  vu64 acc_adopted{};
  std::uint64_t tail_stage1 = 0;
  std::uint64_t tail_adopt0 = 0;
  std::uint64_t tail_adopt1 = 0;
  std::size_t changed_len = 0;

  // Counter states, advanced incrementally: lane k of the batch starting
  // at agent g holds S + (2(g+k)+1)·γ — the pre-mix state of the w0
  // counter; the matching w1 state is one γ further.  All counter
  // arithmetic wraps mod 2^64, exactly like counter_word's (c+1)·γ.
  std::size_t i = a.lo;
  const std::size_t vec_end =
      k_vector_loops ? a.lo + ((a.hi - a.lo) & ~(lane_count - 1)) : a.lo;
  vu64 s0 = simd::lane_ramp(
      a.step_seed + (2 * static_cast<std::uint64_t>(a.lo) + 1) * k_gamma,
      2 * k_gamma);
  constexpr std::uint64_t batch_stride =
      2 * static_cast<std::uint64_t>(lane_count) * k_gamma;

  // Unrolled ×2: the splitmix chain is ~20 cycles of latency on one
  // register of work, so a single batch leaves the multiply ports mostly
  // idle; two independent batches in flight roughly double throughput.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 2
#endif
  for (; i < vec_end; i += lane_count, s0 += batch_stride) {
    const vu64 w0 = mix_lanes(s0);
    const vu64 w1 = mix_lanes(s0 + k_gamma);

    // --- Stage 1: explore, or copy a uniform committed neighbour. ---
    const vu64 packed = simd::load_widen_u32(a.rows + i);
    const vu64 c0 = packed & 0xFFFFU;
    const vu64 total = c0 + (packed >> 16);
    const vi64 explore = (w0 < t_mu_v) | explore_force;
    const vi64 by_view = ~explore & (total != 0);
    const vu64 r = scale_bounded_lanes(w1, by_view ? total : two_v);
    // by-view: option 1 iff the draw falls past the option-0 block;
    // otherwise the draw itself is the uniform option.
    const vu64 considered = by_view ? (vu64)((r >= c0) & 1) : r;

    // --- Stage 2: adopt or sit out, reusing w0 (fused thresholds). ---
    const vi64 c_mask = (considered != 0);
    vu64 thr;
    vi64 always;
    if (heterogeneous) {
      const vu64 p0 = simd::load_u64(a.p_reward0 + i);
      const vu64 p1 = simd::load_u64(a.p_reward1 + i);
      const vu64 p = c_mask ? p1 : p0;
      thr = explore ? mulhi64_lanes(t_mu_v, p)
                    : t_mu_v + mulhi64_lanes(t_not_mu_v, p);
      always = (p == max_v);
    } else {
      const vu64 thr_e = c_mask ? te1 : te0;
      const vu64 thr_c = c_mask ? tc1 : tc0;
      thr = explore ? thr_e : thr_c;
      always = (thr == max_v);
    }
    const vi64 adopted = (w0 < thr) | always;
    const vi64 now = adopted ? (vi64)considered : (vi64{} - 1);
    simd::store_narrow_i32(a.choices + i, now);

    acc_stage1 += considered;
    acc_adopt1 += considered & (vu64)adopted;
    acc_adopted -= (vu64)adopted;  // true lanes are −1

#if defined(__AVX512F__) && defined(__AVX512DQ__)
    // Order-preserving compress of this batch's changed entries, then a
    // full-width store: it writes 8 slots from changed_len ≤ i − lo, so it
    // stays inside the shard's hi − lo, and the next batch overwrites
    // whatever it left past the packed entries.
    const vi64 was = simd::load_widen_i32(a.previous + i);
    const vu64 entry = simd::lane_ramp(i, 1) | ((vu64)(was + 1) << 32) |
                       ((vu64)(now + 1) << 48);
    const __mmask8 mk = _mm512_cmpneq_epi64_mask((__m512i)was, (__m512i)now);
    _mm512_storeu_si512(a.changed + changed_len,
                        _mm512_maskz_compress_epi64(mk, (__m512i)entry));
    changed_len += static_cast<unsigned>(__builtin_popcount(mk));
#endif
  }

  // --- Scalar remainder: the identical formulas, one agent at a time. ---
  for (; i < a.hi; ++i) {
    const std::uint64_t w0 = counter_word(a.step_seed, 2 * i);
    const std::uint64_t w1 = counter_word(a.step_seed, 2 * i + 1);
    const std::uint32_t packed = a.rows[i];
    const std::uint32_t c0 = packed & 0xFFFFU;
    const std::uint32_t total = c0 + (packed >> 16);
    const bool explore = mu_always || w0 < t_mu;
    const bool by_view = !explore && total != 0;
    const std::uint64_t r = scale_bounded(w1, by_view ? total : 2);
    const std::size_t considered = by_view ? (r >= c0) : static_cast<std::size_t>(r);
    std::uint64_t thr;
    bool adopt_always;
    if (heterogeneous) {
      const std::uint64_t p = considered != 0 ? a.p_reward1[i] : a.p_reward0[i];
      thr = explore ? mulhi64_scalar(t_mu, p)
                    : t_mu + mulhi64_scalar(t_not_mu, p);
      adopt_always = p == k_max;
    } else {
      thr = explore ? a.thr_explore[considered] : a.thr_copy[considered];
      adopt_always = thr == k_max;
    }
    const bool adopted = adopt_always || w0 < thr;
    a.choices[i] = adopted ? static_cast<std::int32_t>(considered) : -1;
    tail_stage1 += considered;
    tail_adopt1 += adopted && considered != 0;
    tail_adopt0 += adopted && considered == 0;
  }

  // --- Changed-list pass over what the main loop did not already pack:
  // the scalar remainder on AVX-512, everything elsewhere.  Kept out of
  // the main loop off AVX-512 on purpose — a per-lane extraction there
  // keeps every vector value live across scalar code, and the register
  // spills cost more than this second sweep (the two arrays are
  // sequential and still cache-hot). ---
  for (std::size_t g = k_compress_in_loop ? vec_end : a.lo; g < a.hi; ++g) {
    const std::int32_t was = a.previous[g];
    const std::int32_t now = a.choices[g];
    a.changed[changed_len] = pack_changed(g, was, now);
    changed_len += now != was;
  }

  const std::uint64_t stage1 = simd::reduce_add(acc_stage1) + tail_stage1;
  const std::uint64_t adopt1 = simd::reduce_add(acc_adopt1);
  const std::uint64_t adopted = simd::reduce_add(acc_adopted);
  a.stage[0] += (a.hi - a.lo) - stage1;
  a.stage[1] += stage1;
  a.adopt[0] += adopted - adopt1 + tail_adopt0;
  a.adopt[1] += adopt1 + tail_adopt1;
  *a.changed_len = static_cast<std::uint32_t>(changed_len);
}

// ---------------------------------------------------------------------------
// mixed: fully mixed heterogeneous per-agent step, m <= 64
// ---------------------------------------------------------------------------

inline void mixed_body(const mixed_args& a) {
  const std::uint64_t t_mu = a.t_mu;
  const std::uint64_t t_not_mu = not_mu_scale(t_mu);
  const bool mu_always = t_mu == k_max;
  const std::size_t m = a.m;

  const vu64 t_mu_v = splat64(t_mu);
  const vu64 t_not_mu_v = splat64(t_not_mu);
  const vu64 max_v = splat64(k_max);
  const vi64 explore_force = splat_mask64(mu_always);
  const vu64 m_v = splat64(m);
  const vu64 reward_bits_v = splat64(a.reward_bits);

  std::size_t g = 0;
  const std::size_t vec_end = k_vector_loops ? a.n & ~(lane_count - 1) : 0;
  vu64 s0 = simd::lane_ramp(a.step_seed + k_gamma, 2 * k_gamma);
  constexpr std::uint64_t batch_stride =
      2 * static_cast<std::uint64_t>(lane_count) * k_gamma;

  for (; g < vec_end; g += lane_count, s0 += batch_stride) {
    const vu64 w0 = mix_lanes(s0);
    const vu64 w1 = mix_lanes(s0 + k_gamma);

    // --- Stage 1: uniform option on the explore branch, CDF-ladder
    // popularity draw on the copy branch (both functions of w1, selected
    // exclusively by the w0 explore test — one draw either way). ---
    const vi64 explore = (w0 < t_mu_v) | explore_force;
    const vu64 r_uniform = scale_bounded_lanes(w1, m_v);
    vu64 r_ladder{};
    for (std::size_t j = 0; j + 1 < m; ++j) {
      // each satisfied rung contributes −(−1) = +1
      r_ladder -= (vu64)(w1 >= splat64(a.pop_cdf[j]));
    }
    const vu64 considered = explore ? r_uniform : r_ladder;

    // --- Stage 2: per-agent rule, signal looked up branch-free from the
    // reward bitmask. ---
    const vi64 sig = (((reward_bits_v >> considered) & 1) != 0);
    const vu64 p_alpha = simd::load_u64(a.alpha_thr + g);
    const vu64 p_beta = simd::load_u64(a.beta_thr + g);
    const vu64 p = sig ? p_beta : p_alpha;
    const vu64 thr = explore ? mulhi64_lanes(t_mu_v, p)
                             : t_mu_v + mulhi64_lanes(t_not_mu_v, p);
    const vi64 adopted = (w0 < thr) | (p == max_v);
    const vi64 now = adopted ? (vi64)considered : (vi64{} - 1);
    simd::store_narrow_i32(a.choices + g, now);
    simd::store_narrow_u32(a.considered + g, considered);
  }

  // --- Scalar remainder: identical formulas. ---
  for (; g < a.n; ++g) {
    const std::uint64_t w0 = counter_word(a.step_seed, 2 * g);
    const std::uint64_t w1 = counter_word(a.step_seed, 2 * g + 1);
    const bool explore = mu_always || w0 < t_mu;
    std::size_t considered;
    if (explore) {
      considered = static_cast<std::size_t>(
          scale_bounded(w1, static_cast<std::uint32_t>(m)));
    } else {
      considered = 0;
      for (std::size_t j = 0; j + 1 < m; ++j) considered += w1 >= a.pop_cdf[j];
    }
    const bool sig = (a.reward_bits >> considered) & 1;
    const std::uint64_t p = sig ? a.beta_thr[g] : a.alpha_thr[g];
    const std::uint64_t thr = explore
                                  ? mulhi64_scalar(t_mu, p)
                                  : t_mu + mulhi64_scalar(t_not_mu, p);
    const bool adopted = p == k_max || w0 < thr;
    a.choices[g] = adopted ? static_cast<std::int32_t>(considered) : -1;
    a.considered[g] = static_cast<std::uint32_t>(considered);
  }
}

}  // namespace

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
