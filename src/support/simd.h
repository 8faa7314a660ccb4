#pragma once

/// \file simd.h
/// Lane-parallel portability layer for the vectorized step kernels (stream
/// derivation v3, DESIGN.md).
///
/// The wrappers are built on the GNU vector extensions rather than on raw
/// intrinsics: one kernel implementation (core/step_kernel_impl.h) is
/// written against fixed-width lane types and compiled once per ISA —
/// core/step_kernel_avx2.cpp gets -mavx2, core/step_kernel_avx512.cpp
/// -mavx512f -mavx512dq, core/step_kernel_neon.cpp relies on the AArch64
/// baseline, core/step_kernel_generic.cpp takes whatever the build's
/// default target provides — and the compiler lowers the lane operations
/// (including the 64-bit multiplies and unsigned compares AVX2 lacks as
/// single instructions) to the best sequence for each target.  The one
/// exception is mul32_lanes, whose x86 forms are intrinsics.
/// Every operation here is integer-exact, so all four translation units
/// compute bit-identical results by construction; the per-ISA builds differ
/// in speed only, which is what lets the runtime dispatcher pick freely and
/// lets a test pin the generic path against each vector path lane for lane.
///
/// ODR note: the lane types below change meaning with the translation
/// unit's target flags, so they live in a per-ABI `inline namespace` —
/// definitions made under -mavx2 mangle differently from baseline ones and
/// never collide at link time.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

// The helpers below pass and return wide vectors by value, which GCC flags
// with -Wpsabi on baseline targets (the calling convention for such values
// depends on the target flags).  That would matter only if they were
// called across translation units compiled with different flags — the
// per-ABI inline namespaces make that impossible (distinct mangled names),
// and in practice everything inlines anyway.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace sgl::simd {

/// Instruction sets the step kernels are (potentially) compiled for.
/// `generic` is the portable fallback translation unit — always present,
/// vectorized only as far as the build's baseline target allows.
enum class isa {
  generic,
  avx2,
  avx512,
  neon,
};

[[nodiscard]] constexpr const char* isa_name(isa which) noexcept {
  switch (which) {
    case isa::avx512: return "avx512";
    case isa::avx2: return "avx2";
    case isa::neon: return "neon";
    case isa::generic: break;
  }
  return "generic";
}

/// Does the *running CPU* support `which`?  Pure capability check — whether
/// a kernel for it was actually compiled in is the dispatcher's business
/// (core/step_kernel.h), not this header's.
[[nodiscard]] inline bool cpu_supports(isa which) noexcept {
  switch (which) {
    case isa::generic:
      return true;
    case isa::avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case isa::avx512:
#if defined(__x86_64__) || defined(__i386__)
      // F for the 512-bit lanes, DQ for the native 64-bit lane multiply
      // (vpmullq) the counter hash leans on.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
    case isa::neon:
#if defined(__ARM_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

#if defined(__AVX512F__) && defined(__AVX512DQ__)
inline namespace abi_avx512 {
inline constexpr isa compiled_abi = isa::avx512;
#elif defined(__AVX2__)
inline namespace abi_avx2 {
inline constexpr isa compiled_abi = isa::avx2;
#elif defined(__ARM_NEON)
inline namespace abi_neon {
inline constexpr isa compiled_abi = isa::neon;
#else
inline namespace abi_generic {
inline constexpr isa compiled_abi = isa::generic;
#endif

/// Logical lanes per batch: the compiled target's native 64-bit vector
/// width.  Wider-than-native was measured 3× *slower* on AVX2 (the doubled
/// logical vectors keep twice the values live, so GCC spills).  The
/// kernels' results do not depend on this number: draws are
/// counter-addressed per agent, so any lane width — including the scalar
/// remainder — produces the same bits.
inline constexpr std::size_t lane_count = compiled_abi == isa::avx512 ? 8 : 4;

typedef std::uint64_t vu64 __attribute__((vector_size(lane_count * sizeof(std::uint64_t))));
typedef std::int64_t vi64 __attribute__((vector_size(lane_count * sizeof(std::int64_t))));
typedef std::uint32_t vu32 __attribute__((vector_size(lane_count * sizeof(std::uint32_t))));
typedef std::int32_t vi32 __attribute__((vector_size(lane_count * sizeof(std::int32_t))));

// --- unaligned loads / stores ----------------------------------------------
//
// Every lane stays 64 bits wide.  The 32-bit arrays (view rows, choices,
// considered options) are widened on load and narrowed on store, so the
// kernels never move a mask between lane widths.

[[nodiscard]] inline vu64 load_u64(const std::uint64_t* p) noexcept {
  vu64 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

[[nodiscard]] inline vu64 load_widen_u32(const std::uint32_t* p) noexcept {
  vu32 v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_convertvector(v, vu64);  // zero-extends
}

[[nodiscard]] inline vi64 load_widen_i32(const std::int32_t* p) noexcept {
  vi32 v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_convertvector(v, vi64);  // sign-extends
}

/// Truncating stores (callers guarantee every lane fits in 32 bits).
inline void store_narrow_i32(std::int32_t* p, vi64 v) noexcept {
  const vi32 narrow = __builtin_convertvector(v, vi32);
  std::memcpy(p, &narrow, sizeof narrow);
}

inline void store_narrow_u32(std::uint32_t* p, vu64 v) noexcept {
  const vu32 narrow = __builtin_convertvector(v, vu32);
  std::memcpy(p, &narrow, sizeof narrow);
}

// --- arithmetic ---------------------------------------------------------------

/// Lane-wise product of the low 32 bits of a and b, as a full 64-bit
/// result: one pmuludq-class multiply, where the full 64-bit lane product
/// costs a 3-uop vpmullq on AVX-512 and three multiplies on AVX2.  The x86
/// forms are spelled as intrinsics because GCC lowers the portable
/// spelling (both operands cut to 32 bits, then multiplied) to the full
/// 64-bit product.  AVX-512 takes the zero-masked form: the plain
/// _mm512_mul_epu32 passes _mm512_undefined_epi32 through, which GCC 12
/// flags with -Wmaybe-uninitialized.
[[nodiscard]] inline vu64 mul32_lanes(vu64 a, vu64 b) noexcept {
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  return (vu64)_mm512_maskz_mul_epu32(0xFF, (__m512i)a, (__m512i)b);
#elif defined(__AVX2__)
  return (vu64)_mm256_mul_epu32((__m256i)a, (__m256i)b);
#else
  return (a & 0xFFFFFFFFULL) * (b & 0xFFFFFFFFULL);
#endif
}

/// Lane k = base + k * step; the counter ramp of the position-addressable
/// RNG (support/rng.h, counter_word).
[[nodiscard]] inline vu64 lane_ramp(std::uint64_t base, std::uint64_t step) noexcept {
  vu64 v;
  for (std::size_t k = 0; k < lane_count; ++k) {
    v[k] = base + static_cast<std::uint64_t>(k) * step;
  }
  return v;
}

/// Horizontal sum of the lanes (tally flushes — not hot).
[[nodiscard]] inline std::uint64_t reduce_add(vu64 v) noexcept {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < lane_count; ++k) sum += v[k];
  return sum;
}

}  // namespace (per-ABI inline namespace)

}  // namespace sgl::simd

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
