/// \file step_kernel_avx512.cpp
/// AVX-512 build of the shared kernel implementation.  CMake compiles this
/// TU with -mavx512f -mavx512dq on x86 GNU/Clang builds; anywhere else it
/// degrades to a forwarder so the symbols always exist and the dispatcher
/// can key off avx512_kernels_compiled() instead of the preprocessor.
///
/// DQ matters as much as F here: it provides the native 64-bit lane
/// multiply (vpmullq) for the counter hash's two full 64-bit constant
/// products per word, where AVX2 emulates each with three 32-bit
/// multiplies.  Every product that is only 32×32 bits wide (the bounded
/// draw and the per-agent threshold products) goes to vpmuludq through
/// simd::mul32_lanes instead, since vpmullq costs three uops.  This TU
/// also packs the net2 changed list inside the main loop (vpcompressq).
/// Output is bit-identical to every other ISA variant.

#include "core/step_kernel.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "core/step_kernel_impl.h"

namespace sgl::core::kernel {

void net2_step_avx512(const net2_args& args) { net2_body(args); }
void mixed_step_avx512(const mixed_args& args) { mixed_body(args); }
bool avx512_kernels_compiled() noexcept { return true; }

}  // namespace sgl::core::kernel

#else  // no AVX-512 target: keep the symbols, report not-compiled

namespace sgl::core::kernel {

void net2_step_avx512(const net2_args& args) { net2_step_generic(args); }
void mixed_step_avx512(const mixed_args& args) { mixed_step_generic(args); }
bool avx512_kernels_compiled() noexcept { return false; }

}  // namespace sgl::core::kernel

#endif
