/// \file step_kernel_generic.cpp
/// The baseline-target build of the shared kernel implementation (always
/// compiled, whatever the platform), plus the one-time runtime dispatcher —
/// it lives here because this is the only kernel TU guaranteed to exist.

#include "core/step_kernel.h"

#include <cstdlib>
#include <string_view>

#include "core/step_kernel_impl.h"

namespace sgl::core::kernel {

void net2_step_generic(const net2_args& args) { net2_body(args); }
void mixed_step_generic(const mixed_args& args) { mixed_body(args); }

simd::isa active_isa() noexcept {
  static const simd::isa resolved = [] {
    // SGL_KERNEL=generic runs the same binary on the generic TU, which
    // must reproduce every vector ISA bit for bit.
    if (const char* env = std::getenv("SGL_KERNEL");
        env != nullptr && std::string_view{env} == "generic") {
      return simd::isa::generic;
    }
    if (avx512_kernels_compiled() && simd::cpu_supports(simd::isa::avx512)) {
      return simd::isa::avx512;
    }
    if (avx2_kernels_compiled() && simd::cpu_supports(simd::isa::avx2)) {
      return simd::isa::avx2;
    }
    if (neon_kernels_compiled() && simd::cpu_supports(simd::isa::neon)) {
      return simd::isa::neon;
    }
    return simd::isa::generic;
  }();
  return resolved;
}

net2_fn net2_step() noexcept {
  switch (active_isa()) {
    case simd::isa::avx512: return &net2_step_avx512;
    case simd::isa::avx2: return &net2_step_avx2;
    case simd::isa::neon: return &net2_step_neon;
    case simd::isa::generic: break;
  }
  return &net2_step_generic;
}

mixed_fn mixed_step() noexcept {
  switch (active_isa()) {
    case simd::isa::avx512: return &mixed_step_avx512;
    case simd::isa::avx2: return &mixed_step_avx2;
    case simd::isa::neon: return &mixed_step_neon;
    case simd::isa::generic: break;
  }
  return &mixed_step_generic;
}

}  // namespace sgl::core::kernel
