#include "support/parallel.h"

namespace sgl {

unsigned default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1U : hw;
}

}  // namespace sgl
