#include "core/params.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "support/field_error.h"

namespace sgl::core {

double dynamics_params::delta() const {
  if (!(beta > 0.0 && beta < 1.0)) {
    throw std::domain_error{"dynamics_params::delta: requires 0 < beta < 1"};
  }
  return std::log(beta / (1.0 - beta));
}

bool dynamics_params::satisfies_theorem_conditions() const noexcept {
  constexpr double beta_cap = std::numbers::e / (std::numbers::e + 1.0);
  if (!(beta > 0.5 && beta <= beta_cap + 1e-12)) return false;
  if (std::abs(resolved_alpha() - (1.0 - beta)) > 1e-12) return false;
  const double d = std::log(beta / (1.0 - beta));
  return mu > 0.0 && 6.0 * mu <= d * d + 1e-12;
}

void dynamics_params::validate() const {
  const char* field = nullptr;
  if (num_options == 0) {
    field = "num_options";
  } else if (!(mu >= 0.0 && mu <= 1.0)) {
    field = "mu";
  } else if (!(beta >= 0.0 && beta <= 1.0)) {
    field = "beta";
  } else if (!adoption_rule{resolved_alpha(), beta}.valid()) {
    field = "alpha";
  }
  if (field != nullptr) {
    throw field_error{field, std::string{"dynamics_params: "} + field +
                                " out of range (num_options >= 1, mu and beta in [0, 1], "
                                "0 <= alpha <= beta)"};
  }
}

dynamics_params theorem_params(std::size_t num_options, double beta) {
  dynamics_params params;
  params.num_options = num_options;
  params.beta = beta;
  params.alpha = -1.0;
  const double d = params.delta();
  params.mu = d * d / 6.0;
  params.validate();
  if (!params.satisfies_theorem_conditions()) {
    throw std::invalid_argument{"theorem_params: beta outside (1/2, e/(e+1)]"};
  }
  return params;
}

}  // namespace sgl::core
