#pragma once

/// \file field_error.h
/// The one error a range check throws: the owning layer's message plus the
/// field it rejected.  dynamics_params, netsim's link model and fault
/// schedule, the protocol config and the environment constructors all throw
/// it, each naming the field as the scenario text format keys it below its
/// family (`mu`, `period`, `round_interval`, `3.until` for fault action 3).
/// scenario::validate_spec catches it in one place and prefixes the family
/// (`params.`, `environment.`, `protocol.`, `faults.`), so every rejection
/// names its key without a second copy of the rule.

#include <stdexcept>
#include <string>
#include <utility>

namespace sgl {

class field_error : public std::invalid_argument {
 public:
  field_error(std::string field, const std::string& message)
      : std::invalid_argument{message}, field_{std::move(field)} {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

}  // namespace sgl
