#pragma once

/// \file payload.h
/// The canonical point-result payload: the bytes the result store persists
/// and the service streams.
///
/// One payload describes one completed (point spec, run config, probe set)
/// computation.  It is *canonical compact JSON* — json_writer with
/// indent 0, fields in a fixed order, spec fields in digest_fields() order,
/// doubles in shortest-round-trip form — so recomputing the same digest
/// always produces the same bytes, and "served from cache" is
/// byte-for-byte indistinguishable from "computed just now".  That is the
/// property the cache/resume tests pin and the reason wall-clock timing is
/// *not* part of the payload: the service reports timing in the event
/// wrapper around the payload, never inside it.

#include <span>
#include <string>

#include "core/experiment.h"
#include "core/probe.h"
#include "scenario/scenario.h"
#include "service/digest.h"
#include "support/json.h"

namespace sgl::service {

/// Writes `reports` as the JSON array of probe objects both the payload
/// and the CLI's JSON output carry: the probe name, its scalars (`value`,
/// plus `half_width` when the scalar has a CI) and any series.
void write_probe_reports(json_writer& json, const std::vector<core::probe_report>& reports);

/// Serializes one completed point.  `digest` must be
/// spec_digest(spec, config, probe_specs); `reports` are the point's merged
/// probe reports in probe order.  Throws as digest_fields (prebuilt_graph).
[[nodiscard]] std::string build_point_payload(const digest128& digest,
                                              const scenario::scenario_spec& spec,
                                              const core::run_config& config,
                                              std::span<const std::string> probe_specs,
                                              const std::vector<core::probe_report>& reports);

}  // namespace sgl::service
