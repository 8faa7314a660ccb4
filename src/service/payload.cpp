#include "service/payload.h"

#include <sstream>

namespace sgl::service {

void write_probe_reports(json_writer& json, const std::vector<core::probe_report>& reports) {
  json.begin_array();
  for (const auto& report : reports) {
    json.begin_object();
    json.key("probe").value(report.probe);
    json.key("scalars").begin_object();
    for (const auto& scalar : report.scalars) {
      json.key(scalar.key).begin_object();
      json.key("value").value(scalar.value);
      if (scalar.has_ci) json.key("half_width").value(scalar.half_width);
      json.end_object();
    }
    json.end_object();
    if (!report.series.empty()) {
      json.key("series").begin_object();
      for (const auto& series : report.series) {
        json.key(series.key).begin_array();
        for (const double v : series.values) json.value(v);
        json.end_array();
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
}

std::string build_point_payload(const digest128& digest,
                                const scenario::scenario_spec& spec,
                                const core::run_config& config,
                                std::span<const std::string> probe_specs,
                                const std::vector<core::probe_report>& reports) {
  std::ostringstream out;
  json_writer json{out, /*indent=*/0};
  json.begin_object();
  json.key("digest").value(digest.hex());
  json.key("stream_derivation").value(k_stream_derivation_id);

  json.key("spec").begin_object();
  for (const auto& [key, value] : digest_fields(spec)) {
    json.key(key).raw(value);  // canonical values are JSON-compatible
  }
  json.end_object();

  json.key("run").begin_object();
  json.key("horizon").value(config.horizon);
  json.key("replications").value(config.replications);
  json.key("seed").value(config.seed);
  json.end_object();

  json.key("probe_specs").begin_array();
  for (const std::string& probe : resolved_probes(spec, probe_specs)) {
    json.value(probe);
  }
  json.end_array();

  json.key("probes");
  write_probe_reports(json, reports);

  json.end_object();
  return std::move(out).str();
}

}  // namespace sgl::service
