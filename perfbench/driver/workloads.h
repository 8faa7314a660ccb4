#pragma once

/// \file workloads.h
/// The benchmark's workloads.  Each generates its inputs from opts.seed,
/// checks the program's outputs, and fills `result` with the end-to-end
/// metrics (untraced) or the per-layer metrics (opts.trace).

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// `count` increasing beta values as a sweep axis: value i lies in
/// [low + i·slot, low + (i + 0.1)·slot), placed by the seeded stream.  The
/// jitter is kept small so that the work a run does hardly depends on the
/// seed.
[[nodiscard]] std::string beta_axis(input_stream& inputs, std::size_t count, double low,
                                    double slot);

/// A run seed below 2^52, so it travels through JSON exactly.
[[nodiscard]] std::uint64_t run_seed(input_stream& inputs);

void run_mixed_sweep(const options& opts, run_result& result);
void run_ba_sweep(const options& opts, run_result& result);
void run_service_mix(const options& opts, run_result& result);

/// Set-up probe mode of the sweeps: generate the job, do one set-up, print
/// `ready <seconds>`, the time from `entered_ns` (entry to main()) to the
/// end of the set-up.
void run_setup_probe(const options& opts, std::int64_t entered_ns);

}  // namespace perfbench
