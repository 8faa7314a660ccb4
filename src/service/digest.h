#pragma once

/// \file digest.h
/// Content addresses for run results — the cache-soundness keystone of the
/// sociolearnd service (DESIGN.md "Service mode").
///
/// A cached result may stand in for a recomputation only because the repo
/// pins two contracts:
///
///   * the canonical serializer (scenario/serialize.h) is field-exact:
///     specs that print the same text run bit-identically;
///   * the harness is bit-identical across thread counts, engine reuse,
///     and sweep interleaving (tests/harness_determinism_test.cpp), so the
///     *only* inputs that can change a merged probe result are the ones
///     hashed here.
///
/// spec_digest therefore keys a result by exactly the semantically
/// meaningful inputs and nothing else:
///
///   * the canonical spec fields as the run reads them (read_fields:
///     the key table decides), minus `name` and `description`, with
///     `engine` resolved and `probes = []` when the request names its
///     own probes.  There is no kernel or ISA field: every step path
///     has one sampler whose bits do not depend on the host;
///   * the run shape: horizon, replications, master seed (config.threads
///     is excluded — bit-identity makes it free);
///   * the resolved probe list, in order (probes never consume RNG, but
///     they ARE the result payload);
///   * the stream-derivation version tag k_stream_derivation_id — bump it
///     whenever any RNG stream derivation changes and every previously
///     cached result is invalidated at once.
///
/// The digest is a 128-bit FNV-1a over the canonical input text, exposed
/// as digest_input() so tests (and humans debugging a cache miss) can see
/// precisely what was hashed.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario/scenario.h"

namespace sgl::service {

/// The RNG stream-derivation epoch baked into every digest.  Covers v2
/// (scalar per-(step, shard) streams) + v3 (counter-based SIMD lanes) +
/// the protocol engine's per-replication simulation seed.  Any change to
/// any derivation MUST bump this tag, or stale cached results would be
/// served as current ones.
inline constexpr std::string_view k_stream_derivation_id = "v2+v3";

/// A 128-bit content address.
struct digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex characters.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const digest128&, const digest128&) = default;
};

/// 128-bit FNV-1a of arbitrary bytes (the hash behind spec_digest).
[[nodiscard]] digest128 fnv1a_128(std::string_view bytes) noexcept;

/// The probe specs a run of `spec` installs (the scenario layer's one
/// fallback rule), which the digest and the payload echo name.
using scenario::resolved_probes;

/// The canonical digest-input fields of `spec` run with `probe_specs`, in
/// order — the exact lines that get hashed, exposed for tests and for the
/// cached payload's spec echo.  Throws std::invalid_argument when
/// spec.prebuilt_graph is set (a runtime handle the canonical form cannot
/// capture — hashing it would be unsound).
[[nodiscard]] std::vector<std::pair<std::string, std::string>> digest_fields(
    const scenario::scenario_spec& spec, std::span<const std::string> probe_specs);

/// The full canonical input text: a header with the format and
/// stream-derivation tags, the digest_fields, the run shape, and the
/// resolved probe list.
[[nodiscard]] std::string digest_input(const scenario::scenario_spec& spec,
                                       const core::run_config& config,
                                       std::span<const std::string> probe_specs);

/// digest_input, hashed.
[[nodiscard]] digest128 spec_digest(const scenario::scenario_spec& spec,
                                    const core::run_config& config,
                                    std::span<const std::string> probe_specs);

}  // namespace sgl::service
