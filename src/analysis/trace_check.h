#pragma once

/// \file trace_check.h
/// Offline protocol-invariant checking over structured netsim traces.
///
/// trace_hash() proves two runs dispatched identical events; it cannot say
/// whether either run was *correct*.  This module closes that gap: a
/// recorded trace (netsim/trace.h) plus its run metadata is replayed
/// offline against the protocol invariants §2.1 implies for the gossip
/// port, each phrased as a property of the record stream:
///
///   * commit_monotone        — a node's adopt/commit round stamps never go
///                              backwards within one crash epoch (state is
///                              a single integer; a restart wipes it, so
///                              crash records reset the baseline).
///   * adopt_posted           — every adopt/commit names an option some
///                              earlier signal-board post actually carried
///                              (nodes can only sense posted R^r_j; an
///                              adoption before any post, or of an option
///                              outside the posted range, is fabricated).
///   * deliver_to_crashed     — no message is delivered to a node between
///                              its crash and restart records.
///   * cross_partition_deliver— no delivery crosses the cut between a
///                              partition record group and its heal.
///   * retry_budget           — per node, SAMPLE_REQ sends stay within
///                              (rounds + 1 + restarts) · (1 + max_retries):
///                              each round wakeup starts at most one request
///                              chain of at most 1 + max_retries asks.
///   * conservation           — per ordered (src, dst) pair and globally,
///                              deliveries + drops never exceed sends (the
///                              remainder is in flight at the horizon).
///
/// Traces recorded into a ring that evicted records have lost their prefix;
/// the history-dependent invariants (adopt_posted, retry_budget,
/// conservation) are skipped for them — only full traces get the complete
/// verdict.
///
/// The JSONL format written here (one metadata header object, then one
/// compact object per record) is produced via support/json and read back
/// with parse_json (support/json_parse.h); the reader accepts exactly the
/// fields write_trace writes, each at its written type.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "netsim/trace.h"

namespace sgl::analysis {

/// The message kind of a gossip SAMPLE_REQ
/// (protocol::gossip_learner::k_sample_request), named here so the checker
/// does not depend on the protocol layer.
inline constexpr std::int32_t k_sample_request_kind = 1;

/// Everything the checker needs to know about the run that produced a
/// trace; written as the JSONL header line.
struct trace_metadata {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_options = 0;
  std::uint32_t max_retries = 0;
  double round_interval = 1.0;
  std::uint64_t rounds = 0;  ///< protocol rounds the run executed
  std::uint64_t seed = 0;
  std::uint64_t evicted = 0;  ///< records lost to a bounded ring (0 = full)

  friend bool operator==(const trace_metadata&, const trace_metadata&) = default;
};

/// One invariant violation, located in the trace.
struct trace_violation {
  std::string invariant;     ///< name from the list above
  double time = 0.0;         ///< record timestamp (horizon for conservation)
  std::uint32_t node = 0;    ///< primary node involved
  std::size_t record_index = 0;  ///< offending record's index in the trace
  std::string detail;        ///< human-readable specifics
};

struct trace_check_result {
  std::vector<trace_violation> violations;
  std::size_t records_checked = 0;
  /// Invariants skipped because the trace lost its prefix to a ring.
  std::vector<std::string> skipped;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Replays `records` (in recorded order) against every invariant.  Never
/// throws on bad traces — badness is the output.
[[nodiscard]] trace_check_result check_trace(const trace_metadata& meta,
                                             std::span<const netsim::trace_record> records);

/// Writes the JSONL form: a metadata header line, then one record per line.
void write_trace(std::ostream& os, const trace_metadata& meta,
                 std::span<const netsim::trace_record> records);

struct parsed_trace {
  trace_metadata meta;
  std::vector<netsim::trace_record> records;
};

/// Reads what write_trace wrote.  Throws std::runtime_error starting
/// "trace" and naming the line number on anything malformed (no header, a
/// line that is not one JSON object, an unknown kind or key, a value of the
/// wrong type or out of range, a missing field).
[[nodiscard]] parsed_trace read_trace(std::istream& is);

}  // namespace sgl::analysis
