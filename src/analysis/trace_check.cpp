#include "analysis/trace_check.h"

#include <charconv>
#include <initializer_list>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "support/json.h"
#include "support/json_parse.h"

namespace sgl::analysis {
namespace {

using netsim::trace_kind;
using netsim::trace_record;

std::string node_str(std::uint32_t node) { return "node " + std::to_string(node); }

struct pair_counts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

/// What the checker tracks per node; only nodes that records name get one.
struct node_state {
  bool crashed = false;
  std::uint64_t restarts = 0;
  std::int64_t last_commit_round = -1;  // -1 = none yet this crash epoch
  std::uint64_t requests_sent = 0;
};

}  // namespace

trace_check_result check_trace(const trace_metadata& meta,
                               std::span<const trace_record> records) {
  trace_check_result result;
  result.records_checked = records.size();
  const bool prefix_complete = meta.evicted == 0;
  if (!prefix_complete) {
    result.skipped = {"adopt_posted", "retry_budget", "conservation"};
  }
  auto report = [&result](std::string invariant, double time, std::uint32_t node,
                          std::size_t index, std::string detail) {
    result.violations.push_back(
        {std::move(invariant), time, node, index, std::move(detail)});
  };

  // Keyed by the ids records name, never sized by the header's num_nodes.
  std::map<std::uint32_t, node_state> nodes;

  bool partition_active = false;
  std::unordered_set<std::uint32_t> side_a;
  double partition_time = 0.0;

  std::uint64_t posts_seen = 0;
  std::int64_t posted_options = 0;

  std::map<std::pair<std::uint32_t, std::uint32_t>, pair_counts> pairs;
  std::uint64_t total_sent = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_dropped = 0;
  double horizon = 0.0;
  std::size_t last_index = records.empty() ? 0 : records.size() - 1;

  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace_record& rec = records[i];
    horizon = rec.time;
    // Records naming a node outside the header's population carry no
    // per-node state.
    node_state* node = rec.node < meta.num_nodes ? &nodes[rec.node] : nullptr;
    switch (rec.kind) {
      case trace_kind::send:
        ++total_sent;
        ++pairs[{rec.node, rec.peer}].sent;
        if (node != nullptr && rec.detail == k_sample_request_kind) ++node->requests_sent;
        break;
      case trace_kind::deliver: {
        ++total_delivered;
        ++pairs[{rec.peer, rec.node}].delivered;
        if (node != nullptr && node->crashed) {
          report("deliver_to_crashed", rec.time, rec.node, i,
                 node_str(rec.node) + " received a message from node " +
                     std::to_string(rec.peer) + " while crashed");
        }
        if (partition_active &&
            (side_a.contains(rec.node) != side_a.contains(rec.peer))) {
          report("cross_partition_deliver", rec.time, rec.node, i,
                 "delivery from node " + std::to_string(rec.peer) + " to " +
                     node_str(rec.node) + " crosses the cut opened at t=" +
                     std::to_string(partition_time));
        }
        break;
      }
      case trace_kind::drop:
        ++total_dropped;
        ++pairs[{rec.peer, rec.node}].dropped;
        break;
      case trace_kind::crash:
        if (node != nullptr) {
          node->crashed = true;
          node->last_commit_round = -1;  // restart rejoins uncommitted
        }
        break;
      case trace_kind::restart:
        if (node != nullptr) {
          node->crashed = false;
          ++node->restarts;
        }
        break;
      case trace_kind::partition:
        if (!partition_active) {
          partition_active = true;
          partition_time = rec.time;
          side_a.clear();
        }
        side_a.insert(rec.node);
        break;
      case trace_kind::heal:
        partition_active = false;
        break;
      case trace_kind::degrade:
      case trace_kind::restore:
        break;
      case trace_kind::post:
        ++posts_seen;
        posted_options = rec.detail;
        break;
      case trace_kind::commit:
      case trace_kind::adopt: {
        if (prefix_complete) {
          if (posts_seen == 0) {
            report("adopt_posted", rec.time, rec.node, i,
                   node_str(rec.node) + " adopted option " + std::to_string(rec.a) +
                       " before any signal post");
          } else if (rec.a < 0 || rec.a >= posted_options) {
            report("adopt_posted", rec.time, rec.node, i,
                   node_str(rec.node) + " adopted option " + std::to_string(rec.a) +
                       " outside the posted range [0, " +
                       std::to_string(posted_options) + ")");
          }
        }
        if (node != nullptr) {
          if (rec.b < node->last_commit_round) {
            report("commit_monotone", rec.time, rec.node, i,
                   node_str(rec.node) + " adopted at round " + std::to_string(rec.b) +
                       " after already reaching round " +
                       std::to_string(node->last_commit_round) +
                       " in the same crash epoch");
          }
          node->last_commit_round = rec.b;
        }
        break;
      }
    }
  }

  if (prefix_complete) {
    for (const auto& [id, state] : nodes) {
      const std::uint64_t allowed =
          (meta.rounds + 1 + state.restarts) * (1ULL + meta.max_retries);
      if (state.requests_sent > allowed) {
        report("retry_budget", horizon, id, last_index,
               node_str(id) + " sent " + std::to_string(state.requests_sent) +
                   " sample requests; budget is " + std::to_string(allowed) + " (" +
                   std::to_string(meta.rounds) + " rounds, " +
                   std::to_string(state.restarts) + " restarts, max_retries=" +
                   std::to_string(meta.max_retries) + ")");
      }
    }
    if (total_delivered + total_dropped > total_sent) {
      report("conservation", horizon, 0, last_index,
             "delivered (" + std::to_string(total_delivered) + ") + dropped (" +
                 std::to_string(total_dropped) + ") exceeds sent (" +
                 std::to_string(total_sent) + ")");
    }
    for (const auto& [pair, counts] : pairs) {
      if (counts.delivered + counts.dropped > counts.sent) {
        report("conservation", horizon, pair.first, last_index,
               "link " + std::to_string(pair.first) + " -> " +
                   std::to_string(pair.second) + ": delivered (" +
                   std::to_string(counts.delivered) + ") + dropped (" +
                   std::to_string(counts.dropped) + ") exceeds sent (" +
                   std::to_string(counts.sent) + ")");
      }
    }
  }

  return result;
}

// --- JSONL serialization ------------------------------------------------------

void write_trace(std::ostream& os, const trace_metadata& meta,
                 std::span<const trace_record> records) {
  {
    json_writer header{os, 0};
    header.begin_object()
        .key("sociolearn_trace").value(std::uint64_t{1})
        .key("num_nodes").value(meta.num_nodes)
        .key("num_options").value(meta.num_options)
        .key("max_retries").value(std::uint64_t{meta.max_retries})
        .key("round_interval").value(meta.round_interval)
        .key("rounds").value(meta.rounds)
        .key("seed").value(meta.seed)
        .key("evicted").value(meta.evicted)
        .end_object();
    os << '\n';
  }
  for (const trace_record& rec : records) {
    json_writer line{os, 0};
    line.begin_object()
        .key("t").value(rec.time)
        .key("kind").value(netsim::trace_kind_name(rec.kind))
        .key("node").value(std::uint64_t{rec.node})
        .key("peer").value(std::uint64_t{rec.peer})
        .key("detail").value(std::int64_t{rec.detail})
        .key("a").value(rec.a)
        .key("b").value(rec.b)
        .end_object();
    os << '\n';
  }
}

namespace {

/// One line of a trace: a JSON object whose members read_trace checks one
/// by one, each at the type write_trace writes it.
class trace_line {
 public:
  trace_line(std::string_view text, std::size_t line_no) : line_no_{line_no} {
    try {
      object_ = parse_json(text);
    } catch (const std::invalid_argument& error) {
      fail(error.what());
    }
    if (!object_.is_object()) fail("expected a JSON object");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"trace line " + std::to_string(line_no_) + ": " + what};
  }

  /// Calls on_field(key, value) for every member, then refuses the line
  /// if it lacks any of `keys` (so a bad or unknown member is named first).
  template <typename F>
  void read(std::initializer_list<std::string_view> keys, F&& on_field) const {
    for (const auto& [key, value] : object_.members) on_field(key, value);
    for (const std::string_view key : keys) {
      if (object_.find(key) == nullptr) fail("missing key '" + std::string{key} + "'");
    }
  }

  double number(std::string_view key, const json_value& value) const {
    expect_number(key, value);
    return value.number;
  }

  /// Reads `value` as T from its raw token: a value outside T's range (a
  /// negative count included) is refused, not narrowed.
  template <typename T>
  T integer(std::string_view key, const json_value& value) const {
    expect_number(key, value);
    T out = 0;
    const char* end = value.text.data() + value.text.size();
    const auto [ptr, ec] = std::from_chars(value.text.data(), end, out);
    if (ec != std::errc{} || ptr != end) {
      fail("value '" + value.text + "' for key '" + std::string{key} +
           "' is not an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
           ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    return out;
  }

 private:
  void expect_number(std::string_view key, const json_value& value) const {
    if (value.is_number()) return;
    fail(std::string{value.is_string() ? "unexpected string" : "non-numeric"} +
         " value for key '" + std::string{key} + "'");
  }

  std::size_t line_no_;
  json_value object_;
};

}  // namespace

parsed_trace read_trace(std::istream& is) {
  parsed_trace out;
  std::string text;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(is, text)) {
    ++line_no;
    if (text.empty()) continue;
    const trace_line line{text, line_no};
    if (!have_header) {
      line.read({"sociolearn_trace", "num_nodes", "num_options", "max_retries",
                 "round_interval", "rounds", "seed", "evicted"},
                [&](const std::string& key, const json_value& value) {
                  if (key == "sociolearn_trace") {
                    if (line.integer<std::uint64_t>(key, value) != 1) {
                      line.fail("bad 'sociolearn_trace' header marker");
                    }
                  } else if (key == "num_nodes") {
                    out.meta.num_nodes = line.integer<std::uint64_t>(key, value);
                  } else if (key == "num_options") {
                    out.meta.num_options = line.integer<std::uint64_t>(key, value);
                  } else if (key == "max_retries") {
                    out.meta.max_retries = line.integer<std::uint32_t>(key, value);
                  } else if (key == "round_interval") {
                    out.meta.round_interval = line.number(key, value);
                  } else if (key == "rounds") {
                    out.meta.rounds = line.integer<std::uint64_t>(key, value);
                  } else if (key == "seed") {
                    out.meta.seed = line.integer<std::uint64_t>(key, value);
                  } else if (key == "evicted") {
                    out.meta.evicted = line.integer<std::uint64_t>(key, value);
                  } else {
                    line.fail("unknown header key '" + key + "'");
                  }
                });
      have_header = true;
      continue;
    }
    netsim::trace_record rec;
    line.read({"t", "kind", "node", "peer", "detail", "a", "b"},
              [&](const std::string& key, const json_value& value) {
                if (key == "kind") {
                  if (!value.is_string()) line.fail("'kind' must be a string");
                  if (!netsim::parse_trace_kind(value.text, rec.kind)) {
                    line.fail("unknown record kind '" + value.text + "'");
                  }
                } else if (key == "t") {
                  rec.time = line.number(key, value);
                } else if (key == "node") {
                  rec.node = line.integer<std::uint32_t>(key, value);
                } else if (key == "peer") {
                  rec.peer = line.integer<std::uint32_t>(key, value);
                } else if (key == "detail") {
                  rec.detail = line.integer<std::int32_t>(key, value);
                } else if (key == "a") {
                  rec.a = line.integer<std::int64_t>(key, value);
                } else if (key == "b") {
                  rec.b = line.integer<std::int64_t>(key, value);
                } else {
                  line.fail("unknown record key '" + key + "'");
                }
              });
    out.records.push_back(rec);
  }
  if (!have_header) throw std::runtime_error{"trace: empty input (no header line)"};
  return out;
}

std::string stdout_trace_conflict(std::string_view trace_out, bool check_requested) {
  if (trace_out != "-" || !check_requested) return {};
  return "--trace-out - and --check-trace both write to stdout, which would "
         "interleave the JSONL trace with the check report and corrupt both; "
         "write the trace to a file (--trace-out trace.jsonl --check-trace) "
         "or run the check separately (sociolearn_cli check-trace trace.jsonl)";
}

}  // namespace sgl::analysis
