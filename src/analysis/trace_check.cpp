#include "analysis/trace_check.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "support/json.h"

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

/// A strict scanner for the one-line compact objects write_trace emits:
/// {"key":value,...} with string or numeric values and no nesting.
class line_parser {
 public:
  line_parser(std::string_view line, std::size_t line_no)
      : line_{line}, line_no_{line_no} {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"trace line " + std::to_string(line_no_) + ": " + what};
  }

  /// Parses the full object, invoking on_field(key, value_text, is_string).
  template <typename F>
  void parse(F&& on_field) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        const std::string_view key = parse_string();
        expect(':');
        bool is_string = false;
        std::string_view value;
        if (peek() == '"') {
          value = parse_string();
          is_string = true;
        } else {
          const std::size_t start = pos_;
          while (pos_ < line_.size() && line_[pos_] != ',' && line_[pos_] != '}') ++pos_;
          value = trim(line_.substr(start, pos_ - start));
          if (value.empty()) fail("empty value for key '" + std::string{key} + "'");
        }
        on_field(key, value, is_string);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_ws();
    if (pos_ != line_.size()) fail("trailing characters after object");
  }

 private:
  static std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
  }

  void skip_ws() {
    while (pos_ < line_.size() && (line_[pos_] == ' ' || line_[pos_] == '\t')) ++pos_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= line_.size()) fail("unexpected end of line");
    return line_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "', found '" + line_[pos_] + "'");
    ++pos_;
  }

  /// Keys and kind names never contain escapes; reject them rather than
  /// decode them.
  std::string_view parse_string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      if (line_[pos_] == '\\') fail("escape sequences are not supported");
      ++pos_;
    }
    if (pos_ >= line_.size()) fail("unterminated string");
    const std::string_view out = line_.substr(start, pos_ - start);
    ++pos_;
    return out;
  }

  std::string_view line_;
  std::size_t line_no_;
  std::size_t pos_ = 0;
};

double parse_number(const line_parser& parser, std::string_view key,
                    std::string_view text) {
  double out = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    parser.fail("non-numeric value '" + std::string{text} + "' for key '" +
                std::string{key} + "'");
  }
  return out;
}

/// Reads `text` as T, the type write_trace writes the field at: a value
/// outside T's range (a negative count included) is refused, not narrowed.
template <typename T>
T parse_integer(const line_parser& parser, std::string_view key, std::string_view text) {
  T out = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    parser.fail("value '" + std::string{text} + "' for key '" + std::string{key} +
                "' is not an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
                ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return out;
}

}  // namespace

parsed_trace read_trace(std::istream& is) {
  parsed_trace out;
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    line_parser parser{line, line_no};
    if (!have_header) {
      bool magic = false;
      parser.parse([&](std::string_view key, std::string_view value, bool is_string) {
        if (is_string) parser.fail("unexpected string value in header");
        if (key == "sociolearn_trace") {
          magic = parse_integer<std::uint64_t>(parser, key, value) == 1;
        } else if (key == "num_nodes") {
          out.meta.num_nodes = parse_integer<std::uint64_t>(parser, key, value);
        } else if (key == "num_options") {
          out.meta.num_options = parse_integer<std::uint64_t>(parser, key, value);
        } else if (key == "max_retries") {
          out.meta.max_retries = parse_integer<std::uint32_t>(parser, key, value);
        } else if (key == "round_interval") {
          out.meta.round_interval = parse_number(parser, key, value);
        } else if (key == "rounds") {
          out.meta.rounds = parse_integer<std::uint64_t>(parser, key, value);
        } else if (key == "seed") {
          out.meta.seed = parse_integer<std::uint64_t>(parser, key, value);
        } else if (key == "evicted") {
          out.meta.evicted = parse_integer<std::uint64_t>(parser, key, value);
        } else {
          parser.fail("unknown header key '" + std::string{key} + "'");
        }
      });
      if (!magic) parser.fail("missing or bad 'sociolearn_trace' header marker");
      have_header = true;
      continue;
    }
    netsim::trace_record rec;
    parser.parse([&](std::string_view key, std::string_view value, bool is_string) {
      if (key == "kind") {
        if (!is_string) parser.fail("'kind' must be a string");
        if (!netsim::parse_trace_kind(value, rec.kind)) {
          parser.fail("unknown record kind '" + std::string{value} + "'");
        }
        return;
      }
      if (is_string) parser.fail("unexpected string value for key '" + std::string{key} + "'");
      if (key == "t") {
        rec.time = parse_number(parser, key, value);
      } else if (key == "node") {
        rec.node = parse_integer<std::uint32_t>(parser, key, value);
      } else if (key == "peer") {
        rec.peer = parse_integer<std::uint32_t>(parser, key, value);
      } else if (key == "detail") {
        rec.detail = parse_integer<std::int32_t>(parser, key, value);
      } else if (key == "a") {
        rec.a = parse_integer<std::int64_t>(parser, key, value);
      } else if (key == "b") {
        rec.b = parse_integer<std::int64_t>(parser, key, value);
      } else {
        parser.fail("unknown record key '" + std::string{key} + "'");
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
