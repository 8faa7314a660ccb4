#include "support/failpoint.h"

#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

#include "support/json_parse.h"  // parse_json_number / parse_json_integer

namespace sgl::failpoints {
namespace detail {

std::atomic<int> g_configured_sites{0};

namespace {

struct site_config {
  enum class mode { off, range, bernoulli };
  mode kind = mode::off;
  std::uint64_t from = 0;  // range: first firing hit (1-based)
  std::uint64_t to = 0;    // range: last firing hit, inclusive
  double p = 0.0;          // bernoulli: per-hit probability
  std::uint64_t seed = 0;  // bernoulli: stream seed
  std::uint64_t arg = 0;   // handed to the site on a firing
  std::atomic<std::uint64_t> hits{0};
};

// The registry: rarely written (test setup / process start), read on every
// hit of a configured site.  Sites hold their hit counters, so readers
// only need the shared lock.
std::shared_mutex g_mutex;
std::map<std::string, std::unique_ptr<site_config>, std::less<>>& registry() {
  static auto* sites = new std::map<std::string, std::unique_ptr<site_config>, std::less<>>;
  return *sites;
}

/// 64-bit FNV-1a — the per-hit Bernoulli stream is counter-based: the
/// decision for hit `index` depends only on (site, seed, index), never on
/// which thread got there first or what fired before.
std::uint64_t fnv1a_64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// splitmix64 finalizer: FNV-1a's high bits barely avalanche on short
/// keys (the trailing index digits only reach the low ~48 bits), so mix
/// before cutting a uniform double from the top.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool bernoulli_fires(std::string_view site, std::uint64_t seed, std::uint64_t index,
                     double p) {
  std::string key{site};
  key += '#';
  key += std::to_string(seed);
  key += '#';
  key += std::to_string(index);
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(mix(fnv1a_64(key)) >> 11) * 0x1.0p-53;
  return u < p;
}

[[noreturn]] void parse_fail(std::string_view what, std::string_view text) {
  throw std::invalid_argument{"failpoints: " + std::string{what} + " in '" +
                              std::string{text} + "'"};
}

std::uint64_t parse_uint(std::string_view text, std::string_view context) {
  const std::optional<std::uint64_t> out = parse_json_integer<std::uint64_t>(text);
  if (!out) parse_fail("expected an unsigned integer", context);
  return *out;
}

/// Parses one trigger spec (the part after '=').  See the header grammar.
std::unique_ptr<site_config> parse_spec(std::string_view spec, std::string_view entry) {
  auto config = std::make_unique<site_config>();

  // Optional trailing '(arg)'.
  if (!spec.empty() && spec.back() == ')') {
    const std::size_t open = spec.rfind('(');
    if (open == std::string_view::npos) parse_fail("unmatched ')'", entry);
    config->arg = parse_uint(spec.substr(open + 1, spec.size() - open - 2), entry);
    spec = spec.substr(0, open);
    while (!spec.empty() && (spec.back() == ' ' || spec.back() == '\t')) {
      spec.remove_suffix(1);  // allow "2..3 (9)"
    }
  }
  if (spec.empty()) parse_fail("empty trigger spec", entry);

  if (spec == "off") {
    config->kind = site_config::mode::off;
    return config;
  }
  if (spec.substr(0, 2) == "p=") {
    const std::size_t at = spec.find('@');
    if (at == std::string_view::npos) {
      parse_fail("bernoulli spec needs a seed: p=PROB@SEED", entry);
    }
    const std::optional<double> p = parse_json_number(spec.substr(2, at - 2));
    if (!p || *p < 0.0 || *p > 1.0) parse_fail("bernoulli probability must be in [0, 1]", entry);
    config->p = *p;
    config->seed = parse_uint(spec.substr(at + 1), entry);
    config->kind = site_config::mode::bernoulli;
    return config;
  }

  // N | N.. | N..M
  config->kind = site_config::mode::range;
  const std::size_t dots = spec.find("..");
  if (dots == std::string_view::npos) {
    config->from = config->to = parse_uint(spec, entry);
  } else {
    config->from = parse_uint(spec.substr(0, dots), entry);
    const std::string_view rest = spec.substr(dots + 2);
    config->to = rest.empty() ? std::numeric_limits<std::uint64_t>::max()
                              : parse_uint(rest, entry);
  }
  if (config->from == 0) parse_fail("hit counts are 1-based; 0 never fires", entry);
  if (config->to < config->from) parse_fail("empty hit range", entry);
  return config;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::optional<std::uint64_t> check_slow(std::string_view site) {
  const std::shared_lock<std::shared_mutex> lock{g_mutex};
  const auto it = registry().find(site);
  if (it == registry().end()) return std::nullopt;
  site_config& config = *it->second;
  const std::uint64_t index = config.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  switch (config.kind) {
    case site_config::mode::off: return std::nullopt;
    case site_config::mode::range:
      if (index >= config.from && index <= config.to) return config.arg;
      return std::nullopt;
    case site_config::mode::bernoulli:
      if (bernoulli_fires(site, config.seed, index, config.p)) return config.arg;
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace detail

void configure(std::string_view dsl) {
  // Parse everything before touching the registry: a bad entry leaves the
  // previous configuration in place.
  std::map<std::string, std::unique_ptr<detail::site_config>, std::less<>> parsed;
  std::string_view rest = dsl;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view entry = detail::trim(
        semi == std::string_view::npos ? rest : rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{} : rest.substr(semi + 1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    // `p=` lives in the spec, so the site/spec split is the FIRST '='.
    if (eq == 0 || eq == std::string_view::npos) {
      detail::parse_fail("expected site=spec", entry);
    }
    const std::string_view site = detail::trim(entry.substr(0, eq));
    parsed.insert_or_assign(std::string{site},
                            detail::parse_spec(detail::trim(entry.substr(eq + 1)), entry));
  }
  const std::unique_lock<std::shared_mutex> lock{detail::g_mutex};
  detail::registry() = std::move(parsed);
  detail::g_configured_sites.store(static_cast<int>(detail::registry().size()),
                                   std::memory_order_relaxed);
}

void set(std::string_view site, std::string_view spec) {
  auto config = detail::parse_spec(detail::trim(spec),
                                   std::string{site} + "=" + std::string{spec});
  const std::unique_lock<std::shared_mutex> lock{detail::g_mutex};
  detail::registry().insert_or_assign(std::string{detail::trim(site)}, std::move(config));
  detail::g_configured_sites.store(static_cast<int>(detail::registry().size()),
                                   std::memory_order_relaxed);
}

void clear() {
  const std::unique_lock<std::shared_mutex> lock{detail::g_mutex};
  detail::registry().clear();
  detail::g_configured_sites.store(0, std::memory_order_relaxed);
}

bool clear(std::string_view site) {
  const std::unique_lock<std::shared_mutex> lock{detail::g_mutex};
  const auto it = detail::registry().find(site);
  if (it == detail::registry().end()) return false;
  detail::registry().erase(it);
  detail::g_configured_sites.store(static_cast<int>(detail::registry().size()),
                                   std::memory_order_relaxed);
  return true;
}

std::uint64_t hit_count(std::string_view site) {
  const std::shared_lock<std::shared_mutex> lock{detail::g_mutex};
  const auto it = detail::registry().find(site);
  if (it == detail::registry().end()) return 0;
  return it->second->hits.load(std::memory_order_relaxed);
}

std::vector<std::string> configured_sites() {
  const std::shared_lock<std::shared_mutex> lock{detail::g_mutex};
  std::vector<std::string> out;
  out.reserve(detail::registry().size());
  for (const auto& [name, config] : detail::registry()) out.push_back(name);
  return out;
}

void init_from_env() {
  const char* dsl = std::getenv("SGL_FAILPOINTS");
  if (dsl == nullptr || *dsl == '\0') return;
  configure(dsl);
}

}  // namespace sgl::failpoints
