#include "support/text.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace sgl {

std::string_view trim_ascii(std::string_view text) noexcept {
  while (!text.empty() &&
         (text.front() == ' ' || text.front() == '\t' || text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // One-row dynamic program; distances are small (flag-name length).
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

std::string closest_name(std::string_view name,
                         std::span<const std::string_view> candidates) {
  std::string_view best;
  std::size_t best_distance = static_cast<std::size_t>(-1);
  for (const std::string_view candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  // Only suggest plausible typos: a third of the name, at least 2 edits.
  const std::size_t limit = std::max<std::size_t>(2, name.size() / 3);
  return best_distance <= limit ? std::string{best} : std::string{};
}

}  // namespace sgl
