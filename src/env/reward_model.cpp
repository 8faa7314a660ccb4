#include "env/reward_model.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "support/distributions.h"
#include "support/field_error.h"

namespace sgl::env {
namespace {

/// Rejects `etas` (the scenario field `field`) unless it is a non-empty
/// list of qualities in [0, 1].
void validate_etas(std::span<const double> etas, const char* who, const char* field) {
  if (etas.empty()) throw field_error{field, std::string{who} + ": no options"};
  for (const double eta : etas) {
    if (!(eta >= 0.0 && eta <= 1.0)) {
      throw field_error{field, std::string{who} + ": quality outside [0,1]"};
    }
  }
}

}  // namespace

std::size_t reward_model::best_option(std::uint64_t t) const {
  std::size_t best = 0;
  double best_eta = mean(t, 0);
  for (std::size_t j = 1; j < num_options(); ++j) {
    const double eta = mean(t, j);
    if (eta > best_eta) {
      best_eta = eta;
      best = j;
    }
  }
  return best;
}

double reward_model::best_mean(std::uint64_t t) const { return mean(t, best_option(t)); }

// --- bernoulli_rewards ------------------------------------------------------

bernoulli_rewards::bernoulli_rewards(std::vector<double> etas) : etas_{std::move(etas)} {
  validate_etas(etas_, "bernoulli_rewards", "etas");
}

void bernoulli_rewards::sample(std::uint64_t /*t*/, rng& gen, std::span<std::uint8_t> out) {
  for (std::size_t j = 0; j < etas_.size(); ++j) {
    out[j] = gen.next_bernoulli(etas_[j]) ? 1 : 0;
  }
}

double bernoulli_rewards::mean(std::uint64_t /*t*/, std::size_t option) const {
  return etas_.at(option);
}

// --- exclusive_rewards ------------------------------------------------------

exclusive_rewards::exclusive_rewards(std::vector<double> win_probabilities)
    : p_{std::move(win_probabilities)} {
  validate_etas(p_, "exclusive_rewards", "etas");
  const double total = std::accumulate(p_.begin(), p_.end(), 0.0);
  if (std::abs(total - 1.0) > 1e-9) {
    throw field_error{"etas", "exclusive_rewards: win probabilities must sum to 1"};
  }
}

void exclusive_rewards::sample(std::uint64_t /*t*/, rng& gen, std::span<std::uint8_t> out) {
  const std::size_t winner = sample_categorical(gen, p_);
  for (std::size_t j = 0; j < p_.size(); ++j) out[j] = (j == winner) ? 1 : 0;
}

double exclusive_rewards::mean(std::uint64_t /*t*/, std::size_t option) const {
  return p_.at(option);
}

// --- switching_rewards ------------------------------------------------------

switching_rewards::switching_rewards(std::vector<double> base_etas, std::uint64_t period)
    : base_{std::move(base_etas)}, period_{period} {
  validate_etas(base_, "switching_rewards", "etas");
  if (period_ == 0) throw field_error{"period", "switching_rewards: period must be positive"};
}

void switching_rewards::sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) {
  for (std::size_t j = 0; j < base_.size(); ++j) {
    out[j] = gen.next_bernoulli(mean(t, j)) ? 1 : 0;
  }
}

double switching_rewards::mean(std::uint64_t t, std::size_t option) const {
  const std::size_t m = base_.size();
  const std::uint64_t shift = (t / period_) % m;
  return base_[(option + static_cast<std::size_t>(shift)) % m];
}

// --- drifting_rewards -------------------------------------------------------

drifting_rewards::drifting_rewards(std::vector<double> start_etas,
                                   std::vector<double> end_etas, std::uint64_t horizon)
    : start_{std::move(start_etas)}, end_{std::move(end_etas)}, horizon_{horizon} {
  validate_etas(start_, "drifting_rewards", "etas");
  validate_etas(end_, "drifting_rewards", "end_etas");
  if (start_.size() != end_.size()) {
    throw field_error{"end_etas", "drifting_rewards: start/end size mismatch"};
  }
  if (horizon_ < 2) throw field_error{"horizon", "drifting_rewards: horizon must be >= 2"};
}

void drifting_rewards::sample(std::uint64_t t, rng& gen, std::span<std::uint8_t> out) {
  for (std::size_t j = 0; j < start_.size(); ++j) {
    out[j] = gen.next_bernoulli(mean(t, j)) ? 1 : 0;
  }
}

double drifting_rewards::mean(std::uint64_t t, std::size_t option) const {
  if (t <= 1) return start_.at(option);
  if (t >= horizon_) return end_.at(option);
  const double frac = static_cast<double>(t - 1) / static_cast<double>(horizon_ - 1);
  return start_.at(option) + frac * (end_.at(option) - start_.at(option));
}

// --- schedule_rewards -------------------------------------------------------

schedule_rewards::schedule_rewards(std::vector<std::vector<std::uint8_t>> table)
    : table_{std::move(table)} {
  if (table_.empty()) throw std::invalid_argument{"schedule_rewards: empty table"};
  width_ = table_[0].size();
  if (width_ == 0) throw std::invalid_argument{"schedule_rewards: zero-width rows"};
  for (const auto& row : table_) {
    if (row.size() != width_) {
      throw std::invalid_argument{"schedule_rewards: ragged rows"};
    }
    for (const std::uint8_t v : row) {
      if (v > 1) throw std::invalid_argument{"schedule_rewards: signals must be 0/1"};
    }
  }
}

void schedule_rewards::sample(std::uint64_t t, rng& /*gen*/, std::span<std::uint8_t> out) {
  const auto& row = table_[(t == 0 ? 0 : (t - 1)) % table_.size()];
  for (std::size_t j = 0; j < width_; ++j) out[j] = row[j];
}

double schedule_rewards::mean(std::uint64_t /*t*/, std::size_t option) const {
  double total = 0.0;
  for (const auto& row : table_) total += row.at(option);
  return total / static_cast<double>(table_.size());
}

// --- helpers ----------------------------------------------------------------

std::vector<double> two_level_etas(std::size_t num_options, double eta_best, double eta_rest) {
  if (num_options == 0) throw std::invalid_argument{"two_level_etas: no options"};
  std::vector<double> etas(num_options, eta_rest);
  etas[0] = eta_best;
  validate_etas(etas, "two_level_etas", "etas");
  return etas;
}

}  // namespace sgl::env
