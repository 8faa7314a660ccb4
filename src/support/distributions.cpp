#include "support/distributions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgl {
namespace {

/// Stirling tail correction f_c(k) = ln k! - [k ln k - k + 0.5 ln(2 pi k)],
/// as tabulated in Hormann (1993) for the BTRS binomial sampler.
[[nodiscard]] double stirling_correction(double k) noexcept {
  static constexpr double table[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return table[static_cast<int>(k)];
  const double kp1_sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1_sq) / kp1_sq) / (k + 1.0);
}

/// Inversion set-up: the pmf recurrence and pmf(0), which is returned.
/// Requires n * p = O(10) so the expected scan length (and the pmf ratio
/// recurrence) stays well behaved.
[[nodiscard, gnu::always_inline]] inline double inversion_prepare(
    detail::inversion_setup& setup, std::uint64_t n, double p) noexcept {
  const double q = 1.0 - p;
  setup.s = p / q;
  setup.a = static_cast<double>(n + 1) * setup.s;
  setup.rungs = 1;
  return std::pow(q, static_cast<double>(n));
}

/// Binomial(n, p) by sequential inversion over the pmf ladder: pmf[k] for
/// k < setup.rungs is read, the rest is computed by the recurrence and
/// kept while it fits in `pmf`.
[[nodiscard, gnu::always_inline]] inline std::uint64_t inversion_draw(
    rng& gen, std::uint64_t n, detail::inversion_setup& setup, std::span<double> pmf) noexcept {
  double r = pmf[0];
  double u = gen.next_double();
  std::uint64_t k = 0;
  while (u > r && k < n) {
    u -= r;
    ++k;
    if (k < setup.rungs) {
      r = pmf[k];
      continue;
    }
    r *= (setup.a / static_cast<double>(k)) - setup.s;
    if (k < pmf.size()) {
      pmf[k] = r;
      setup.rungs = static_cast<std::uint32_t>(k + 1);
    }
  }
  return k;
}

/// Hormann's BTRS set-up: the constants of the acceptance fast path only.
/// Preconditions: p <= 0.5 and n * p >= 10.
[[gnu::always_inline]] inline void btrs_prepare(detail::btrs_setup& setup, std::uint64_t n,
                                                double p) noexcept {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  setup.nd = nd;
  setup.spq = std::sqrt(nd * p * q);
  setup.b = 1.15 + 2.53 * setup.spq;
  setup.a = -0.0873 + 0.0248 * setup.b + 0.01 * p;
  setup.c = nd * p + 0.5;
  setup.v_r = 0.92 - 4.2 / setup.b;
  setup.tail_ready = false;
}

/// Binomial(n, p) by Hormann's BTRS transformed rejection.  The constants
/// of the squeeze-failure test are computed on the first failure and kept
/// in `setup`.
[[nodiscard, gnu::always_inline]] inline std::uint64_t btrs_draw(
    rng& gen, double p, detail::btrs_setup& setup) noexcept {
  const double nd = setup.nd;
  for (;;) {
    const double u = gen.next_double() - 0.5;
    double v = gen.next_double();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * setup.a / us + setup.b) * u + setup.c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= setup.v_r) return static_cast<std::uint64_t>(kd);

    if (!setup.tail_ready) {
      const double q = 1.0 - p;
      setup.r = p / q;
      setup.alpha = (2.83 + 5.1 / setup.b) * setup.spq;
      const double m = std::floor((nd + 1.0) * p);
      setup.m = m;
      setup.upper_m = (m + 0.5) * std::log((m + 1.0) / (setup.r * (nd - m + 1.0)));
      setup.fc_m = stirling_correction(m);
      setup.fc_nm = stirling_correction(nd - m);
      setup.tail_ready = true;
    }
    const double m = setup.m;
    const double r = setup.r;
    v = std::log(v * setup.alpha / (setup.a / (us * us) + setup.b));
    const double upper =
        setup.upper_m +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        setup.fc_m + setup.fc_nm -
        stirling_correction(kd) - stirling_correction(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace

double sample_standard_normal(rng& gen) noexcept {
  for (;;) {
    const double x = 2.0 * gen.next_double() - 1.0;
    const double y = 2.0 * gen.next_double() - 1.0;
    const double s = x * x + y * y;
    if (s > 0.0 && s < 1.0) return x * std::sqrt(-2.0 * std::log(s) / s);
  }
}

double sample_normal(rng& gen, double mean, double sd) noexcept {
  return mean + sd * sample_standard_normal(gen);
}

double sample_exponential(rng& gen, double rate) noexcept {
  // 1 - U in (0, 1], so the log is finite.
  return -std::log(1.0 - gen.next_double()) / rate;
}

std::uint64_t sample_binomial(rng& gen, std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - sample_binomial(gen, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) {
    detail::inversion_setup setup;
    double pmf0 = inversion_prepare(setup, n, p);
    return inversion_draw(gen, n, setup, std::span<double>{&pmf0, 1});
  }
  detail::btrs_setup setup;
  btrs_prepare(setup, n, p);
  return btrs_draw(gen, p, setup);
}

binomial_table::binomial_table(double p) noexcept
    : p_{p}, low_p_{p > 0.5 ? 1.0 - p : p}, folded_{p > 0.5} {}

std::uint64_t binomial_table::sample(rng& gen, std::uint64_t n) {
  // The same branches as sample_binomial, with p > 0.5 folded once.
  if (n == 0 || p_ <= 0.0) return 0;
  if (p_ >= 1.0) return n;
  if (entries_.empty()) entries_.resize(slots);
  entry& e = entries_[n & (slots - 1)];
  if (e.n != n) {  // a fresh entry holds n = 0, which never gets here
    e.n = n;
    e.btrs = !(static_cast<double>(n) * low_p_ < 10.0);  // sample_binomial's test
    if (e.btrs) {
      btrs_prepare(e.btrs_setup, n, low_p_);
    } else {
      e.pmf[0] = inversion_prepare(e.inversion_setup, n, low_p_);
    }
  }
  const std::uint64_t k = e.btrs ? btrs_draw(gen, low_p_, e.btrs_setup)
                                 : inversion_draw(gen, n, e.inversion_setup, e.pmf);
  return folded_ ? n - k : k;
}

void sample_multinomial(rng& gen, std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> out) {
  if (weights.size() != out.size()) {
    throw std::invalid_argument{"sample_multinomial: size mismatch"};
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument{"sample_multinomial: weights must be finite and >= 0"};
    }
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"sample_multinomial: weights sum to zero"};

  std::uint64_t remaining = n;
  double mass_left = total;
  for (std::size_t j = 0; j + 1 < weights.size(); ++j) {
    if (remaining == 0 || mass_left <= 0.0) {
      out[j] = 0;
      continue;
    }
    const double cond = std::clamp(weights[j] / mass_left, 0.0, 1.0);
    const std::uint64_t draw = sample_binomial(gen, remaining, cond);
    out[j] = draw;
    remaining -= draw;
    mass_left -= weights[j];
  }
  if (!out.empty()) out[out.size() - 1] = remaining;
}

std::size_t sample_categorical(rng& gen, std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += w;
  double u = gen.next_double() * total;
  for (std::size_t j = 0; j < weights.size(); ++j) {
    u -= weights[j];
    if (u < 0.0) return j;
  }
  // Floating-point slack: fall back to the last positive-weight category.
  for (std::size_t j = weights.size(); j-- > 0;) {
    if (weights[j] > 0.0) return j;
  }
  return weights.size() - 1;
}

void discrete_sampler::rebuild(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument{"discrete_sampler: empty weights"};
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument{"discrete_sampler: weights must be finite and >= 0"};
    }
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"discrete_sampler: weights sum to zero"};

  const std::size_t m = weights.size();
  normalized_.resize(m);
  probability_.assign(m, 0.0);
  alias_.assign(m, 0);

  // Vose's stable alias construction over scaled probabilities m * p_i.
  scaled_.resize(m);
  small_.clear();
  large_.clear();
  small_.reserve(m);
  large_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    normalized_[i] = weights[i] / total;
    scaled_[i] = normalized_[i] * static_cast<double>(m);
    (scaled_[i] < 1.0 ? small_ : large_).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small_.empty() && !large_.empty()) {
    const std::uint32_t s = small_.back();
    small_.pop_back();
    const std::uint32_t l = large_.back();
    large_.pop_back();
    probability_[s] = scaled_[s];
    alias_[s] = l;
    scaled_[l] = (scaled_[l] + scaled_[s]) - 1.0;
    (scaled_[l] < 1.0 ? small_ : large_).push_back(l);
  }
  for (const std::uint32_t i : large_) probability_[i] = 1.0;
  for (const std::uint32_t i : small_) probability_[i] = 1.0;  // numeric slack
}

std::size_t discrete_sampler::sample(rng& gen) const noexcept {
  const std::size_t column = static_cast<std::size_t>(gen.next_below(probability_.size()));
  return gen.next_double() < probability_[column] ? column : alias_[column];
}

}  // namespace sgl
