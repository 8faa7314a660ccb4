#include "core/finite_dynamics.h"

#include <algorithm>
#include <stdexcept>

#include "core/step_kernel.h"
#include "support/distributions.h"

namespace sgl::core {

finite_dynamics::finite_dynamics(const dynamics_params& params, std::size_t num_agents,
                                 std::shared_ptr<const graph::graph> topology,
                                 std::vector<adoption_rule> rules)
    : params_{params},
      topology_{std::move(topology)},
      rules_{std::move(rules)} {
  params_.validate();
  if (num_agents == 0) throw std::invalid_argument{"finite_dynamics: no agents"};
  if (topology_ == nullptr && rules_.empty()) {
    throw std::invalid_argument{
        "finite_dynamics: a fully mixed homogeneous population runs on "
        "aggregate_dynamics (give a topology or per-agent rules)"};
  }
  if (topology_ != nullptr && topology_->num_vertices() != num_agents) {
    throw std::invalid_argument{"finite_dynamics: topology vertex count != agents"};
  }
  if (!rules_.empty() && rules_.size() != num_agents) {
    throw std::invalid_argument{"finite_dynamics: rules size != agents"};
  }
  // SoA u64 thresholds for the v3 kernels.  prob_to_u64's endpoint
  // conventions keep alpha = 0 / beta = 1 rules exact there too.
  alpha_thr_.resize(rules_.size());
  beta_thr_.resize(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (!rules_[i].valid()) {
      throw std::invalid_argument{"finite_dynamics: need 0 <= alpha <= beta <= 1"};
    }
    alpha_thr_[i] = prob_to_u64(rules_[i].alpha);
    beta_thr_[i] = prob_to_u64(rules_[i].beta);
  }
  const std::size_t m = params_.num_options;
  choices_.assign(num_agents, -1);
  previous_choices_.assign(num_agents, -1);
  popularity_.assign(m, 0.0);
  adopter_counts_.assign(m, 0);
  stage_counts_.assign(m, 0);
  // The packed two-option view stores per-option counts in 16-bit halves,
  // so a vertex of degree >= 2^16 also takes the stateless rejection path.
  network_dense_ = topology_ != nullptr &&
                   (topology_->average_degree() > dense_degree_threshold ||
                    (m == 2 && topology_->max_degree() > 0xFFFF));
  if (topology_ != nullptr && !network_dense_) {
    // Layout: for m == 2 one packed word per vertex (count of option 0 in
    // the low half, option 1 in the high half — so a delta is a single
    // add); otherwise m uint32 counts per vertex.
    neighbor_view_.resize(m == 2 ? num_agents : num_agents * m);
  }
  reset();
}

void finite_dynamics::reset() {
  std::fill(choices_.begin(), choices_.end(), -1);
  std::fill(previous_choices_.begin(), previous_choices_.end(), -1);
  const double uniform = 1.0 / static_cast<double>(params_.num_options);
  std::fill(popularity_.begin(), popularity_.end(), uniform);
  std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
  std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
  // Nobody is committed, so no vertex has a committed neighbour.
  std::fill(neighbor_view_.begin(), neighbor_view_.end(), 0);
  adopters_ = 0;
  empty_steps_ = 0;
  steps_ = 0;
}

std::uint32_t finite_dynamics::committed_neighbors(std::size_t v, std::size_t j) const {
  const std::size_t m = params_.num_options;
  if (neighbor_view_.empty() || v >= choices_.size() || j >= m) {
    throw std::out_of_range{"finite_dynamics::committed_neighbors: no view entry"};
  }
  if (m == 2) return (neighbor_view_[v] >> (16 * j)) & 0xFFFFU;
  return neighbor_view_[v * m + j];
}

void finite_dynamics::step(std::span<const std::uint8_t> rewards, rng& gen) {
  if (rewards.size() != params_.num_options) {
    throw std::invalid_argument{"finite_dynamics::step: reward width mismatch"};
  }
  if (topology_ != nullptr) {
    step_network(rewards, gen);
  } else if (params_.num_options <= 64) {
    step_mixed_vec(rewards, gen);
  } else {
    step_per_agent(rewards, gen);
  }
  finish_step();
}

void finite_dynamics::step_per_agent(std::span<const std::uint8_t> rewards, rng& gen) {
  const std::size_t m = params_.num_options;

  // Stage 1 sampler for the fully mixed case: popularity-proportional
  // (identical in law to "copy a uniformly random adopter").  Rebuilt in
  // place: allocation-free after the first step.
  by_popularity_.rebuild(popularity_);

  std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
  std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);

  const double mu = params_.mu;

  for (std::size_t i = 0; i < choices_.size(); ++i) {
    // --- Stage 1: pick an option to consider. ---
    std::size_t considered;
    if (gen.next_bernoulli(mu)) {
      considered = static_cast<std::size_t>(gen.next_below(m));
    } else {
      considered = by_popularity_.sample(gen);
    }
    ++stage_counts_[considered];

    // --- Stage 2: adopt or sit out. ---
    const adoption_rule& rule = rules_[i];
    const double adopt_p = rewards[considered] != 0 ? rule.beta : rule.alpha;
    if (gen.next_bernoulli(adopt_p)) {
      choices_[i] = static_cast<std::int32_t>(considered);
      ++adopter_counts_[considered];
    } else {
      choices_[i] = -1;
    }
  }

  adopters_ = 0;
  for (const std::uint64_t d : adopter_counts_) adopters_ += d;
}

void finite_dynamics::step_mixed_vec(std::span<const std::uint8_t> rewards, rng& gen) {
  const std::size_t m = params_.num_options;
  const std::size_t n = choices_.size();

  // Stage-1 copy branch as a CDF ladder over the previous popularity
  // (uniform after empty steps, so popularity_ is always the right
  // distribution — same source as by_popularity_ on the scalar path).
  pop_cdf_.resize(m - 1);
  double cum = 0.0;
  for (std::size_t j = 0; j + 1 < m; ++j) {
    cum += popularity_[j];
    pop_cdf_[j] = prob_to_u64(cum);
  }
  std::uint64_t reward_bits = 0;
  for (std::size_t j = 0; j < m; ++j) {
    reward_bits |= static_cast<std::uint64_t>(rewards[j] != 0) << j;
  }
  considered_scratch_.resize(n);

  kernel::mixed_args args{};
  args.step_seed = gen.next_u64();
  args.n = n;
  args.m = m;
  args.t_mu = prob_to_u64(params_.mu);
  args.pop_cdf = pop_cdf_.data();
  args.reward_bits = reward_bits;
  args.alpha_thr = alpha_thr_.data();
  args.beta_thr = beta_thr_.data();
  args.choices = choices_.data();
  args.considered = considered_scratch_.data();
  kernel::mixed_step()(args);

  std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
  std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = considered_scratch_[i];
    ++stage_counts_[j];
    adopter_counts_[j] += choices_[i] >= 0;
  }
  adopters_ = 0;
  for (const std::uint64_t d : adopter_counts_) adopters_ += d;
}

void finite_dynamics::step_network(std::span<const std::uint8_t> rewards, rng& gen) {
  const std::size_t m = params_.num_options;
  const std::size_t n = choices_.size();

  // Double buffer: last step's choices become readable through
  // previous_choices_ with a swap, not an O(N) copy; every slot of
  // choices_ is overwritten below.  The committed-neighbour view is
  // consistent with the swapped-in previous choices (maintained by delta
  // at the end of every network step, zeroed on reset).
  previous_choices_.swap(choices_);

  // One word of the caller's stream seeds the step (DESIGN.md): the net2
  // kernel addresses per-agent counter draws from it (v3), the other
  // samplers give shard s its own derived stream (v2).  The decomposition
  // depends only on N, so the shard streams are stable.
  const std::uint64_t step_seed = gen.next_u64();
  const std::size_t shards = (n + shard_size - 1) / shard_size;

  shard_counts_.assign(shards * 2 * m, 0);
  if (!network_dense_) {
    if (m > 0xFFFE) {
      throw std::invalid_argument{
          "finite_dynamics: network mode supports at most 65534 options"};
    }
    if (n > 0xFFFFFFFFULL) {
      // The changed-list entries carry the agent index in 32 bits (and
      // graph vertices are 32-bit anyway).
      throw std::invalid_argument{
          "finite_dynamics: network mode supports at most 2^32 agents"};
    }
    changed_.resize(n);
    changed_len_.assign(shards, 0);
  }

  const double mu = params_.mu;
  const adoption_rule homogeneous{params_.resolved_alpha(), params_.beta};

  if (!network_dense_ && m == 2) {
    // Stream derivation v3: the vectorized kernel over the packed
    // two-option view.  The per-agent draws are counter-addressed from
    // step_seed alone, so the shard decomposition below is pure work
    // splitting — unlike v2 it does not even shape the streams.
    kernel::net2_args base{};
    base.step_seed = step_seed;
    base.rows = neighbor_view_.data();
    base.previous = previous_choices_.data();
    base.choices = choices_.data();
    base.t_mu = prob_to_u64(mu);
    if (rules_.empty()) {
      const double alpha = params_.resolved_alpha();
      for (std::size_t j = 0; j < 2; ++j) {
        const double p = rewards[j] != 0 ? params_.beta : alpha;
        base.thr_explore[j] = prob_to_u64(mu * p);
        base.thr_copy[j] = prob_to_u64(mu + (1.0 - mu) * p);
      }
    } else {
      // Reward-selected per-agent thresholds: one SoA array per option.
      base.p_reward0 = rewards[0] != 0 ? beta_thr_.data() : alpha_thr_.data();
      base.p_reward1 = rewards[1] != 0 ? beta_thr_.data() : alpha_thr_.data();
    }
    const kernel::net2_fn fn = kernel::net2_step();
    for (std::size_t s = 0; s < shards; ++s) {
      kernel::net2_args args = base;
      args.lo = s * shard_size;
      args.hi = std::min(n, args.lo + shard_size);
      args.changed = changed_.data() + args.lo;
      args.changed_len = &changed_len_[s];
      args.stage = &shard_counts_[s * 2 * m];
      args.adopt = args.stage + m;
      fn(args);
    }
  } else if (!network_dense_) {
    // Sparse mode, m != 2 (derivation v2): exact draw from the incremental
    // committed-neighbour view.  The loop has a fixed shape — every agent
    // consumes one word for the fused explore/adopt test plus one bounded
    // draw (next_below_mul resamples only with probability < bound/2^64) —
    // and stage 2 is select-based, so the hot path is nearly branch-free.
    // Changed agents are recorded per shard for the delta pass below.
    //
    // Fused stage-2 thresholds: the explore word u is reused for the
    // adoption test.  Conditional on {u < mu} the rescaled variable u/mu
    // (resp. (u-mu)/(1-mu)) is uniform and independent of the stage-1
    // option draw, so "adopt with probability p" becomes u < mu*p
    // (explore) or u < mu + (1-mu)*p (copy) — one generator word fewer per
    // agent, same law.
    adopt_below_explore_.resize(m);
    adopt_below_copy_.resize(m);
    if (rules_.empty()) {
      for (std::size_t j = 0; j < m; ++j) {
        const double p = rewards[j] != 0 ? homogeneous.beta : homogeneous.alpha;
        adopt_below_explore_[j] = mu * p;
        adopt_below_copy_[j] = mu + (1.0 - mu) * p;
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      rng shard_gen = rng::from_stream(step_seed, s);
      std::uint64_t* stage = &shard_counts_[s * 2 * m];
      std::uint64_t* adopt = stage + m;
      const std::size_t lo = s * shard_size;
      const std::size_t hi = std::min(n, lo + shard_size);
      std::uint64_t* changed = changed_.data() + lo;
      std::size_t changed_len = 0;
      const std::uint32_t* row = &neighbor_view_[lo * m];
      const bool heterogeneous = !rules_.empty();
      for (std::size_t i = lo; i < hi; ++i, row += m) {
        // --- Stage 1: explore, or copy a uniform committed neighbour
        // (uniform option when there is none). ---
        const double u = shard_gen.next_double();
        const bool explore = u < mu;
        std::uint64_t total = 0;
        for (std::size_t j = 0; j < m; ++j) total += row[j];
        const bool by_view = !explore && total != 0;
        std::uint64_t r = shard_gen.next_below_mul(by_view ? total : m);
        std::size_t considered;
        if (by_view) {
          considered = 0;
          while (r >= row[considered]) r -= row[considered++];
        } else {
          considered = static_cast<std::size_t>(r);
        }
        ++stage[considered];

        // --- Stage 2: adopt or sit out, reusing the explore word
        // (selects, not branches; see the threshold comment above). ---
        double threshold;
        if (heterogeneous) {
          const double p = rewards[considered] != 0 ? rules_[i].beta
                                                    : rules_[i].alpha;
          threshold = explore ? mu * p : mu + (1.0 - mu) * p;
        } else {
          threshold = explore ? adopt_below_explore_[considered]
                              : adopt_below_copy_[considered];
        }
        const bool adopted = u < threshold;
        const std::int32_t now =
            adopted ? static_cast<std::int32_t>(considered) : -1;
        const std::int32_t was = previous_choices_[i];
        choices_[i] = now;
        adopt[considered] += adopted;
        // Entry layout: agent index | was+1 << 32 | now+1 << 48 (16 bits
        // each, -1 mapping to 0) so the delta pass never re-reads the
        // choice buffers.
        changed[changed_len] =
            static_cast<std::uint64_t>(i) |
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(was + 1))
             << 32) |
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(now + 1))
             << 48);
        changed_len += now != was;
      }
      changed_len_[s] = static_cast<std::uint32_t>(changed_len);
    }
  } else {
    // Dense mode (average degree above the threshold): rejection over
    // uniform neighbour draws — expected O(1/committed-fraction) attempts —
    // with an exact neighbourhood scan once the attempt budget is spent,
    // so the law is still exactly "uniform committed neighbour" with a
    // uniform-option fallback only when there is none.
    for (std::size_t s = 0; s < shards; ++s) {
      rng shard_gen = rng::from_stream(step_seed, s);
      std::uint64_t* stage = &shard_counts_[s * 2 * m];
      std::uint64_t* adopt = stage + m;
      const std::size_t lo = s * shard_size;
      const std::size_t hi = std::min(n, lo + shard_size);
      for (std::size_t i = lo; i < hi; ++i) {
        std::size_t considered;
        if (m == 1) {
          considered = 0;
        } else if (shard_gen.next_bernoulli(mu)) {
          considered = static_cast<std::size_t>(shard_gen.next_below_mul(m));
        } else {
          const std::int32_t copied = sample_committed_neighbor(i, shard_gen);
          considered = copied >= 0
                           ? static_cast<std::size_t>(copied)
                           : static_cast<std::size_t>(shard_gen.next_below_mul(m));
        }
        ++stage[considered];

        const adoption_rule& rule = rules_.empty() ? homogeneous : rules_[i];
        const double adopt_p = rewards[considered] != 0 ? rule.beta : rule.alpha;
        if (shard_gen.next_bernoulli(adopt_p)) {
          choices_[i] = static_cast<std::int32_t>(considered);
          ++adopt[considered];
        } else {
          choices_[i] = -1;
        }
      }
    }
  }

  // Merge the shard tallies in shard order.
  std::fill(stage_counts_.begin(), stage_counts_.end(), 0);
  std::fill(adopter_counts_.begin(), adopter_counts_.end(), 0);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t j = 0; j < m; ++j) {
      stage_counts_[j] += shard_counts_[s * 2 * m + j];
      adopter_counts_[j] += shard_counts_[s * 2 * m + m + j];
    }
  }
  adopters_ = 0;
  for (const std::uint64_t d : adopter_counts_) adopters_ += d;

  // Sparse mode: delta-update the view — only the recorded changed agents
  // touch their neighbours' rows.
  if (!network_dense_) {
    for (std::size_t s = 0; s < shards; ++s) apply_view_deltas(s);
  }
}

/// The choice of a uniform committed neighbour of i under the dense-mode
/// sampler, or -1 when i has none (isolated vertex / fully sat-out
/// neighbourhood).
std::int32_t finite_dynamics::sample_committed_neighbor(std::size_t i,
                                                        rng& shard_gen) const {
  const auto offsets = topology_->offsets();
  const std::span<const graph::graph::vertex> nbrs{
      topology_->adjacency().data() + offsets[i], offsets[i + 1] - offsets[i]};
  if (nbrs.empty()) return -1;
  for (int attempt = 0; attempt < rejection_cap; ++attempt) {
    const std::int32_t seen =
        previous_choices_[nbrs[shard_gen.next_below_mul(nbrs.size())]];
    if (seen >= 0) return seen;
  }
  std::uint64_t committed = 0;
  for (const auto v : nbrs) committed += previous_choices_[v] >= 0;
  if (committed == 0) return -1;
  std::uint64_t k = shard_gen.next_below_mul(committed);
  for (const auto v : nbrs) {
    if (previous_choices_[v] < 0) continue;
    if (k == 0) return previous_choices_[v];
    --k;
  }
  return -1;  // unreachable: k < committed
}

/// Propagates shard s's recorded choice changes (packed changed-list
/// entries) into the neighbours' view rows.  This is the hottest loop of
/// the sparse network step, so it reads the CSR arrays directly and
/// decodes each entry's was/now outside its neighbour walk.
void finite_dynamics::apply_view_deltas(std::size_t s) {
  const std::size_t m = params_.num_options;
  const std::size_t* offsets = topology_->offsets().data();
  const graph::graph::vertex* adjacency = topology_->adjacency().data();
  std::uint32_t* view = neighbor_view_.data();
  const std::uint64_t* entry = changed_.data() + s * shard_size;
  const std::uint64_t* const end = entry + changed_len_[s];
  if (m == 2) {
    // Packed word per vertex: both option counts move in one add.  The
    // 16-bit halves cannot carry into each other — each stays within
    // [0, degree] and the packed mode requires degree < 2^16.  Unsigned
    // wrap-around makes encoded[now+1] - encoded[was+1] the exact delta.
    static constexpr std::uint32_t encoded[3] = {0U, 1U, 0x10000U};
    for (; entry != end; ++entry) {
      const auto i = static_cast<std::uint32_t>(*entry);
      const std::uint32_t delta =
          encoded[*entry >> 48] - encoded[(*entry >> 32) & 0xFFFF];
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        view[adjacency[e]] += delta;
      }
    }
    return;
  }
  for (; entry != end; ++entry) {
    const auto i = static_cast<std::uint32_t>(*entry);
    const std::int32_t was = static_cast<std::int32_t>((*entry >> 32) & 0xFFFF) - 1;
    const std::int32_t now = static_cast<std::int32_t>(*entry >> 48) - 1;
    const std::size_t first = offsets[i];
    const std::size_t last = offsets[i + 1];
    if (was < 0) {
      const auto j = static_cast<std::size_t>(now);
      for (std::size_t e = first; e < last; ++e) ++view[adjacency[e] * m + j];
    } else if (now < 0) {
      const auto j = static_cast<std::size_t>(was);
      for (std::size_t e = first; e < last; ++e) --view[adjacency[e] * m + j];
    } else {
      const auto from = static_cast<std::size_t>(was);
      const auto to = static_cast<std::size_t>(now);
      for (std::size_t e = first; e < last; ++e) {
        std::uint32_t* row = view + adjacency[e] * m;
        --row[from];
        ++row[to];
      }
    }
  }
}

void finite_dynamics::finish_step() {
  const std::size_t m = params_.num_options;
  if (adopters_ == 0) {
    const double uniform = 1.0 / static_cast<double>(m);
    std::fill(popularity_.begin(), popularity_.end(), uniform);
    ++empty_steps_;
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      popularity_[j] = static_cast<double>(adopter_counts_[j]) /
                       static_cast<double>(adopters_);
    }
  }
  ++steps_;
}

}  // namespace sgl::core
