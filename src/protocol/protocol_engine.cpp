#include "protocol/protocol_engine.h"

#include <algorithm>
#include <stdexcept>

namespace sgl::protocol {
namespace {

/// Stream index for the churn generator under the simulation seed; chosen
/// away from netsim's node (2^32 + id) and network (0xfeed) streams.
constexpr std::uint64_t k_churn_stream = 0x5ca1ab1eULL;

}  // namespace

protocol_engine::protocol_engine(const engine_config& config, std::size_t num_nodes,
                                 std::shared_ptr<const graph::graph> topology)
    : config_{config},
      num_nodes_{num_nodes},
      topology_{std::move(topology)},
      board_{config.dynamics.num_options} {
  config_.dynamics.validate();
  config_.protocol.validate();
  if (num_nodes_ == 0) {
    throw std::invalid_argument{"protocol engine: need at least one node"};
  }
  if (topology_ != nullptr && topology_->num_vertices() != num_nodes_) {
    throw std::invalid_argument{
        "protocol engine: topology vertex count != node count"};
  }
  // Fail fast on an invalid nemesis schedule instead of at the first step.
  config_.faults.validate(num_nodes_);
  reset();
}

void protocol_engine::reset() {
  // The finished run's queue storage carries over to the next replication.
  if (sim_ != nullptr) spare_queue_ = std::move(*sim_).release_queue();
  sim_.reset();
  recorder_.reset();
  learners_.clear();
  const std::size_t m = config_.dynamics.num_options;
  popularity_.assign(m, 1.0 / static_cast<double>(m));
  counts_.assign(m, 0);
  steps_ = 0;
  empty_steps_ = 0;
  alive_ = num_nodes_;
  committed_ = 0;
  uncommitted_since_.assign(num_nodes_, 0);
  was_committed_.assign(num_nodes_, 0);
  commit_latency_rounds_ = 0.0;
  commit_events_ = 0;
}

void protocol_engine::build(rng& gen) {
  // The one word this engine draws from the harness stream: the simulation
  // seed.  Everything stochastic below (node streams, link loss/jitter,
  // churn) derives from it, so the replication is a pure function of the
  // stream — thread count, scheduling, and reuse cannot change it.
  const std::uint64_t sim_seed = gen.next_u64();
  sim_ = std::make_unique<netsim::simulation>(sim_seed, std::move(spare_queue_));
  churn_gen_ = rng::from_stream(sim_seed, k_churn_stream);

  learners_.reserve(num_nodes_);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    auto learner =
        std::make_unique<gossip_learner>(config_.dynamics, config_.protocol, &board_);
    learners_.push_back(learner.get());
    sim_->add_node(std::move(learner));
  }
  if (topology_ != nullptr) sim_->set_topology(topology_.get());
  sim_->set_link_model(config_.protocol.links());
  if (!config_.faults.empty()) sim_->set_fault_schedule(config_.faults);
  if (config_.record_trace) {
    recorder_ = std::make_unique<netsim::trace_recorder>(config_.trace_capacity);
    sim_->set_trace_recorder(recorder_.get());
  }
  sim_->start();
}

void protocol_engine::step(std::span<const std::uint8_t> rewards, rng& gen) {
  if (rewards.size() != config_.dynamics.num_options) {
    throw std::invalid_argument{"protocol engine: reward vector size mismatch"};
  }
  if (sim_ == nullptr) build(gen);

  const std::uint64_t round = ++steps_;
  board_.post(rewards);
  if (recorder_ != nullptr) {
    // The board mark the invariant checker replays: posted at the round's
    // opening boundary, before any node senses it.  b packs the first 64
    // signal bits; detail carries the true option count.
    std::int64_t bits = 0;
    const std::size_t mask_options = std::min<std::size_t>(rewards.size(), 64);
    for (std::size_t j = 0; j < mask_options; ++j) {
      if (rewards[j] != 0) bits |= std::int64_t{1} << j;
    }
    recorder_->append({sim_->now(), netsim::trace_kind::post, 0, 0,
                       static_cast<std::int32_t>(config_.dynamics.num_options),
                       static_cast<std::int64_t>(round), bits});
  }

  if (config_.protocol.crash_rate > 0.0 || config_.protocol.restart_rate > 0.0) {
    for (netsim::node_id id = 0; id < num_nodes_; ++id) {
      if (sim_->is_alive(id)) {
        if (churn_gen_.next_bernoulli(config_.protocol.crash_rate)) sim_->crash_node(id);
      } else if (churn_gen_.next_bernoulli(config_.protocol.restart_rate)) {
        sim_->restart_node(id);
      }
    }
  }
  if (config_.protocol.lockstep) {
    for (gossip_learner* learner : learners_) learner->latch();
  }

  sim_->run_until(static_cast<double>(round) * config_.protocol.round_interval);

  std::fill(counts_.begin(), counts_.end(), 0);
  alive_ = 0;
  committed_ = 0;
  for (netsim::node_id id = 0; id < num_nodes_; ++id) {
    const bool alive = sim_->is_alive(id);
    const std::int32_t choice = learners_[id]->choice();
    const bool committed_now = alive && choice >= 0;
    if (alive) {
      ++alive_;
      if (choice >= 0) {
        ++counts_[static_cast<std::size_t>(choice)];
        ++committed_;
      }
    }
    if (committed_now && was_committed_[id] == 0) {
      commit_latency_rounds_ +=
          static_cast<double>(round - uncommitted_since_[id]);
      ++commit_events_;
    } else if (!committed_now && was_committed_[id] != 0) {
      uncommitted_since_[id] = round;
    }
    was_committed_[id] = committed_now ? 1 : 0;
  }

  const std::size_t m = config_.dynamics.num_options;
  if (committed_ > 0) {
    for (std::size_t j = 0; j < m; ++j) {
      popularity_[j] =
          static_cast<double>(counts_[j]) / static_cast<double>(committed_);
    }
  } else {
    std::fill(popularity_.begin(), popularity_.end(), 1.0 / static_cast<double>(m));
    ++empty_steps_;
  }
}

core::net_metrics protocol_engine::sample_net() const {
  core::net_metrics metrics;
  if (sim_ != nullptr) {
    const netsim::network_stats& stats = sim_->stats();
    metrics.messages_sent = stats.messages_sent;
    metrics.messages_delivered = stats.messages_delivered;
    metrics.messages_dropped = stats.messages_dropped;
    metrics.timers_fired = stats.timers_fired;
    metrics.bytes_sent = stats.bytes_sent();
  }
  metrics.nodes = num_nodes_;
  metrics.alive = alive_;
  metrics.committed = committed_;
  metrics.commit_latency_rounds = commit_latency_rounds_;
  metrics.commit_events = commit_events_;
  return metrics;
}

core::partition_sample protocol_engine::sample_partition() const {
  core::partition_sample sample;
  if (sim_ == nullptr || !sim_->has_partition_sides()) return sample;
  sample.partitioned = sim_->is_partitioned();
  sample.has_sides = true;
  const std::size_t m = config_.dynamics.num_options;
  std::vector<std::uint64_t> counts_a(m, 0);
  std::vector<std::uint64_t> counts_b(m, 0);
  for (netsim::node_id id = 0; id < num_nodes_; ++id) {
    if (!sim_->is_alive(id)) continue;
    const std::int32_t choice = learners_[id]->choice();
    if (choice < 0) continue;
    if (sim_->on_side_a(id)) {
      ++counts_a[static_cast<std::size_t>(choice)];
      ++sample.side_a_committed;
    } else {
      ++counts_b[static_cast<std::size_t>(choice)];
      ++sample.side_b_committed;
    }
  }
  sample.side_a_popularity.assign(m, 0.0);
  sample.side_b_popularity.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    if (sample.side_a_committed > 0) {
      sample.side_a_popularity[j] = static_cast<double>(counts_a[j]) /
                                    static_cast<double>(sample.side_a_committed);
    }
    if (sample.side_b_committed > 0) {
      sample.side_b_popularity[j] = static_cast<double>(counts_b[j]) /
                                    static_cast<double>(sample.side_b_committed);
    }
  }
  return sample;
}

}  // namespace sgl::protocol
