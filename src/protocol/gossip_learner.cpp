#include "protocol/gossip_learner.h"

#include <stdexcept>

namespace sgl::protocol {

// --- gossip_params --------------------------------------------------------------

void gossip_params::validate() const {
  dynamics.validate();
  if (!(round_interval > 0.0)) {
    throw std::invalid_argument{"gossip_params: round interval must be > 0"};
  }
}

// --- gossip_learner --------------------------------------------------------------

gossip_learner::gossip_learner(const gossip_params& params, const posted_signals* signals)
    : params_{params}, signals_{signals} {
  params_.validate();
  if (signals_ == nullptr) throw std::invalid_argument{"gossip_learner: null signal source"};
  if (signals_->num_options() != params_.dynamics.num_options) {
    throw std::invalid_argument{"gossip_learner: signal/model option-count mismatch"};
  }
}

std::uint64_t gossip_learner::current_round(const netsim::context& ctx) const noexcept {
  return static_cast<std::uint64_t>(ctx.now() / params_.round_interval);
}

void gossip_learner::on_start(netsim::context& ctx) {
  choice_ = -1;
  latched_choice_ = -1;
  // Random phase so wakeups are spread across the round, then periodic.
  const double phase = (0.05 + 0.9 * ctx.gen().next_double()) * params_.round_interval;
  ctx.set_timer(phase, k_round_timer);
}

void gossip_learner::on_timer(netsim::context& ctx, std::int32_t timer_id) {
  if (timer_id != k_round_timer) return;
  ctx.set_timer(params_.round_interval, k_round_timer);

  const std::size_t m = params_.dynamics.num_options;
  if (ctx.gen().next_bernoulli(params_.dynamics.mu) || ctx.num_neighbors() == 0) {
    // Exploration (and the only move available to isolated nodes).
    consider(ctx, static_cast<std::size_t>(ctx.gen().next_below(m)));
    return;
  }
  retries_left_ = params_.max_retries;
  send_sample_request(ctx);
}

void gossip_learner::send_sample_request(netsim::context& ctx) {
  const netsim::node_id target = ctx.neighbor(ctx.gen().next_below(ctx.num_neighbors()));
  netsim::message req;
  req.kind = k_sample_request;
  ctx.send(target, req);
}

void gossip_learner::on_message(netsim::context& ctx, const netsim::message& msg) {
  switch (msg.kind) {
    case k_sample_request: {
      netsim::message reply;
      reply.kind = k_sample_reply;
      reply.a = params_.lockstep ? latched_choice_ : choice_;
      ctx.send(msg.src, reply);
      break;
    }
    case k_sample_reply: {
      const std::size_t m = params_.dynamics.num_options;
      if (msg.a < 0) {
        // The sampled neighbour was uncommitted: popularity is defined over
        // adopters, so ask someone else (bounded), then fall back.
        if (retries_left_ > 0 && ctx.num_neighbors() != 0) {
          --retries_left_;
          send_sample_request(ctx);
        } else {
          consider(ctx, static_cast<std::size_t>(ctx.gen().next_below(m)));
        }
        break;
      }
      const std::size_t option = static_cast<std::size_t>(msg.a);
      if (option >= m) return;  // malformed — drop
      consider(ctx, option);
      break;
    }
    default:
      break;  // unknown kind — drop
  }
}

void gossip_learner::consider(netsim::context& ctx, std::size_t option) {
  const std::uint8_t signal = signals_->signal(option);
  const double adopt_p =
      signal != 0 ? params_.dynamics.beta : params_.dynamics.resolved_alpha();
  if (ctx.gen().next_bernoulli(adopt_p)) {
    const bool was_uncommitted = choice_ < 0;
    choice_ = static_cast<std::int32_t>(option);
    // Trace marks for the offline invariant checker: every adoption, plus
    // a commit mark on the uncommitted -> committed edge.  Free when no
    // recorder is attached; never touches the RNG.
    const auto round = static_cast<std::int64_t>(current_round(ctx));
    const auto opt = static_cast<std::int64_t>(option);
    if (was_uncommitted) ctx.record(netsim::trace_kind::commit, 0, opt, round);
    ctx.record(netsim::trace_kind::adopt, 0, opt, round);
  } else if (!params_.sticky) {
    choice_ = -1;
  }
}

}  // namespace sgl::protocol
