#include "protocols/leader_election.hpp"

#include "common/math_util.hpp"

namespace radiocast::protocols {

LeaderElectionState::LeaderElectionState(const Config& cfg, radio::NodeId self,
                                         bool participant, Rng* rng)
    : cfg_(cfg),
      self_(self),
      participant_(participant),
      rng_(rng),
      alarm_(cfg.know.log_delta(), rng) {
  RC_ASSERT(rng != nullptr);
  RC_ASSERT(cfg.probe_epochs >= 1);
  const std::uint64_t space = next_pow2(cfg_.know.n_hat);
  probes_ = std::max<std::uint32_t>(1, ceil_log2(space));
  probe_rounds_ = static_cast<std::uint64_t>(cfg.probe_epochs) * cfg_.know.log_delta();
  total_rounds_ = probes_ * probe_rounds_;
  lo_ = 0;
  hi_ = space;
  current_probe_ = 0;
  alarm_.reset(current_signal());
}

bool LeaderElectionState::current_signal() const {
  // Probe question: "is there a participant with id >= mid?"
  const std::uint64_t mid = (lo_ + hi_) / 2;
  return participant_ && self_ >= mid;
}

void LeaderElectionState::advance(std::uint64_t rel_round) {
  // Fold in results of all probe windows that ended at or before rel_round.
  while (!finished_) {
    const std::uint64_t window_end =
        static_cast<std::uint64_t>(current_probe_ + 1) * probe_rounds_;
    if (rel_round < window_end) break;
    const std::uint64_t mid = (lo_ + hi_) / 2;
    if (alarm_.positive()) {
      lo_ = mid;  // someone (possibly this node) has id >= mid
    } else {
      hi_ = mid;
    }
    ++current_probe_;
    if (current_probe_ >= probes_) {
      finished_ = true;
      break;
    }
    alarm_.reset(current_signal());
  }
}

std::optional<radio::MessageBody> LeaderElectionState::on_transmit(
    std::uint64_t rel_round) {
  advance(rel_round);
  if (finished_) return std::nullopt;
  const std::uint64_t window_start =
      static_cast<std::uint64_t>(current_probe_) * probe_rounds_;
  return alarm_.on_transmit(rel_round - window_start);
}

void LeaderElectionState::on_receive(std::uint64_t rel_round,
                                     const radio::Message& msg) {
  advance(rel_round);
  if (finished_) return;
  alarm_.on_receive(msg.body);
}

std::uint64_t LeaderElectionState::next_active_round(std::uint64_t rel_round) const {
  if (finished_) return total_rounds_;
  if (alarm_.flooding()) return rel_round + 1;
  return static_cast<std::uint64_t>(current_probe_ + 1) * probe_rounds_;
}

void LeaderElectionState::finalize() { advance(total_rounds_); }

}  // namespace radiocast::protocols
