// Stage 1 — leader election among packet holders (the paper's Fact 1).
//
// Deterministic binary search over the id space, with each probe ("does any
// participant have id >= mid?") answered by an emulated
// collision-detection round: a multi-source one-bit alarm window (BGI
// flood). After ⌈log n̂⌉ probes of Θ((D̂+log n̂)·logΔ̂) rounds each, every
// participant knows the maximum participant id — total
// O((D+log n)·log n·logΔ) rounds, w.h.p., matching Fact 1.
//
// Only participants (nodes holding >= 1 packet, awake from round 0) track
// the search interval; nodes woken mid-election just relay probe floods.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "protocols/alarm.hpp"
#include "radio/knowledge.hpp"
#include "radio/node.hpp"

namespace radiocast::protocols {

/// Embeddable election state driven by rounds relative to stage start.
class LeaderElectionState {
 public:
  struct Config {
    radio::Knowledge know;
    /// Decay epochs per probe window.
    std::uint32_t probe_epochs = 1;
  };

  LeaderElectionState(const Config& cfg, radio::NodeId self, bool participant,
                      Rng* rng);

  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round);
  void on_receive(std::uint64_t rel_round, const radio::Message& msg);

  /// Idle-skipping hint, valid right after on_transmit(rel_round): the
  /// earliest relative round at which on_transmit may act again if nothing
  /// is received meanwhile (see radio::NodeProtocol::set_next_active_round).
  /// A node that neither armed nor heard the current probe is idle until
  /// the probe window ends.
  std::uint64_t next_active_round(std::uint64_t rel_round) const;

  /// Total rounds of the stage.
  std::uint64_t total_rounds() const { return total_rounds_; }

  /// Valid once rel_round has advanced past total_rounds() (the caller
  /// must push a final advance, which on_transmit does automatically on
  /// the first post-stage call) — or query via finalize().
  bool finished() const { return finished_; }

  /// Forces the final interval update (idempotent); used by owners who
  /// switch stages exactly at the boundary round.
  void finalize();

  /// The elected leader id (max participant id) as tracked by this node.
  /// Only meaningful for nodes awake through the whole stage.
  radio::NodeId leader_id() const { return static_cast<radio::NodeId>(lo_); }

  /// True iff this node is a participant and won the election.
  bool is_leader() const { return participant_ && finished_ && leader_id() == self_; }

  std::uint32_t probes() const { return probes_; }

 private:
  void advance(std::uint64_t rel_round);
  bool current_signal() const;

  Config cfg_;
  radio::NodeId self_;
  bool participant_;
  Rng* rng_;
  AlarmWindow alarm_;
  std::uint32_t probes_ = 0;          // number of probes B
  std::uint64_t probe_rounds_ = 0;    // rounds per probe window
  std::uint64_t total_rounds_ = 0;
  std::uint32_t current_probe_ = 0;   // index of the armed probe window
  std::uint64_t lo_ = 0;              // search invariant: max id in [lo, hi)
  std::uint64_t hi_ = 0;
  bool finished_ = false;
};

/// Standalone protocol wrapper for tests/benches (stage starts at round 0).
class LeaderElectionNode final : public radio::NodeProtocol {
 public:
  LeaderElectionNode(const LeaderElectionState::Config& cfg, radio::NodeId self,
                     bool participant, Rng rng)
      : rng_(rng), state_(cfg, self, participant, &rng_) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    if (round >= state_.total_rounds()) {
      state_.finalize();
      return std::nullopt;
    }
    return state_.on_transmit(round);
  }

  void on_receive(radio::Round round, const radio::Message& msg) override {
    if (round < state_.total_rounds()) state_.on_receive(round, msg);
  }

  bool done() const override { return state_.finished(); }

  LeaderElectionState& state() { return state_; }
  const LeaderElectionState& state() const { return state_; }

 private:
  Rng rng_;
  LeaderElectionState state_;
};

}  // namespace radiocast::protocols
