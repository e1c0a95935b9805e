// Stage 2 — distributed BFS-tree construction (the paper's Theorem 1,
// following Bar-Yehuda, Goldreich, Itai).
//
// The stage runs D̂ (+ slack) phases of Θ(log n̂) Decay epochs. In phase d
// exactly the nodes that adopted distance d transmit construction messages
// (id, d); a node that receives a construction message for the first time
// adopts the transmitter as its BFS parent and distance d+1. With the
// default epoch count each frontier informs all its neighbors w.h.p., so
// the adopted distances equal true BFS distances and the parent pointers
// form a tree rooted at the leader.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "protocols/decay.hpp"
#include "radio/knowledge.hpp"
#include "radio/node.hpp"

namespace radiocast::protocols {

class BfsBuildState {
 public:
  struct Config {
    radio::Knowledge know;
    std::uint32_t epochs_per_phase = 1;
    std::uint32_t extra_phases = 2;
  };

  BfsBuildState(const Config& cfg, radio::NodeId self, bool is_root, Rng* rng);

  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round);
  void on_receive(std::uint64_t rel_round, const radio::Message& msg);

  /// Idle-skipping hint, valid right after on_transmit(rel_round): the
  /// earliest relative round at which on_transmit may act again if nothing
  /// is received meanwhile (see radio::NodeProtocol::set_next_active_round).
  /// A node acts only during phase `distance()`; without a distance it is
  /// idle until the stage ends.
  std::uint64_t next_active_round(std::uint64_t rel_round) const;

  std::uint64_t total_rounds() const { return total_rounds_; }

  bool has_distance() const { return dist_.has_value(); }
  /// BFS distance from the root (valid when has_distance()).
  std::uint32_t distance() const { return *dist_; }
  /// BFS parent (valid when has_distance(); the root is its own parent).
  radio::NodeId parent() const { return parent_; }

 private:
  Config cfg_;
  radio::NodeId self_;
  Rng* rng_;
  Decay decay_;
  std::uint64_t phase_rounds_ = 0;
  std::uint32_t phases_ = 0;
  std::uint64_t total_rounds_ = 0;
  std::optional<std::uint32_t> dist_;
  radio::NodeId parent_;
};

/// Standalone wrapper (stage starts at round 0); `done` means "joined the
/// tree", so run_until_done stops as soon as every node has a layer.
class BfsConstructionNode final : public radio::NodeProtocol {
 public:
  BfsConstructionNode(const BfsBuildState::Config& cfg, radio::NodeId self,
                      bool is_root, Rng rng)
      : rng_(rng), state_(cfg, self, is_root, &rng_) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    if (round >= state_.total_rounds()) return std::nullopt;
    return state_.on_transmit(round);
  }

  void on_receive(radio::Round round, const radio::Message& msg) override {
    if (round < state_.total_rounds()) state_.on_receive(round, msg);
  }

  bool done() const override { return state_.has_distance(); }

  BfsBuildState& state() { return state_; }
  const BfsBuildState& state() const { return state_; }

 private:
  Rng rng_;
  BfsBuildState state_;
};

}  // namespace radiocast::protocols
