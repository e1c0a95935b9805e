// Dynamic multiple-message broadcast — the extension the paper's
// conclusion poses as an open direction: "in a more practical scenario,
// packets appear at nodes dynamically; a challenging direction would be to
// adapt 'static' solutions ... to such a more dynamic setting".
//
// This module adapts the static pipeline in the most direct way that
// preserves its guarantees:
//
//   Setup (once):  Stage 1 leader election (all nodes participate — in the
//                  dynamic setting every node is on from round 0) and
//                  Stage 2 BFS construction, exactly as in the paper.
//   Epoch e >= 0:  a collection sub-stage (the paper's Stage 3, over the
//                  packets that arrived before the epoch and are not yet
//                  delivered) followed by a dissemination window (the
//                  paper's Stage 4) sized for `batch_capacity` packets.
//
// Synchronization carries over unchanged: collection length is
// alarm-synchronized, and the dissemination window has a fixed,
// capacity-derived length so every node can compute the next epoch's start
// locally. If more than `batch_capacity` packets were collected, the root
// defers the excess to the next epoch's window (they are already acked, so
// sources do not retransmit). Packets arriving mid-epoch simply wait for
// the next collection sub-stage.
//
// The amortized cost per packet remains O(logΔ) whenever the arrival rate
// keeps epochs near capacity; the per-packet *latency* is bounded by two
// epoch lengths (one to be collected, one to be disseminated) — both
// measured by run_dynamic_broadcast.
//
// Idle skipping: every transmit decision publishes the current sub-state
// machine's next-active-round hint (radio::NodeProtocol::
// set_next_active_round) — leader election's capped at the BFS start,
// BFS construction's at the end of setup, and dissemination's at the end
// of the window — so the engine skips the node's silent rounds
// without ever skipping a phase switch. Collection's own hint already
// lands on its phase boundaries. inject() and the stream layer's offer()
// cannot invalidate a published hint: pending packets are read only at
// collection re-entry (take_epoch_packets), and that round is a window end
// or the end of setup, which no hint skips past.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/collection.hpp"
#include "core/dissemination.hpp"
#include "core/params.hpp"
#include "protocols/bfs_construction.hpp"
#include "protocols/leader_election.hpp"
#include "radio/network.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

struct DynamicConfig {
  ResolvedConfig rc;
  /// Maximum packets disseminated per epoch; the dissemination window is
  /// sized for exactly this many.
  std::uint32_t batch_capacity = 0;  ///< 0 => initial estimate of rc

  std::uint32_t resolved_capacity() const {
    return batch_capacity != 0 ? batch_capacity
                               : static_cast<std::uint32_t>(rc.initial_estimate);
  }
  /// Rounds of one dissemination window.
  std::uint64_t dissemination_window() const;
};

class DynamicBroadcastNode : public radio::NodeProtocol {
 public:
  DynamicBroadcastNode(const DynamicConfig& cfg, radio::NodeId self, Rng rng);

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override;
  void on_receive(radio::Round round, const radio::Message& msg) override;

  /// Application-level packet arrival (out-of-band, as in any real stack:
  /// the application hands the packet to the protocol). The packet joins
  /// the next collection sub-stage.
  void inject(radio::Packet packet);

  /// All packets this node has delivered so far (own + decoded), keyed by id.
  const std::unordered_map<radio::PacketId, radio::Packet>& delivered() const {
    return delivered_;
  }

  bool is_leader() const { return leader_.is_leader(); }
  std::uint32_t epochs_completed() const { return epoch_; }

 protected:
  // --- Epoch re-entry hooks ---------------------------------------------
  // The open-system stream layer (src/stream/) subclasses this node to put
  // a bounded, policy-governed source buffer between the application and
  // the epoch pipeline. The default implementations reproduce the closed
  // dynamic-mode behavior exactly, so the base class is unchanged by the
  // hooks' existence.

  /// Called at every collection re-entry (epoch start): returns the fresh
  /// application packets joining this epoch's collection sub-stage, after
  /// the carry-over of the previous epoch's unacked packets. The default
  /// drains the unbounded pending_ list fed by inject().
  virtual std::vector<radio::Packet> take_epoch_packets();

  /// Fired exactly once per packet the first time this node holds it —
  /// own injection, root harvest at the collect→disseminate boundary, or
  /// a Stage-4 decode at the epoch close. Default: no-op.
  virtual void on_packet_delivered(const radio::Packet& packet);

  /// Records `packet` as held by this node and fires on_packet_delivered
  /// on first sight. Subclasses use this to seed their own admissions.
  void deliver(radio::Packet packet);

 private:
  enum class Phase { kSetup, kCollect, kDisseminate };
  void advance(radio::Round round);
  void start_collect(radio::Round round);
  void start_disseminate(radio::Round round);

  DynamicConfig cfg_;
  radio::NodeId self_;
  Rng rng_;

  protocols::LeaderElectionState leader_;
  std::optional<protocols::BfsBuildState> bfs_;
  radio::Round setup_end_ = 0;
  radio::Round bfs_start_ = 0;
  /// cfg_.dissemination_window(), computed once.
  std::uint64_t window_ = 0;

  Phase phase_ = Phase::kSetup;
  std::uint32_t epoch_ = 0;
  radio::Round phase_start_ = 0;

  std::optional<CollectionState> collect_;
  std::optional<DisseminationState> dissem_;

  /// Packets that arrived but have not yet entered a collection sub-stage.
  std::vector<radio::Packet> pending_;
  /// Root only: collected packets awaiting a dissemination slot.
  std::deque<radio::Packet> root_queue_;
  /// Root only: ids already disseminated (avoid re-sending re-collected
  /// duplicates).
  std::unordered_map<radio::PacketId, bool> root_sent_;

  std::unordered_map<radio::PacketId, radio::Packet> delivered_;
};

/// One packet arrival event for the harness.
struct Arrival {
  radio::Round round = 0;
  radio::NodeId node = 0;
  radio::Packet packet;
};

struct DynamicRunResult {
  std::uint32_t n = 0;
  std::uint32_t k = 0;           ///< total packets injected
  std::uint64_t horizon = 0;     ///< rounds simulated
  std::uint32_t delivered_everywhere = 0;  ///< packets every node holds
  /// Latency (rounds from arrival to full delivery) stats over delivered
  /// packets.
  double latency_mean = 0;
  double latency_max = 0;
  double amortized_rounds_per_packet = 0;
  radio::TraceCounters counters;
};

/// Simulates a Poisson-like arrival stream (given explicitly as `arrivals`,
/// sorted by round) over `horizon` rounds and reports delivery/latency.
DynamicRunResult run_dynamic_broadcast(const graph::Graph& g,
                                       const DynamicConfig& cfg,
                                       std::vector<Arrival> arrivals,
                                       std::uint64_t horizon, std::uint64_t seed);

/// Convenience: builds a uniform random arrival stream of `k` packets over
/// [0, spread_rounds).
std::vector<Arrival> make_arrivals(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t spread_rounds,
                                   std::uint32_t payload_bytes, Rng& rng);

}  // namespace radiocast::core
