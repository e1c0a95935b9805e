// NetworkAuditHook — the engine's one event tap.
//
// Every sink added via Network::add_tap sees, every round, the raw
// transmission set (after the engine collected all on_transmit decisions)
// followed by one event per reception outcome the engine produced. Taps
// fan out in attach order. A tap is strictly an observer: it owns no RNG
// draws and cannot alter the round, so a tapped run is bit-identical to an
// untapped one. With no tap attached each event site costs one emptiness
// check.
//
// Sinks: audit::ChannelAuditor (and audit::ModelAuditor, which owns one)
// recompute every outcome independently from the transmission set and the
// topology; obs::PacketTracer follows packets; obs::RoundFeed turns the
// rounds into obs::RunObserver::on_round calls. Every method has an empty
// default body, so a sink overrides only what it reads. The interface
// lives in the radio layer so the engine never depends on its sinks.
#pragma once

#include <cstdint>
#include <vector>

#include "radio/message.hpp"
#include "radio/node.hpp"

namespace radiocast::radio {

class NetworkAuditHook {
 public:
  virtual ~NetworkAuditHook() = default;

  /// Fired once, inside the first step() before any protocol callback,
  /// with the ids flagged by wake_at_start (ascending order not
  /// guaranteed). All other nodes are asleep at this point.
  virtual void on_sim_start(const std::vector<NodeId>& /*initially_awake*/) {}

  /// The complete transmission set of round `round`, in ascending
  /// transmitter-id order, exactly as the engine will apply the collision
  /// rule to it. The vector is owned by the engine and valid until the
  /// end of the current step() only.
  virtual void on_transmissions(Round /*round*/, const std::vector<Message>& /*txs*/) {}

  /// Node `receiver` got `msg` delivered (`tx_index` indexes into this
  /// round's transmission set). Fired before the receiver's wake /
  /// on_receive callbacks.
  virtual void on_deliver(Round /*round*/, NodeId /*receiver*/,
                          std::uint32_t /*tx_index*/, const Message& /*msg*/) {}

  /// Node `receiver` was reached by `reached` >= 2 transmissions and lost
  /// the slot to collision. `cd_callback` reports whether the engine is
  /// about to fire on_collision (true only under the collision-detection
  /// ablation).
  virtual void on_collision_slot(Round /*round*/, NodeId /*receiver*/,
                                 std::uint32_t /*reached*/, bool /*cd_callback*/) {}

  /// Node `receiver` was reached while itself transmitting (half-duplex
  /// deafness; `reached` >= 1).
  virtual void on_deaf_slot(Round /*round*/, NodeId /*receiver*/,
                            std::uint32_t /*reached*/) {}

  /// A successful slot at `receiver` was erased by the fault model
  /// (`tx_index` is the transmission that would have been delivered).
  virtual void on_fault_drop(Round /*round*/, NodeId /*receiver*/,
                             std::uint32_t /*tx_index*/) {}

  /// Node `node` transitions from asleep to awake this round (first
  /// reception, or first collision under the CD ablation). Initial wakes
  /// are reported via on_sim_start, not here.
  virtual void on_node_wake(Round /*round*/, NodeId /*node*/) {}

  /// All outcomes of round `round` have been reported and the round's
  /// counters are flushed.
  virtual void on_round_end(Round /*round*/) {}
};

}  // namespace radiocast::radio
