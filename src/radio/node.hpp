// Per-node protocol interface.
//
// A NodeProtocol is a synchronous state machine driven by the Network: at
// every round the engine first collects transmission decisions from the
// awake nodes (on_transmit), then applies the radio collision rule and
// delivers at most one message per listening node (on_receive). A
// protocol may publish an idle-skipping hint (set_next_active_round) that
// lets the engine leave it out of the transmission phase of rounds in
// which it would stay silent anyway.
//
// Model contract (matches the paper's Section 1 model):
//  * a node that transmits in a round hears nothing that round;
//  * a node receives iff exactly one of its neighbors transmits;
//  * there is no collision detection — a node cannot distinguish silence
//    from collision, and the engine never exposes that difference;
//  * sleeping nodes never transmit but do receive; the first successful
//    reception wakes them (on_wake fires before on_receive).
#pragma once

#include <cstdint>
#include <optional>

#include "radio/message.hpp"
#include "radio/payload_arena.hpp"

namespace radiocast::radio {

using Round = std::uint64_t;

class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Payload-buffer recycling pool, wired by Network::set_protocol (null
  /// for protocols driven outside a Network). Purely an allocation hint:
  /// message bytes are identical with or without it, so protocols use it
  /// opportunistically — `arena ? arena->acquire_copy(p) : p`.
  void set_payload_arena(PayloadArena* arena) { payload_arena_ = arena; }
  PayloadArena* payload_arena() const { return payload_arena_; }

  /// Fired when the node wakes: either at round 0 (initially awake nodes)
  /// or on first reception. Guaranteed to fire before any other callback.
  virtual void on_wake(Round /*round*/) {}

  /// Transmission decision for the current round. Called at most once per
  /// round for every awake node: every round unless the node published an
  /// idle-skipping hint (see set_next_active_round), in which case the
  /// engine skips the call in the rounds before the hint. Rounds
  /// therefore advance by one or more between two calls. Returning a
  /// message transmits it to all neighbors (subject to collisions at each
  /// receiver).
  virtual std::optional<MessageBody> on_transmit(Round round) = 0;

  /// Delivery of a successfully received message (exactly one transmitting
  /// neighbor, and this node did not transmit this round).
  virtual void on_receive(Round round, const Message& msg) = 0;

  /// Fired instead of on_receive when >= 2 neighbors transmitted AND the
  /// network was built with collision detection enabled (an ablation of
  /// the paper's model, which explicitly has no such feedback — see
  /// Network::enable_collision_detection). Never fired in the default
  /// model.
  virtual void on_collision(Round /*round*/) {}

  /// Optional completion signal used by runners to stop the simulation
  /// early once all nodes report done. Must be monotone (once true, stays
  /// true).
  virtual bool done() const { return false; }

  /// Idle-skipping hint, published from inside on_transmit: the earliest
  /// round in which this node's on_transmit may do anything. The promise
  /// is that in every later round before `round`, provided the node
  /// receives nothing (no on_receive, no on_collision), on_transmit would
  /// return nullopt, draw no randomness, fire no observer or audit
  /// callback, and leave done() unchanged — so skipping those calls is
  /// unobservable. Calling earlier
  /// than the hint is always valid, and the hint is advisory: ignoring it
  /// and calling every awake node every round gives the same run (see
  /// tests/core/hint_oracle_test.cpp).
  ///
  /// The hint covers only the on_transmit call that set it. The engine
  /// consumes it after the call (take_next_active_round), drops it on any
  /// delivery, collision callback, wake or set_protocol, and a call that
  /// publishes nothing means "call me again next round".
  void set_next_active_round(Round round) { next_active_round_ = round; }

  /// Engine side: returns the hint published by the last on_transmit (0
  /// when none) and clears it.
  Round take_next_active_round() {
    const Round round = next_active_round_;
    next_active_round_ = 0;
    return round;
  }

  /// Hint value meaning "idle until something is received".
  static constexpr Round kIdleUntilReception = ~Round{0};

  /// A sub-state machine's hint, relative to the round `start` its clock
  /// counts from, as an absolute round (idle stays idle).
  static constexpr Round absolute_hint(Round start, Round rel_hint) {
    if (rel_hint == kIdleUntilReception) return rel_hint;
    return start + rel_hint;
  }

 private:
  PayloadArena* payload_arena_ = nullptr;
  Round next_active_round_ = 0;
};

}  // namespace radiocast::radio
