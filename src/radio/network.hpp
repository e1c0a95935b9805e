// The synchronous radio-network simulation engine.
//
// Implements exactly the model of the paper: in each round every awake node
// may transmit one message; a node receives a message iff exactly one of
// its neighbors transmitted and the node itself did not transmit. There is
// no collision detection: nodes observe only successful receptions.
//
// The engine owns one NodeProtocol per vertex of the topology graph.
// Protocols for sleeping nodes exist from the start but get no callbacks
// until woken (round 0 for initially-awake nodes, or on first reception).
// Awake nodes are asked for a transmission decision every round, except
// that the engine skips a node's on_transmit in the rounds before the
// idle-skipping hint it published (NodeProtocol::set_next_active_round).
//
// Everything that watches a run — the model auditors, the packet tracer,
// the flight recorder's round feed — is a sink on one event tap
// (add_tap, radio/audit_hook.hpp); the engine knows no sink type.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "radio/audit_hook.hpp"
#include "radio/node.hpp"
#include "radio/payload_arena.hpp"
#include "radio/trace.hpp"

namespace radiocast::radio {

/// Optional fault injection, beyond the paper's model: models external
/// interference (jamming, thermal noise) as independent per-reception
/// erasures. A successful slot (exactly one transmitting neighbor, and a
/// receiver that is not itself transmitting) is erased with
/// `reception_loss_probability`; the receiver observes silence, exactly as
/// it would for a collision — there is still no detection.
///
/// RNG stream discipline: the fault RNG is consumed by *successful slots
/// only*, one draw per successful slot, in receiver-touch order. Collision
/// and deaf slots never consume a draw, and with
/// `reception_loss_probability == 0` no draw ever happens. The stream is
/// therefore a pure function of the successful-slot sequence — two runs
/// whose protocols produce the same transmissions up to some round consume
/// draws at identical positions regardless of the loss rate, which keeps
/// traces comparable across loss-rate sweeps. Pinned by
/// Faults.ErasureDrawsConsumeRngOnlyOnSuccessfulSlots.
struct FaultModel {
  double reception_loss_probability = 0.0;
  std::uint64_t seed = 0x5eedf001u;
};

/// Test-only engine mutations. Each flag seeds one deliberate violation of
/// the radio model so the audit tests can prove the ModelAuditor catches
/// it (see tests/audit/mutation_test.cpp). All flags are false in every
/// production configuration; the flags cost one predictable branch on the
/// slots they guard and nothing anywhere else.
struct EngineMutations {
  /// Deliver the first reaching message even when >= 2 reached (breaks
  /// "collision means silence").
  bool deliver_on_collision = false;
  /// Deliver to a receiver that is itself transmitting (breaks the
  /// half-duplex rule).
  bool deliver_while_transmitting = false;
  /// Deliver to sleeping nodes without waking them (breaks wake-on-first-
  /// reception).
  bool skip_wake_on_receive = false;
};

class Network {
 public:
  /// The graph must be finalized and outlive the network.
  explicit Network(const graph::Graph& graph);

  NodeId num_nodes() const { return graph_.num_nodes(); }
  const graph::Graph& topology() const { return graph_; }

  /// Installs the protocol for node `id`. Must be called for every node
  /// before the first step; calling it after the simulation started would
  /// silently desynchronize done-tracking and protocol state, so it fails
  /// loudly instead.
  void set_protocol(NodeId id, std::unique_ptr<NodeProtocol> protocol);

  /// Non-owning overload: the protocol lives in external storage
  /// (typically a ProtocolSlab, see radio/protocol_slab.hpp) that must
  /// outlive the network. Same timing rules as the owning overload.
  void set_protocol(NodeId id, NodeProtocol* protocol);

  NodeProtocol& protocol(NodeId id);
  const NodeProtocol& protocol(NodeId id) const;

  /// The run's payload-recycling pool: spent transmission buffers are
  /// harvested back into it every round, and set_protocol wires it into
  /// each protocol (see NodeProtocol::payload_arena). Heap-held so its
  /// address — cached by every protocol — survives moving the Network.
  PayloadArena& payload_arena() { return *payload_arena_; }

  /// Marks a node as awake from the start (on_wake fires at the first
  /// step, with the then-current round).
  void wake_at_start(NodeId id);

  /// Installs a fault model (default: no faults). Must be set before the
  /// first step.
  void set_fault_model(const FaultModel& model);

  /// Model ablation: when enabled, a listening node whose neighborhood
  /// carried >= 2 simultaneous transmissions gets an on_collision callback
  /// (it can now distinguish collision from silence). The paper's model —
  /// and the library default — is OFF; the flag exists to quantify what
  /// the collision-detection *emulation* of Stage 1 costs relative to
  /// hardware CD. Must be set before the first step.
  void enable_collision_detection(bool on);
  bool collision_detection() const { return collision_detection_; }

  bool is_awake(NodeId id) const { return awake_[id] != 0; }
  std::size_t num_awake() const { return awake_list_.size(); }

  Round current_round() const { return round_; }

  /// Executes one synchronous round.
  void step();

  /// Runs until all protocols report done() or `max_rounds` elapse.
  /// Returns true iff all nodes were done at exit.
  bool run_until_done(Round max_rounds);

  /// Runs until `predicate()` is true or `max_rounds` elapse; the
  /// predicate is evaluated after each round. Returns true iff the
  /// predicate fired.
  bool run_until(Round max_rounds, const std::function<bool()>& predicate);

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  /// Adds a sink to the engine's event tap (see radio/audit_hook.hpp);
  /// every event fans out to the taps in attach order. Taps are read-only,
  /// so a tapped run is bit-identical to an untapped one. Must be called
  /// before the first step, so every tap sees the initial wake set; a tap
  /// must outlive the network.
  void add_tap(NetworkAuditHook* tap);

  /// Installs test-only engine mutations (see EngineMutations). Must be
  /// called before the first step.
  void set_test_mutations(const EngineMutations& mutations);

 private:
  void wake(NodeId id);
  /// One round: transmit decisions, reach counting, deliveries.
  void round_scalar();
  /// Advances the completion counter past newly-done protocols; returns
  /// true iff all protocols are done (see done_count_ below).
  bool advance_done_count();

  const graph::Graph& graph_;
  /// Non-owning protocol table — the round loop indexes this flat array.
  /// Slab-placed protocols (pointer overload of set_protocol) are owned
  /// by their slab; unique_ptr-installed ones are parked in owned_ purely
  /// for lifetime.
  std::vector<NodeProtocol*> protocols_;
  std::vector<std::unique_ptr<NodeProtocol>> owned_;
  /// Byte-vector (not vector<bool>) — this is the hottest per-round
  /// branch and byte loads beat bit-twiddling there, matching the
  /// transmitting_ idiom below.
  std::vector<std::uint8_t> awake_;
  /// Dense list of awake node ids. Phase 1 iterates this instead of
  /// scanning all n nodes, so a round costs O(awake + touched). Kept in
  /// ascending id order (re-sorted lazily after wake-ups) so protocol
  /// callbacks fire in exactly the order of the historical full scan.
  std::vector<NodeId> awake_list_;
  bool awake_list_dirty_ = false;
  /// Per-node idle-skipping hint (see NodeProtocol::set_next_active_round):
  /// Phase 1 calls on_transmit only once round_ reaches it. It
  /// is refreshed from the protocol after every on_transmit and zeroed on
  /// every delivery, collision callback, wake and set_protocol, so a node
  /// that hears anything is asked again the next round.
  std::vector<Round> next_active_;
  /// Nodes flagged awake before the first step; on_wake fires lazily.
  std::vector<NodeId> pending_initial_wakes_;
  bool started_ = false;
  Round round_ = 0;
  Trace trace_;

  /// Protocol-completion counter for run_until_done. Nodes [0,
  /// done_count_) are known done; because done() is monotone (see
  /// NodeProtocol::done) they never need re-checking, so the counter only
  /// ever advances — once on each completion transition it observes. The
  /// per-round check is therefore O(1 + #transitions) virtual calls,
  /// replacing the historical all-n sweep (each node's done()==true is
  /// evaluated exactly once over the whole run). Reset on every
  /// run_until_done call so external protocol mutation between runs stays
  /// visible.
  NodeId done_count_ = 0;

  FaultModel fault_model_;
  Rng fault_rng_;
  bool collision_detection_ = false;
  EngineMutations mutations_;

  /// The event tap's sinks, in attach order (see add_tap).
  std::vector<NetworkAuditHook*> taps_;

  // Scratch buffers reused across rounds to avoid per-round allocation
  // (all sized/reserved in the constructor so the first round allocates
  // like every other round). Transmissions are stored as ready-to-deliver
  // Messages: the body is moved in once at transmit time and every
  // receiver gets a const reference, so a gf2::Payload is never copied
  // inside the engine no matter how many neighbors hear it. When a
  // round's transmissions are retired their payload buffers are recycled
  // into payload_arena_ for the next round's on_transmit calls.
  std::vector<Message> transmissions_;
  /// Per-transmission wire size and kind index, computed once in Phase 1
  /// (parallel to transmissions_). Deliveries are the hot consumers —
  /// several receivers per transmission — and read these instead of
  /// re-visiting the message variant per receiver.
  struct TxMeta {
    std::uint32_t size_bits;
    std::uint32_t kind;
  };
  std::vector<TxMeta> tx_meta_;
  /// Sender ids only (parallel to transmissions_): the Phase-2 reach walk
  /// streams these 4-byte entries instead of striding across Messages.
  std::vector<NodeId> tx_from_;
  std::vector<std::uint8_t> transmitting_;
  /// Per-node reach bookkeeping, merged into one 8-byte record so the
  /// random-access walks of Phases 2 and 3 touch one cache line per node
  /// instead of two parallel arrays. `source` (an index into
  /// transmissions_) is the first transmission that reached the node this
  /// round; it is only meaningful while `count > 0`.
  struct ReachSlot {
    std::uint32_t count;
    std::uint32_t source;
  };
  std::vector<ReachSlot> reach_;
  std::vector<NodeId> touched_;
  std::unique_ptr<PayloadArena> payload_arena_;

};

}  // namespace radiocast::radio
