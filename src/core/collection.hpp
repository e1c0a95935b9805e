// Stage 3 — packet collection at the root (the paper's Section 2.3).
//
// The stage is a sequence of phases; each phase is a grabbing epoch (the
// GRAB(x) cascade of OSPG/MSPG windows) followed by an alarming epoch (a
// one-bit BGI flood by every node still holding an unacknowledged packet).
// The estimate x of the unknown packet count k starts at (D̂+log n̂)·log n̂
// and doubles after every phase whose alarm was positive; the stage ends
// with the first alarm-free phase, at which point the root holds all
// packets w.h.p. (Lemmas 4 and 5).
//
// Within an OSPG(y) window:
//  * every non-root node draws, for each of its unacknowledged packets, a
//    uniform start slot in [1, 6y] (MSPG: `copies` slots) and unicasts the
//    packet towards the root along BFS parent pointers, one hop per round;
//  * relays forward a packet exactly one round after receiving it; there
//    is no retransmission — collided copies are simply lost;
//  * after the up window, the root acknowledges every packet received in
//    this window, spacing acknowledgments 3 rounds apart; relays route
//    each acknowledgment to the child that delivered the packet.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"
#include "protocols/alarm.hpp"
#include "radio/knowledge.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

class ProtocolAuditSink;

class CollectionState {
 public:
  struct Config {
    ResolvedConfig rc;
    /// Optional flight recorder fed at phase and epoch boundaries (set on
    /// the observed node only; stage schedules are global, so one node's
    /// boundaries are the run's).
    obs::RunObserver* observer = nullptr;
    /// Absolute round of this stage's start — converts the relative rounds
    /// this state machine runs on into run-global rounds for the observer
    /// and the audit sink.
    std::uint64_t observer_round_offset = 0;
    /// Optional model-conformance audit sink, fed the same phase/epoch
    /// boundaries as the observer but on *every* node, tagged with
    /// `audit_node`.
    ProtocolAuditSink* audit = nullptr;
    radio::NodeId audit_node = 0;
  };

  /// `parent` is this node's BFS parent (nullopt if the node never joined
  /// the tree — it then neither sources nor relays, but still follows the
  /// phase schedule and participates in alarm floods).
  CollectionState(const Config& cfg, radio::NodeId self, bool is_root,
                  std::optional<radio::NodeId> parent,
                  std::vector<radio::Packet> own_packets, Rng* rng);

  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round);
  void on_receive(std::uint64_t rel_round, const radio::Message& msg);

  /// Idle-skipping hint, valid right after on_transmit(rel_round): the
  /// earliest relative round at which on_transmit may act again if nothing
  /// is received meanwhile (see radio::NodeProtocol::set_next_active_round).
  /// That is the next own start slot, root acknowledgment or alarm relay
  /// round, capped at the next window, alarm or phase boundary so every
  /// phase and epoch callback fires on time.
  std::uint64_t next_active_round(std::uint64_t rel_round) const;

  /// Optional payload-buffer pool for outgoing DataMsg copies (usually the
  /// owning node's NodeProtocol::payload_arena). Null => heap-allocate,
  /// byte-identical either way.
  void set_payload_arena(radio::PayloadArena* arena) { arena_ = arena; }

  /// True once the stage ended (first alarm-free phase completed). The
  /// caller must keep driving on_transmit until this flips.
  bool finished() const { return finished_; }
  /// Stage length in rounds (valid once finished()).
  std::uint64_t finished_at() const { return finished_at_; }

  /// Root only: all collected packets (includes the root's own packets).
  const std::vector<radio::Packet>& collected() const { return collected_; }

  /// True iff all of this node's own packets were acknowledged.
  bool all_acked() const { return acked_count_ == own_packets_.size(); }
  std::size_t unacked_count() const { return own_packets_.size() - acked_count_; }

  /// The own packets that were never acknowledged (used by the dynamic
  /// variant to carry them into the next epoch).
  std::vector<radio::Packet> unacked_packets() const;

  std::uint32_t phases_run() const { return phase_index_; }
  std::uint64_t estimate() const { return estimate_; }

  /// Diagnostics: dropped own-starts / relay conflicts (lost to the
  /// one-transmission-per-round constraint).
  std::uint64_t start_conflicts() const { return start_conflicts_; }

 private:
  struct OwnPacket {
    radio::Packet packet;
    bool acked = false;
  };

  /// One own-packet start: the relative round and the own packet index.
  struct StartSlot {
    std::uint64_t round;
    std::size_t packet;
  };

  void advance(std::uint64_t rel_round);
  void begin_phase(std::uint64_t phase_start);
  void begin_window(std::size_t window_index);
  /// The start scheduled at `rel_round`, or null. Moves the cursor past
  /// earlier slots, so calls must come with non-decreasing rounds.
  const StartSlot* start_at(std::uint64_t rel_round);
  /// Index of the gather window containing `offset` (relative to the
  /// grabbing epoch), or npos if `offset` is in the alarm window.
  static constexpr std::size_t kAlarm = static_cast<std::size_t>(-1);

  Config cfg_;
  radio::NodeId self_;
  bool is_root_;
  std::optional<radio::NodeId> parent_;
  Rng* rng_;
  radio::PayloadArena* arena_ = nullptr;

  std::vector<OwnPacket> own_packets_;
  std::size_t acked_count_ = 0;

  // Phase machinery.
  std::uint32_t phase_index_ = 0;
  std::uint64_t estimate_ = 0;
  std::uint64_t phase_start_ = 0;
  std::uint64_t grab_end_ = 0;   // rel round where the alarm window starts
  std::uint64_t phase_end_ = 0;
  std::vector<GatherWindow> windows_;
  std::size_t window_index_ = 0;
  bool alarm_started_ = false;
  bool finished_ = false;
  std::uint64_t finished_at_ = 0;

  // Per-window state.
  /// This window's own-packet starts sorted by round (rel round, absolute
  /// within stage), one per round: the first packet drawn for a slot keeps
  /// it. start_cursor_ is the first entry not yet behind the clock.
  std::vector<StartSlot> start_schedule_;
  std::size_t start_cursor_ = 0;
  /// In-flight relay forward: packet to send at `relay_round`.
  std::optional<radio::Packet> relay_packet_;
  std::uint64_t relay_round_ = 0;
  /// In-flight ack forward.
  std::optional<radio::AckMsg> relay_ack_;
  std::uint64_t relay_ack_round_ = 0;

  // Root state.
  std::vector<radio::Packet> collected_;
  std::unordered_map<radio::PacketId, bool> collected_ids_;
  /// Acks the root owes for packets received in the current window.
  std::vector<radio::AckMsg> ack_queue_;

  /// Persistent routing memory: packet id -> child that delivered it (the
  /// BFS path is fixed, so the child never changes).
  std::unordered_map<radio::PacketId, radio::NodeId> child_of_packet_;

  protocols::AlarmWindow alarm_;
  std::uint64_t start_conflicts_ = 0;
};

}  // namespace radiocast::core
