// Stage 4 — packet dissemination with random linear network coding (the
// paper's Section 2.4).
//
// The root partitions the k collected packets into g = ⌈k/s⌉ groups of
// s = ⌈log n̂⌉ packets. Group j is injected in phase `spacing·j`: the root
// transmits the group's packets one by one (its distance-1 neighbors hear
// them without contention). In phase `spacing·j + d` the distance-d layer
// runs FORWARD for group j: Decay-paced transmissions where every
// transmission is a uniformly random XOR subset of the group, carrying the
// subset bitmap in the header (CodedMsg). A receiver feeds every row into
// an incremental GF(2) decoder and owns the group as soon as the
// coefficient matrix reaches full rank (Lemma 3 => O(log n) receptions
// suffice w.h.p.; Lemma 6 => the whole layer decodes within one phase).
//
// Because consecutive groups are `spacing >= 3` phases apart, the sets of
// simultaneously transmitting layers are >= 3 hops apart, so no receiver
// can hear two groups at once (the paper's pipelining argument).
//
// The same state machine also implements the *uncoded* BII-style baseline
// (coded = false): transmitters send one uniformly chosen plain packet of
// the group; receivers need every packet individually (with s = 1 this is
// exactly one packet per 3-phase injection slot, which reproduces the
// O(k·log n·logΔ) baseline bound; with s > 1 it exposes the
// coupon-collector penalty that coding removes).
//
// Packet identity survives coding because the coded payload is the XOR of
// wire images: wire = packet id (8 bytes, little endian) || payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "gf2/coding.hpp"
#include "gf2/solver.hpp"
#include "radio/knowledge.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

/// Serializes a packet into its coding wire image (id || payload).
gf2::Payload packet_wire_image(const radio::Packet& packet);
/// Same image built into a caller-provided buffer (fully overwritten, so
/// `out` may carry recycled capacity from a radio::PayloadArena).
void packet_wire_image_into(const radio::Packet& packet, gf2::Payload& out);
/// Parses a wire image back into a packet.
radio::Packet packet_from_wire_image(const gf2::Payload& wire);

class DisseminationState {
 public:
  struct Config {
    ResolvedConfig rc;
  };

  /// `dist` is the node's BFS distance (nullopt => never joined the tree:
  /// the node listens and decodes but does not forward).
  DisseminationState(const Config& cfg, radio::NodeId self, bool is_root,
                     std::optional<std::uint32_t> dist, Rng* rng);

  /// Root only: install the collected packets (defines the groups). Must be
  /// called before the first on_transmit.
  void set_root_packets(std::vector<radio::Packet> packets);

  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round);
  void on_receive(std::uint64_t rel_round, const radio::Message& msg);

  /// Idle-skipping hint, valid right after on_transmit(rel_round): the
  /// earliest relative round at which on_transmit may act again if nothing
  /// is received meanwhile (see radio::NodeProtocol::set_next_active_round).
  /// The root's next injection round; for other layers the next round of a
  /// FORWARD window (a phase whose slot is 0) for a group they hold.
  std::uint64_t next_active_round(std::uint64_t rel_round) const;

  /// Optional payload-buffer pool for outgoing messages (usually the
  /// owning node's NodeProtocol::payload_arena). Null => heap-allocate,
  /// byte-identical either way.
  void set_payload_arena(radio::PayloadArena* arena) { arena_ = arena; }

  /// True iff this node holds every packet (root: immediately after
  /// set_root_packets; others: all groups decoded; k = 0: every non-root
  /// node can never complete — the runner special-cases empty runs).
  bool complete() const { return complete_; }

  /// All packets this node holds, decoded and sorted by id.
  std::vector<radio::Packet> packets() const;

  /// Number of groups, if known (0 until the first header arrives).
  std::uint32_t group_count() const { return group_count_; }

  /// Diagnostics for the FORWARD benches.
  std::uint64_t rows_received() const { return rows_received_; }
  std::uint64_t redundant_rows() const { return redundant_rows_; }
  /// GF(2) encoders this node currently holds (0 or 1: see encoder_).
  std::size_t live_encoders() const { return encoder_.has_value() ? 1 : 0; }

 private:
  struct GroupState {
    std::uint16_t size = 0;
    std::optional<gf2::IncrementalDecoder> decoder;
    /// Decoded packets (cached once the decoder completes).
    std::vector<radio::Packet> packets;
    bool complete = false;
  };

  void ensure_groups(std::uint32_t group_count);
  GroupState& group(std::uint32_t group_id, std::uint16_t group_size);
  void maybe_finish_group(GroupState& gs);
  void refresh_complete();
  /// Recomputes phase_slot_/phase_group_ for the current phase_. Callers
  /// must have checked phase_ >= slot_base_ first.
  void refresh_phase_slot();

  Config cfg_;
  radio::NodeId self_;
  bool is_root_;
  std::optional<std::uint32_t> dist_;
  Rng* rng_;
  radio::PayloadArena* arena_ = nullptr;

  std::uint32_t group_count_ = 0;
  bool group_count_known_ = false;
  std::vector<GroupState> groups_;
  bool complete_ = false;

  // The encoder of the one group this node forwards. Layer d forwards
  // group j only in phase spacing·j + d, so the groups a node encodes come
  // in increasing order and one slot suffices: moving to a new group
  // drops the previous encoder, whose four-Russians tables hold up to
  // 15·⌈w/4⌉ wire-sized XOR combinations (22 for w = 7).
  std::optional<gf2::GroupEncoder> encoder_;
  std::uint64_t encoder_group_ = 0;

  std::uint64_t rows_received_ = 0;
  std::uint64_t redundant_rows_ = 0;

  // Constants hoisted out of on_transmit, which runs once per node-round
  // for the entire Stage 4 window and dominated the profile: the Decay
  // epoch length, the FORWARD window length, the per-epoch-slot transmit
  // probabilities (1/2^(s+1), exact in binary FP so precomputing cannot
  // perturb a draw), and this node's layer offset into the phase schedule.
  std::uint32_t epoch_len_ = 1;
  std::uint64_t forward_rounds_ = 0;
  std::vector<double> decay_prob_;
  std::uint64_t slot_base_ = 0;

  // Incremental round clock. Consecutive on_transmit calls advance
  // rel_round by one, so phase/off/epoch_off are maintained by increments
  // and the division-based recompute runs only on a jump (first call, or
  // a caller that skips rounds). The maintained values equal the direct
  // quotient/remainder computation exactly, so behavior is bit-for-bit
  // unchanged.
  bool clock_valid_ = false;
  std::uint64_t clock_round_ = 0;
  std::uint64_t phase_ = 0;
  std::uint64_t off_ = 0;          ///< rel_round % phase_len
  std::uint32_t epoch_off_ = 0;    ///< off_ % epoch_len_
  bool phase_dirty_ = true;
  std::uint64_t phase_slot_ = 0;   ///< (phase_ - slot_base_) % spacing
  std::uint64_t phase_group_ = 0;  ///< (phase_ - slot_base_) / spacing
};

}  // namespace radiocast::core
