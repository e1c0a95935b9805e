// PacketTracer — per-packet lifecycle telemetry over the engine tap.
//
// A sink on the engine tap (radio::Network::add_tap; core::run_kbroadcast
// adds it after the auditor, when one is requested), the tracer watches
// every delivery of a run and reconstructs, for each message m and node v,
// the round v first *held* m:
//
//   * origin nodes hold their packets from round 0 (latency 0);
//   * a DataMsg or PlainPacketMsg delivery carrying m hands it to the
//     receiver directly (overheard Stage-3 unicasts count: the bits
//     reached the node);
//   * for coded traffic the tracer mirrors the receiver's GF(2) decoder
//     with a payload-free gf2::MaskRank per (node, group) — fed the same
//     unit rows (PlainPacketMsg) and coefficient masks (CodedMsg) the
//     DisseminationState feeds its IncrementalDecoder. MaskRank and the
//     decoder's packed path share one pivot-elimination routine
//     (gf2::reduce_pivot_mask), so the tracker reaches rank completeness
//     in exactly the round the decoder does — that is the decode event
//     for every packet of the group.
//
// Each first-hold record keeps the delivering neighbor and a hop depth
// (depth of the sender when it transmitted, plus one), so the tracer can
// answer "along which hops did m travel" — the flight path — as well as
// produce per-packet delivery-latency vectors and LogHistograms.
//
// Contract (same as every tap sink): read-only, zero RNG draws, no
// effect on the run. All state is a pure function of the deterministic
// event stream, so traced outputs are reproducible byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gf2/solver.hpp"
#include "obs/histogram.hpp"
#include "radio/audit_hook.hpp"

namespace radiocast::obs {

class PacketTracer final : public radio::NetworkAuditHook {
 public:
  /// How node v came to hold a packet.
  enum class Via : std::uint8_t {
    kOrigin = 0,  ///< held at round 0 (v is the packet's origin)
    kData,        ///< Stage-3 DataMsg delivery (addressed or overheard)
    kPlain,       ///< uncoded PlainPacketMsg delivery
    kDecode,      ///< GF(2) rank-complete event of the packet's group
  };
  static const char* via_name(Via via);

  /// One first-hold record on a packet's flight path. `latency` is the
  /// number of rounds elapsed when the node first held the packet: 0 for
  /// origin seeds, r + 1 for a reception (or decode) in round r.
  struct FlightEvent {
    std::uint64_t latency = 0;
    std::uint32_t packet = 0;  ///< index into truth order (sorted by id)
    radio::NodeId node = 0;
    radio::NodeId from = 0;  ///< delivering neighbor (== node for origins)
    std::uint16_t depth = 0;  ///< hops from the origin along this path
    Via via = Via::kOrigin;
  };

  struct Options {
    /// Keep the per-event flight log (first-hold records in chronological
    /// order). Latency cells are always kept; only the log is optional.
    bool flight_paths = true;
    /// Cap on the flight log; events past it are counted, not kept.
    std::size_t max_flight_events = 1u << 20;
  };

  PacketTracer() : PacketTracer(Options{}) {}
  explicit PacketTracer(Options opts) : opts_(opts) {}

  /// Arms the tracer for one run: `truth` is the sorted-by-id ground truth
  /// (core::placement_packets) and `group_size` the protocol's coding
  /// group width (ResolvedConfig::group_size) used to map rank-complete
  /// events back to packet indices. Resets all prior state.
  void begin_trial(std::uint32_t num_nodes,
                   const std::vector<radio::Packet>& truth,
                   std::uint32_t group_size);

  /// Marks `node` as holding packet `id` from round 0 (initial placement).
  void seed_packet(radio::PacketId id, radio::NodeId node);

  // --- radio::NetworkAuditHook (only deliveries carry information the
  // tracer needs) ---
  void on_deliver(radio::Round round, radio::NodeId receiver,
                  std::uint32_t tx_index, const radio::Message& msg) override;

  // --- Queries (valid after / during a trial) ---
  std::uint32_t num_nodes() const { return n_; }
  std::uint32_t num_packets() const { return k_; }
  const std::vector<radio::Packet>& truth() const { return truth_; }

  /// True iff `node` ever held packet `packet` (index into truth order).
  bool held(std::uint32_t packet, radio::NodeId node) const;
  /// Rounds elapsed when `node` first held `packet`; UINT64_MAX if never.
  std::uint64_t latency(std::uint32_t packet, radio::NodeId node) const;
  /// Delivering neighbor / hop depth / mechanism of the first hold.
  radio::NodeId delivered_by(std::uint32_t packet, radio::NodeId node) const;
  std::uint16_t hop_depth(std::uint32_t packet, radio::NodeId node) const;
  Via via(std::uint32_t packet, radio::NodeId node) const;

  /// Nodes that never held `packet`.
  std::uint32_t undelivered(std::uint32_t packet) const;

  /// All first-hold latencies of `packet` at non-origin nodes.
  LogHistogram packet_latencies(std::uint32_t packet) const;
  /// Same, pooled over every packet.
  LogHistogram all_latencies() const;

  /// Chronological first-hold log (empty unless Options::flight_paths).
  const std::vector<FlightEvent>& flight_events() const { return flights_; }
  /// The events of one packet, in chronological order.
  std::vector<FlightEvent> flight_path(std::uint32_t packet) const;
  /// Events discarded because the flight log was full.
  std::uint64_t dropped_flight_events() const { return dropped_flights_; }

 private:
  /// Latency cell: one per (packet, node). latency_plus1 == 0 means the
  /// node never held the packet; otherwise latency == latency_plus1 - 1.
  struct Cell {
    std::uint32_t latency_plus1 = 0;
    radio::NodeId from = 0;
    std::uint16_t depth = 0;
    Via via = Via::kOrigin;
  };

  Cell& cell(std::uint32_t packet, radio::NodeId node) {
    return cells_[static_cast<std::size_t>(packet) * n_ + node];
  }
  const Cell& cell(std::uint32_t packet, radio::NodeId node) const {
    return cells_[static_cast<std::size_t>(packet) * n_ + node];
  }

  /// Index of `id` in truth order; k_ if the id is not ground truth.
  std::uint32_t packet_index(radio::PacketId id) const;
  void record(std::uint32_t packet, radio::NodeId node, std::uint64_t latency,
              radio::NodeId from, Via via);
  /// Feeds one coefficient mask into (node, group)'s rank tracker; fires
  /// the group's decode events when it completes.
  void feed_row(radio::NodeId node, std::uint32_t group_id, std::uint64_t mask,
                std::uint64_t latency, radio::NodeId from);
  std::uint32_t group_width(std::uint32_t group_id) const;

  Options opts_;
  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t group_size_ = 0;
  std::uint32_t group_count_ = 0;
  std::vector<radio::Packet> truth_;
  std::vector<radio::PacketId> truth_ids_;  ///< sorted, for id -> index
  std::vector<Cell> cells_;                 ///< k_ x n_, packet-major
  /// Per (node, group) decode state, node-major. A completed group drops
  /// its tracker and keeps only the done flag.
  std::vector<std::unique_ptr<gf2::MaskRank>> trackers_;
  std::vector<std::uint8_t> group_done_;
  std::vector<FlightEvent> flights_;
  std::uint64_t dropped_flights_ = 0;
};

}  // namespace radiocast::obs
