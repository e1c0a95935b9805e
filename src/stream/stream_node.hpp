// DynamicBroadcastNode with a bounded, policy-governed source buffer.
//
// The closed dynamic mode injects straight into an unbounded pending list;
// the open system routes every arrival through a SourceQueue instead, and
// reports to the driver as things happen: each first-hold event is
// appended to a StreamEvents sink the driver owns (so per-packet delivery
// latencies are round-exact, where the closed harness polls every 64
// rounds), and each collection re-entry raises the sink's highest epoch.
// The driver never has to visit an idle node, so the base class's
// idle-skipping hints carry through to the whole round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dynamic.hpp"
#include "stream/queue.hpp"

namespace radiocast::stream {

/// What the nodes of one run report to its driver, shared by all of them.
struct StreamEvents {
  /// Packet ids first held by some node since the driver last cleared it.
  std::vector<radio::PacketId> held;
  /// Highest epochs_completed() any node has reached.
  std::uint32_t max_epoch = 0;
};

class StreamNode final : public core::DynamicBroadcastNode {
 public:
  StreamNode(const core::DynamicConfig& cfg, radio::NodeId self, Rng rng,
             std::uint32_t buffer_capacity, BufferPolicy policy,
             StreamEvents* events)
      : core::DynamicBroadcastNode(cfg, self, rng),
        queue_(buffer_capacity, policy),
        events_(events) {}

  /// Application-side arrival: the packet goes through the bounded buffer,
  /// NOT directly into the pipeline. Returns true if buffered immediately.
  bool offer(radio::Packet packet) { return queue_.offer(std::move(packet)); }

  const SourceQueue& queue() const { return queue_; }

 protected:
  /// Epoch re-entry pulls from the bounded buffer (which refills from any
  /// backpressure holdback) instead of the base class's unbounded list.
  /// Every epoch starts here, so this is where the epoch count is reported.
  std::vector<radio::Packet> take_epoch_packets() override {
    events_->max_epoch = std::max(events_->max_epoch, epochs_completed());
    std::vector<radio::Packet> out = queue_.drain();
    // Admitted packets count as held by their source the moment they
    // enter the pipeline (mirrors inject()'s deliver-on-injection in the
    // closed mode; a buffered-then-dropped packet is never "held").
    for (const radio::Packet& p : out) deliver(p);
    return out;
  }

  void on_packet_delivered(const radio::Packet& packet) override {
    events_->held.push_back(packet.id);
  }

 private:
  SourceQueue queue_;
  StreamEvents* events_;
};

}  // namespace radiocast::stream
