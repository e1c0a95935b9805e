#include "core/runner.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/assert.hpp"
#include "core/audit.hpp"
#include "core/protocol.hpp"
#include "core/schedule.hpp"
#include "graph/algorithms.hpp"
#include "obs/observer.hpp"
#include "obs/packet_trace.hpp"
#include "radio/network.hpp"
#include "radio/protocol_slab.hpp"

namespace radiocast::core {

Placement make_placement(std::uint32_t n, std::uint32_t k, PlacementMode mode,
                         std::uint32_t payload_bytes, Rng& rng) {
  RC_ASSERT(n >= 1);
  Placement placement(n);
  std::vector<std::uint32_t> owners(k);
  switch (mode) {
    case PlacementMode::kRandom:
      for (auto& owner : owners) owner = static_cast<std::uint32_t>(rng.next_below(n));
      break;
    case PlacementMode::kSingleSource: {
      const auto source = static_cast<std::uint32_t>(rng.next_below(n));
      for (auto& owner : owners) owner = source;
      break;
    }
    case PlacementMode::kSpreadEven: {
      // Random node permutation, packets dealt round-robin.
      std::vector<std::uint32_t> perm(n);
      for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
      for (std::uint32_t i = n; i > 1; --i) {
        const auto j = static_cast<std::uint32_t>(rng.next_below(i));
        std::swap(perm[i - 1], perm[j]);
      }
      for (std::uint32_t i = 0; i < k; ++i) owners[i] = perm[i % n];
      break;
    }
  }
  std::vector<std::uint32_t> seq(n, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint32_t owner = owners[i];
    radio::Packet packet;
    packet.id = radio::make_packet_id(owner, seq[owner]++);
    packet.payload.resize(payload_bytes);
    for (auto& byte : packet.payload) byte = static_cast<std::uint8_t>(rng() & 0xff);
    placement[owner].push_back(std::move(packet));
  }
  return placement;
}

std::vector<radio::Packet> placement_packets(const Placement& placement) {
  std::vector<radio::Packet> all;
  for (const auto& node_packets : placement) {
    all.insert(all.end(), node_packets.begin(), node_packets.end());
  }
  std::sort(all.begin(), all.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  return all;
}

namespace {

/// True iff `got` (sorted or not) equals the ground truth exactly.
bool holds_all(std::vector<radio::Packet> got, const std::vector<radio::Packet>& truth) {
  if (got.size() != truth.size()) return false;
  std::sort(got.begin(), got.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  return got == truth;
}

}  // namespace

RunResult run_kbroadcast(const graph::Graph& g, const KBroadcastConfig& cfg,
                         const Placement& placement, std::uint64_t seed,
                         std::uint64_t max_rounds, const radio::FaultModel& faults,
                         obs::RunObserver* observer, RunAuditor* auditor,
                         bool collision_detection, obs::PacketTracer* tracer) {
  RC_ASSERT(g.finalized());
  RC_ASSERT(placement.size() == g.num_nodes());
  const ResolvedConfig rc = resolve(cfg);
  const std::vector<radio::Packet> truth = placement_packets(placement);

  RunResult result;
  result.n = g.num_nodes();
  result.k = static_cast<std::uint32_t>(truth.size());

  if (truth.empty()) {
    // Nothing to broadcast: no node wakes and the task is vacuously done.
    result.delivered_all = true;
    result.leader_ok = true;
    result.bfs_ok = true;
    result.nodes_complete = g.num_nodes();
    return result;
  }

  if (max_rounds == 0) max_rounds = total_rounds_bound(result.k, rc);

  // The expected leader (max-id packet holder) doubles as the observed
  // node: its stage schedule is the run's schedule w.h.p.
  radio::NodeId expected_leader = 0;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!placement[v].empty()) expected_leader = std::max(expected_leader, v);
  }

  if (auditor != nullptr) {
    auditor->begin_run(g, rc, truth, faults, collision_detection);
  }
  if (tracer != nullptr) {
    tracer->begin_trial(g.num_nodes(), truth, rc.group_size);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const radio::Packet& p : placement[v]) tracer->seed_packet(p.id, v);
    }
  }

  // All protocol instances live in one contiguous slab (declared before the
  // network so it outlives the non-owning pointers handed to it).
  radio::ProtocolSlab<KBroadcastNode> slab(g.num_nodes());
  radio::Network net(g);
  if (faults.reception_loss_probability > 0.0) net.set_fault_model(faults);
  if (collision_detection) net.enable_collision_detection(true);
  // Every requested sink goes on the engine tap (the round feed is
  // stack-owned: it must outlive the network's last step, which ends with
  // this call).
  std::optional<obs::RoundFeed> feed;
  if (auditor != nullptr) net.add_tap(auditor);
  if (tracer != nullptr) net.add_tap(tracer);
  if (observer != nullptr) net.add_tap(&feed.emplace(net, *observer));
  Rng master(seed);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    Rng child = master.split();
    KBroadcastNode& node = slab.emplace(rc, v, placement[v], child);
    if (observer != nullptr && v == expected_leader) node.set_observer(observer);
    if (auditor != nullptr) node.set_audit_sink(auditor);
    net.set_protocol(v, &node);
    if (!placement[v].empty()) net.wake_at_start(v);
  }

  const bool all_done = net.run_until_done(max_rounds);
  result.timed_out = !all_done;
  result.total_rounds = net.current_round();
  result.counters = net.trace().counters();
  result.dropped_trace_events = net.trace().dropped_events();
  if (observer != nullptr) {
    observer->finish(result.total_rounds);
    if (result.dropped_trace_events > 0) {
      observer->metrics()
          .counter("trace.dropped_events")
          .inc(result.dropped_trace_events);
    }
    result.metrics = observer->metrics_snapshot();
  }

  // --- Verification against ground truth ---
  std::uint32_t leaders = 0;
  bool leader_is_expected = false;
  const graph::BfsResult truth_bfs = graph::bfs(g, expected_leader);

  result.bfs_ok = true;
  result.nodes_complete = 0;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node = static_cast<const KBroadcastNode&>(net.protocol(v));
    if (node.is_leader()) {
      ++leaders;
      if (v == expected_leader) leader_is_expected = true;
    }
    if (truth_bfs.dist[v] != graph::kUnreachable) {
      if (!node.has_bfs_distance() || node.bfs_distance() != truth_bfs.dist[v]) {
        result.bfs_ok = false;
      }
    }
    if (holds_all(node.delivered_packets(), truth)) ++result.nodes_complete;
  }
  result.leader_ok = leaders == 1 && leader_is_expected;
  result.delivered_all = result.nodes_complete == g.num_nodes();

  // --- Stage accounting (from the leader's perspective) ---
  const auto& leader_node =
      static_cast<const KBroadcastNode&>(net.protocol(expected_leader));
  result.stage1_rounds = rc.stage1_rounds;
  result.stage2_rounds = rc.stage2_rounds;
  if (leader_node.stage3_end() != 0) {
    result.stage3_rounds = leader_node.stage3_end() - rc.stage3_start();
    if (result.total_rounds > leader_node.stage3_end()) {
      result.stage4_rounds = result.total_rounds - leader_node.stage3_end();
    }
  }
  if (const CollectionState* coll = leader_node.collection()) {
    result.collection_phases = coll->phases_run();
    result.final_estimate = coll->estimate();
  }
  if (auditor != nullptr) auditor->end_run(net, result);
  return result;
}

}  // namespace radiocast::core
