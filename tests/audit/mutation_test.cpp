// Seeded-bug detection: each test compiles one deliberate engine or
// protocol bug behind the test-mutation hooks (radio::EngineMutations /
// core::KBroadcastNode::TestMutations) and asserts that the ModelAuditor
// flags it with the expected check. The engine bugs are also run past a
// bare ChannelAuditor on the same network — the radio-model checker the
// stream driver attaches — which must flag the same radio.* check. A
// control run with every mutation off audits clean — so these tests pin
// both directions: the auditors catch real model violations and do not cry
// wolf.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "audit/channel_auditor.hpp"
#include "audit/model_auditor.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast {
namespace {

struct Mutations {
  radio::EngineMutations engine;
  core::KBroadcastNode::TestMutations protocol;
  /// Nodes the protocol mutations apply to (empty = every node).
  std::vector<radio::NodeId> protocol_nodes;
};

/// Mirrors core::run_kbroadcast's wiring, plus the mutation hooks that the
/// production runner (deliberately) does not expose. Completion/timeout is
/// recomputed here exactly as the runner does, so end_run's result checks
/// stay meaningful. A non-null `channel` joins the tap after the auditor.
void run_mutated(const graph::Graph& g, const core::Placement& placement,
                 std::uint64_t seed, const Mutations& mut,
                 audit::ModelAuditor& auditor, std::uint64_t max_rounds = 0,
                 audit::ChannelAuditor* channel = nullptr) {
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::ResolvedConfig rc = core::resolve(cfg);
  std::vector<radio::Packet> truth = core::placement_packets(placement);
  if (max_rounds == 0) max_rounds = core::total_rounds_bound(truth.size(), rc);

  auditor.begin_run(g, rc, truth, {}, /*collision_detection=*/false);

  radio::Network net(g);
  net.set_test_mutations(mut.engine);
  net.add_tap(&auditor);
  if (channel != nullptr) net.add_tap(channel);
  Rng master(seed);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    Rng child = master.split();
    auto node = std::make_unique<core::KBroadcastNode>(rc, v, placement[v], child);
    node->set_audit_sink(&auditor);
    const bool mutate = mut.protocol_nodes.empty() ||
                        std::find(mut.protocol_nodes.begin(),
                                  mut.protocol_nodes.end(),
                                  v) != mut.protocol_nodes.end();
    if (mutate) node->set_test_mutations(mut.protocol);
    net.set_protocol(v, std::move(node));
    if (!placement[v].empty()) net.wake_at_start(v);
  }

  const bool all_done = net.run_until_done(max_rounds);

  core::RunResult result;
  result.n = g.num_nodes();
  result.k = static_cast<std::uint32_t>(truth.size());
  result.timed_out = !all_done;
  result.total_rounds = net.current_round();
  result.counters = net.trace().counters();
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node = static_cast<const core::KBroadcastNode&>(net.protocol(v));
    std::vector<radio::Packet> got = node.delivered_packets();
    std::sort(got.begin(), got.end(),
              [](const radio::Packet& a, const radio::Packet& b) {
                return a.id < b.id;
              });
    if (got == truth) ++result.nodes_complete;
  }
  result.delivered_all = result.nodes_complete == g.num_nodes();
  auditor.end_run(net, result);
}

bool flagged(const audit::AuditReport& report, const std::string& check) {
  for (const audit::Violation& v : report.violations()) {
    if (v.check == check) return true;
  }
  return false;
}

bool flagged(const audit::ModelAuditor& auditor, const std::string& check) {
  return flagged(auditor.report(), check);
}

core::Placement dense_placement(const graph::Graph& g, std::uint32_t k,
                                std::uint64_t seed) {
  Rng rng(seed);
  return core::make_placement(g.num_nodes(), k, core::PlacementMode::kSpreadEven,
                              /*payload_bytes=*/16, rng);
}

TEST(AuditorMutations, ControlRunWithAllHooksOffIsClean) {
  Rng rng(5);
  const graph::Graph g = graph::make_gnp_connected(24, 0.2, rng);
  audit::ModelAuditor auditor;
  run_mutated(g, dense_placement(g, 6, 50), /*seed=*/3, Mutations{}, auditor);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

// Seeded engine bug #1: deliver the first message of a collided slot.
// Breaks "collision means silence" — the defining rule of the model.
TEST(AuditorMutations, DeliverOnCollisionIsFlagged) {
  Rng rng(5);
  const graph::Graph g = graph::make_gnp_connected(24, 0.2, rng);
  Mutations mut;
  mut.engine.deliver_on_collision = true;
  audit::ModelAuditor auditor;
  audit::ChannelAuditor channel(g, {});
  run_mutated(g, dense_placement(g, 6, 50), 3, mut, auditor,
              /*max_rounds=*/20000, &channel);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "radio.deliver_on_collision"))
      << auditor.summary();
  EXPECT_TRUE(flagged(channel.report(), "radio.deliver_on_collision"))
      << channel.summary();
}

// Seeded engine bug #2: deliver to a node that is itself transmitting.
// Breaks the half-duplex rule (transmitters hear nothing).
TEST(AuditorMutations, DeliverWhileTransmittingIsFlagged) {
  Rng rng(6);
  const graph::Graph g = graph::make_gnp_connected(24, 0.25, rng);
  Mutations mut;
  mut.engine.deliver_while_transmitting = true;
  audit::ModelAuditor auditor;
  audit::ChannelAuditor channel(g, {});
  run_mutated(g, dense_placement(g, 8, 51), 4, mut, auditor,
              /*max_rounds=*/20000, &channel);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "radio.deliver_while_transmitting"))
      << auditor.summary();
  EXPECT_TRUE(flagged(channel.report(), "radio.deliver_while_transmitting"))
      << channel.summary();
}

// Seeded engine bug #3: receive without waking. Breaks wake-on-first-
// reception (sleeping nodes must join the protocol when first reached).
TEST(AuditorMutations, SkipWakeOnReceiveIsFlagged) {
  const graph::Graph g = graph::make_path(16);
  Mutations mut;
  mut.engine.skip_wake_on_receive = true;
  audit::ModelAuditor auditor;
  Rng prng(52);
  const core::Placement placement = core::make_placement(
      16, 3, core::PlacementMode::kSingleSource, 16, prng);
  audit::ChannelAuditor channel(g, {});
  run_mutated(g, placement, 5, mut, auditor, /*max_rounds=*/5000, &channel);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "radio.wake_on_reception")) << auditor.summary();
  EXPECT_TRUE(flagged(channel.report(), "radio.wake_on_reception"))
      << channel.summary();
}

// Seeded protocol bug #1: a relay silently skips its Stage-2 BFS
// transmissions. Downstream nodes never join the tree, so the final BFS
// layers diverge from true graph distances.
TEST(AuditorMutations, SuppressedBfsTransmitIsFlagged) {
  const graph::Graph g = graph::make_path(12);
  Mutations mut;
  mut.protocol.suppress_bfs_transmit = true;
  mut.protocol_nodes = {6};  // cut the path's only BFS route at node 6
  audit::ModelAuditor auditor;
  Rng prng(53);
  core::Placement placement(12);
  // All packets at node 0: node 0 is the unique participant and leader, so
  // BFS flows 0 -> 11 and the cut at node 6 strands nodes 7..11.
  placement[0] = core::make_placement(1, 3, core::PlacementMode::kSingleSource,
                                      16, prng)[0];
  run_mutated(g, placement, 6, mut, auditor, /*max_rounds=*/30000);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "protocol.bfs_layer")) << auditor.summary();
}

// Seeded protocol bug #2: nodes advance to Stage 4 a few rounds before
// their collection schedule ended (premature stage advance).
TEST(AuditorMutations, EarlyStage4EntryIsFlagged) {
  const graph::Graph g = graph::make_star(16);
  Mutations mut;
  mut.protocol.early_stage4_rounds = 3;
  audit::ModelAuditor auditor;
  run_mutated(g, dense_placement(g, 4, 54), 7, mut, auditor,
              /*max_rounds=*/30000);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "protocol.stage4_boundary")) << auditor.summary();
}

// Seeded protocol bug #3: every coded transmission's payload has one bit
// flipped, so it is no longer the GF(2) combination its header claims.
TEST(AuditorMutations, CorruptCodedPayloadIsFlagged) {
  const graph::Graph g = graph::make_star(16);
  Mutations mut;
  mut.protocol.corrupt_coded_payload = true;
  audit::ModelAuditor auditor;
  run_mutated(g, dense_placement(g, 4, 55), 8, mut, auditor,
              /*max_rounds=*/30000);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(flagged(auditor, "delivery.coded_payload")) << auditor.summary();
}

}  // namespace
}  // namespace radiocast
