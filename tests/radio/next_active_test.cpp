// The idle-skipping hint contract of the engine
// (NodeProtocol::set_next_active_round): a node is never asked for a
// transmission decision before the round it published, and any event that
// can change its mind — a delivery, a collision callback, a wake, a fresh
// protocol — makes the engine ask again the very next round.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast::radio {
namespace {

/// Records every on_transmit round and, on each call, publishes a hint
/// `gap` rounds ahead (gap 0 publishes nothing). Transmits an alarm at the
/// scripted rounds; only unhinted nodes carry scripts below.
class HintedNode final : public NodeProtocol {
 public:
  explicit HintedNode(Round gap, std::set<Round> transmit_at = {})
      : gap_(gap), transmit_at_(std::move(transmit_at)) {}

  std::optional<MessageBody> on_transmit(Round round) override {
    calls.push_back(round);
    if (gap_ != 0 && (!publish_once_ || calls.size() == 1)) {
      set_next_active_round(round + gap_);
    }
    if (transmit_at_.count(round) != 0) return AlarmMsg{};
    return std::nullopt;
  }
  void on_receive(Round round, const Message& /*msg*/) override {
    receives.push_back(round);
  }
  void on_collision(Round round) override { collisions.push_back(round); }
  void on_wake(Round round) override { wakes.push_back(round); }

  /// Publish a hint on the first call only, nothing afterwards.
  void publish_once() { publish_once_ = true; }

  std::vector<Round> calls;
  std::vector<Round> receives;
  std::vector<Round> collisions;
  std::vector<Round> wakes;

 private:
  Round gap_;
  std::set<Round> transmit_at_;
  bool publish_once_ = false;
};

/// Hands node v's protocol (heap-allocated by the caller) to the network.
void install(Network& net, const std::vector<HintedNode*>& nodes) {
  for (NodeId v = 0; v < nodes.size(); ++v) {
    net.set_protocol(v, std::unique_ptr<NodeProtocol>(nodes[v]));
  }
}

void step(Network& net, int rounds) {
  for (int r = 0; r < rounds; ++r) net.step();
}

TEST(NextActiveHint, NeverCalledBeforeTheHint) {
  const graph::Graph g = graph::make_path(1);
  Network net(g);
  auto* node = new HintedNode(5);
  install(net, {node});
  net.wake_at_start(0);
  step(net, 23);
  EXPECT_EQ(node->calls, (std::vector<Round>{0, 5, 10, 15, 20}));
}

TEST(NextActiveHint, UnpublishedHintMeansEveryRound) {
  const graph::Graph g = graph::make_path(1);
  Network net(g);
  auto* node = new HintedNode(10);
  node->publish_once();
  install(net, {node});
  net.wake_at_start(0);
  step(net, 13);
  EXPECT_EQ(node->calls, (std::vector<Round>{0, 10, 11, 12}));
}

TEST(NextActiveHint, CalledTheRoundAfterADelivery) {
  const graph::Graph g = graph::make_path(2);
  Network net(g);
  auto* sender = new HintedNode(0, {3});
  auto* listener = new HintedNode(100);
  install(net, {sender, listener});
  net.wake_at_start(0);
  net.wake_at_start(1);
  step(net, 10);
  EXPECT_EQ(listener->receives, (std::vector<Round>{3}));
  EXPECT_EQ(listener->calls, (std::vector<Round>{0, 4}));
}

TEST(NextActiveHint, CalledTheRoundAfterACollisionCallback) {
  // Star: leaves 1 and 2 collide at the center in round 3.
  const graph::Graph g = graph::make_star(3);
  Network net(g);
  net.enable_collision_detection(true);
  auto* center = new HintedNode(100);
  install(net, {center, new HintedNode(0, {3}), new HintedNode(0, {3})});
  for (NodeId v = 0; v < 3; ++v) net.wake_at_start(v);
  step(net, 10);
  EXPECT_EQ(center->collisions, (std::vector<Round>{3}));
  EXPECT_TRUE(center->receives.empty());
  EXPECT_EQ(center->calls, (std::vector<Round>{0, 4}));
}

TEST(NextActiveHint, CalledTheRoundAfterAWake) {
  // Node 1 sleeps until node 0's round-3 transmission wakes it.
  const graph::Graph g = graph::make_path(2);
  Network net(g);
  auto* sender = new HintedNode(0, {3});
  auto* sleeper = new HintedNode(100);
  install(net, {sender, sleeper});
  net.wake_at_start(0);
  step(net, 10);
  EXPECT_EQ(sleeper->wakes, (std::vector<Round>{3}));
  EXPECT_EQ(sleeper->calls, (std::vector<Round>{4}));
}

TEST(NextActiveHint, SetProtocolDropsAStaleHint) {
  // set_protocol is legal only before the first step, so the swap happens
  // there: a protocol that already carries a published hint is still
  // called in the first round after it replaces another.
  const graph::Graph g = graph::make_path(1);
  Network net(g);
  auto* replaced = new HintedNode(7);
  auto* swapped_in = new HintedNode(7);
  swapped_in->set_next_active_round(50);
  net.set_protocol(0, std::unique_ptr<NodeProtocol>(replaced));
  net.set_protocol(0, std::unique_ptr<NodeProtocol>(swapped_in));
  net.wake_at_start(0);
  step(net, 10);
  EXPECT_TRUE(replaced->calls.empty());
  EXPECT_EQ(swapped_in->calls, (std::vector<Round>{0, 7}));
}

}  // namespace
}  // namespace radiocast::radio
