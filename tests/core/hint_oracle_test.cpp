// Lock-step oracle for idle skipping: the next-active-round hints that
// KBroadcastNode, DynamicBroadcastNode and stream::StreamNode publish,
// against the same protocols with their hints hidden.
//
// Every test builds two identically seeded networks. In one the engine
// skips the rounds the nodes' hints declare idle; in the other each node
// sits behind a forwarding decorator that swallows the hint, so every
// awake node is called every round (the behaviour before hints existed).
// After every round the two runs must agree on the trace counters and on a
// running fingerprint of everything observable: each transmission (sender
// and body), each reception outcome, each wake, and each
// stage/phase/epoch callback together with the round in which it fired.
// For KBroadcastNode the exp::digest_run of both runs must match at the
// end, and the hinted run must match core::run_kbroadcast itself; the
// dynamic and stream cases are described above their section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/audit.hpp"
#include "core/dynamic.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "exp/run.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "radio/protocol_slab.hpp"
#include "stream/arrivals.hpp"
#include "stream/driver.hpp"
#include "stream/stream_node.hpp"

namespace radiocast::core {
namespace {

/// Test-only decorator around any protocol: forwards every upcall and
/// counts the on_transmit calls. Unless `hinted`, it swallows the hint the
/// inner node publishes, so the engine asks the node every round.
class Forwarder final : public radio::NodeProtocol {
 public:
  Forwarder(radio::NodeProtocol& inner, bool hinted) : inner_(inner), hinted_(hinted) {}

  void on_wake(radio::Round round) override { inner_.on_wake(round); }
  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    ++transmit_calls_;
    std::optional<radio::MessageBody> msg = inner_.on_transmit(round);
    const radio::Round hint = inner_.take_next_active_round();
    if (hinted_) set_next_active_round(hint);
    return msg;
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    inner_.on_receive(round, msg);
  }
  void on_collision(radio::Round round) override { inner_.on_collision(round); }
  bool done() const override { return inner_.done(); }

  std::uint64_t transmit_calls() const { return transmit_calls_; }

 private:
  radio::NodeProtocol& inner_;
  bool hinted_;
  std::uint64_t transmit_calls_ = 0;
};

/// FNV-1a over every engine and protocol audit event, each stamped with the
/// round it fired in. Read-only, like every audit tap.
class Fingerprint final : public radio::NetworkAuditHook, public ProtocolAuditSink {
 public:
  std::uint64_t hash() const { return hash_; }

  void on_sim_start(const std::vector<radio::NodeId>& awake) override {
    mix(1);
    for (const radio::NodeId v : awake) mix(v);
  }
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override {
    mix(2), mix(round), mix(txs.size());
    for (const radio::Message& m : txs) {
      mix(m.from), mix(radio::message_kind_index(m.body)),
          mix(radio::message_size_bits(m.body));
      mix_body(m.body);
    }
  }
  void on_deliver(radio::Round round, radio::NodeId receiver, std::uint32_t tx_index,
                  const radio::Message& /*msg*/) override {
    mix(3), mix(round), mix(receiver), mix(tx_index);
  }
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd) override {
    mix(4), mix(round), mix(receiver), mix(reached), mix(cd ? 1 : 0);
  }
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override {
    mix(5), mix(round), mix(receiver), mix(reached);
  }
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override {
    mix(6), mix(round), mix(receiver), mix(tx_index);
  }
  void on_node_wake(radio::Round round, radio::NodeId node) override {
    mix(7), mix(round), mix(node);
  }
  void on_round_end(radio::Round round) override { now_ = round + 1; }

  void on_stage_enter(radio::NodeId node, std::uint32_t stage,
                      radio::Round boundary) override {
    mix(8), mix(now_), mix(node), mix(stage), mix(boundary);
  }
  void on_collection_phase_begin(radio::NodeId node, std::uint32_t phase,
                                 std::uint64_t estimate, radio::Round round) override {
    mix(9), mix(now_), mix(node), mix(phase), mix(estimate), mix(round);
  }
  void on_collection_epoch(radio::NodeId node, const char* kind, std::uint64_t slots,
                           std::uint32_t copies, radio::Round round) override {
    mix(10), mix(now_), mix(node), mix(slots), mix(copies), mix(round);
    for (const char* p = kind; *p != '\0'; ++p) mix(static_cast<unsigned char>(*p));
  }
  void on_collection_phase_end(radio::NodeId node, radio::Round round,
                               bool alarmed) override {
    mix(11), mix(now_), mix(node), mix(round), mix(alarmed ? 1 : 0);
  }

 private:
  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (x >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_bytes(const gf2::Payload& bytes) {
    mix(bytes.size());
    for (const std::uint8_t byte : bytes) mix(byte);
  }
  void mix_body(const radio::MessageBody& body) {
    if (const auto* m = std::get_if<radio::BfsConstructMsg>(&body)) {
      mix(m->id), mix(m->dist);
    } else if (const auto* m = std::get_if<radio::DataMsg>(&body)) {
      mix(m->packet.id), mix(m->to), mix_bytes(m->packet.payload);
    } else if (const auto* m = std::get_if<radio::AckMsg>(&body)) {
      mix(m->packet_id), mix(m->to);
    } else if (const auto* m = std::get_if<radio::PlainPacketMsg>(&body)) {
      mix(m->packet.id), mix(m->group_id), mix(m->index_in_group);
      mix_bytes(m->packet.payload);
    } else if (const auto* m = std::get_if<radio::CodedMsg>(&body)) {
      mix(m->group_id), mix(m->coeffs), mix_bytes(m->payload);
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  radio::Round now_ = 0;
};

struct Case {
  graph::Graph g;
  KBroadcastConfig cfg;
  Placement placement;
  std::uint64_t seed = 1;
  radio::FaultModel faults;
  bool collision_detection = false;
  KBroadcastNode::TestMutations mutations;
  /// Nodes the mutations apply to (empty = every node).
  std::vector<radio::NodeId> mutated_nodes;
  /// 0 => core::total_rounds_bound.
  std::uint64_t max_rounds = 0;
};

/// One run of `c`, wired like core::run_kbroadcast (minus observer and
/// tracer), with or without the decorator that hides the hints.
class Run {
 public:
  Run(const Case& c, bool hinted)
      : c_(c), rc_(resolve(c.cfg)), slab_(c.g.num_nodes()), net_(c.g) {
    if (c.faults.reception_loss_probability > 0.0) net_.set_fault_model(c.faults);
    if (c.collision_detection) net_.enable_collision_detection(true);
    net_.add_tap(&fingerprint_);
    if (!hinted) wrappers_.reserve(c.g.num_nodes());
    Rng master(c.seed);
    for (radio::NodeId v = 0; v < c.g.num_nodes(); ++v) {
      KBroadcastNode& node = slab_.emplace(rc_, v, c.placement[v], master.split());
      node.set_audit_sink(&fingerprint_);
      const bool mutate =
          c.mutated_nodes.empty() ||
          std::find(c.mutated_nodes.begin(), c.mutated_nodes.end(), v) !=
              c.mutated_nodes.end();
      if (mutate) node.set_test_mutations(c.mutations);
      nodes_.push_back(&node);
      if (hinted) {
        net_.set_protocol(v, &node);
      } else {
        net_.set_protocol(v, &wrappers_.emplace_back(node, /*hinted=*/false));
        node.set_payload_arena(&net_.payload_arena());
      }
      if (!c.placement[v].empty()) net_.wake_at_start(v);
    }
  }

  void step() { net_.step(); }

  /// Monotone completion check, as Network::run_until_done does it.
  bool all_done() {
    while (done_count_ < nodes_.size() && nodes_[done_count_]->done()) ++done_count_;
    return done_count_ == nodes_.size();
  }

  const radio::Network& net() const { return net_; }
  std::uint64_t fingerprint() const { return fingerprint_.hash(); }

  /// The RunResult fields exp::digest_run reads, computed as
  /// core::run_kbroadcast computes them.
  RunResult result(bool timed_out) const {
    const std::vector<radio::Packet> truth = placement_packets(c_.placement);
    RunResult r;
    r.n = c_.g.num_nodes();
    r.k = static_cast<std::uint32_t>(truth.size());
    r.timed_out = timed_out;
    r.total_rounds = net_.current_round();
    r.counters = net_.trace().counters();
    for (const KBroadcastNode* node : nodes_) {
      std::vector<radio::Packet> got = node->delivered_packets();
      std::sort(got.begin(), got.end(),
                [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
      if (got == truth) ++r.nodes_complete;
    }
    r.delivered_all = r.nodes_complete == c_.g.num_nodes();
    radio::NodeId leader = 0;
    for (radio::NodeId v = 0; v < c_.g.num_nodes(); ++v) {
      if (!c_.placement[v].empty()) leader = v;
    }
    const KBroadcastNode& ln = *nodes_[leader];
    r.stage1_rounds = rc_.stage1_rounds;
    r.stage2_rounds = rc_.stage2_rounds;
    if (ln.stage3_end() != 0) {
      r.stage3_rounds = ln.stage3_end() - rc_.stage3_start();
      if (r.total_rounds > ln.stage3_end()) r.stage4_rounds = r.total_rounds - ln.stage3_end();
    }
    if (const CollectionState* coll = ln.collection()) {
      r.collection_phases = coll->phases_run();
      r.final_estimate = coll->estimate();
    }
    return r;
  }

 private:
  const Case& c_;
  ResolvedConfig rc_;
  Fingerprint fingerprint_;
  radio::ProtocolSlab<KBroadcastNode> slab_;
  std::vector<Forwarder> wrappers_;
  radio::Network net_;
  std::vector<KBroadcastNode*> nodes_;
  std::size_t done_count_ = 0;
};

/// Runs `c` hinted and unhinted lock-step; returns the hinted result.
RunResult expect_identical(const Case& c) {
  Run hinted(c, /*hinted=*/true);
  Run unhinted(c, /*hinted=*/false);
  const std::uint64_t max_rounds =
      c.max_rounds != 0 ? c.max_rounds
                        : total_rounds_bound(placement_packets(c.placement).size(),
                                             resolve(c.cfg));
  bool done = false;
  for (std::uint64_t r = 0; r < max_rounds && !done; ++r) {
    hinted.step();
    unhinted.step();
    const radio::TraceCounters& a = hinted.net().trace().counters();
    const radio::TraceCounters& b = unhinted.net().trace().counters();
    if (!(a == b) || hinted.fingerprint() != unhinted.fingerprint()) {
      ADD_FAILURE() << "hinted and unhinted runs diverged in round " << r;
      return {};
    }
    done = hinted.all_done();
    EXPECT_EQ(done, unhinted.all_done()) << "round " << r;
  }
  const RunResult a = hinted.result(!done);
  EXPECT_EQ(exp::digest_run(a), exp::digest_run(unhinted.result(!done)));
  return a;
}

KBroadcastConfig exact_cfg(const graph::Graph& g) {
  KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  return cfg;
}

Case make_case(graph::Graph g, std::uint32_t k, PlacementMode mode,
               std::uint64_t seed) {
  Case c;
  c.cfg = exact_cfg(g);
  Rng prng(seed);
  c.placement = make_placement(g.num_nodes(), k, mode, /*payload_bytes=*/8, prng);
  c.g = std::move(g);
  c.seed = seed + 1;
  return c;
}

/// The hinted harness run must also be exactly what the production runner
/// produces for the same inputs.
void expect_matches_runner(const Case& c, const RunResult& hinted) {
  const RunResult prod =
      run_kbroadcast(c.g, c.cfg, c.placement, c.seed, c.max_rounds, c.faults,
                     nullptr, nullptr, c.collision_detection);
  EXPECT_EQ(exp::digest_run(hinted), exp::digest_run(prod));
}

TEST(HintOracle, Path) {
  const Case c = make_case(graph::make_path(24), 12, PlacementMode::kRandom, 10);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  expect_matches_runner(c, r);
}

TEST(HintOracle, Grid) {
  const Case c = make_case(graph::make_grid(6, 6), 20, PlacementMode::kSpreadEven, 20);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  expect_matches_runner(c, r);
}

TEST(HintOracle, Star) {
  const Case c = make_case(graph::make_star(20), 16, PlacementMode::kRandom, 30);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  expect_matches_runner(c, r);
}

TEST(HintOracle, Geometric) {
  Rng grng(40);
  const Case c = make_case(graph::make_random_geometric(48, 0.3, grng), 24,
                           PlacementMode::kRandom, 41);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  expect_matches_runner(c, r);
}

TEST(HintOracle, SingleSourceOneCollectionPhase) {
  const Case c = make_case(graph::make_path(16), 5, PlacementMode::kSingleSource, 50);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_EQ(r.collection_phases, 1u);
}

TEST(HintOracle, SeveralCollectionPhases) {
  // As in EndToEnd.LargeKForcesEstimateDoubling: k far past x0.
  graph::Graph g = graph::make_star(24);
  const auto k = static_cast<std::uint32_t>(resolve(exact_cfg(g)).initial_estimate * 16);
  const Case c = make_case(std::move(g), k, PlacementMode::kRandom, 60);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_GE(r.collection_phases, 2u);
  expect_matches_runner(c, r);
}

TEST(HintOracle, SeveralCollectionPhasesOnAGrid) {
  graph::Graph g = graph::make_grid(4, 4);
  const auto k = static_cast<std::uint32_t>(resolve(exact_cfg(g)).initial_estimate * 16);
  const Case c = make_case(std::move(g), k, PlacementMode::kRandom, 65);
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_GE(r.collection_phases, 2u);
}

TEST(HintOracle, UncodedDissemination) {
  Case c = make_case(graph::make_grid(5, 5), 12, PlacementMode::kRandom, 70);
  c.cfg.coded = false;
  const RunResult r = expect_identical(c);
  EXPECT_TRUE(r.delivered_all);
}

TEST(HintOracle, CollisionDetectionAblation) {
  Rng grng(80);
  Case c = make_case(graph::make_random_geometric(40, 0.3, grng), 16,
                     PlacementMode::kRandom, 81);
  c.collision_detection = true;
  const RunResult r = expect_identical(c);
  EXPECT_GT(r.counters.collision_slots, 0u);
  expect_matches_runner(c, r);
}

TEST(HintOracle, ReceptionLoss) {
  Rng grng(90);
  Case c = make_case(graph::make_random_geometric(40, 0.3, grng), 16,
                     PlacementMode::kRandom, 91);
  c.faults.reception_loss_probability = 0.05;
  c.faults.seed = 92;
  const RunResult r = expect_identical(c);
  EXPECT_GT(r.counters.fault_drops, 0u);
  expect_matches_runner(c, r);
}

TEST(HintOracle, MutationSuppressBfsTransmit) {
  // Cuts the path's only BFS route at node 6 (see AuditorMutations): the
  // far side never joins the tree and the run times out.
  Case c = make_case(graph::make_path(12), 3, PlacementMode::kSingleSource, 100);
  c.placement.assign(12, {});
  Rng prng(101);
  c.placement[0] = make_placement(1, 3, PlacementMode::kSingleSource, 8, prng)[0];
  c.mutations.suppress_bfs_transmit = true;
  c.mutated_nodes = {6};
  c.max_rounds = 30000;
  const RunResult r = expect_identical(c);
  EXPECT_FALSE(r.delivered_all);
}

TEST(HintOracle, MutationEarlyStage4) {
  Case c = make_case(graph::make_star(16), 4, PlacementMode::kSpreadEven, 110);
  c.mutations.early_stage4_rounds = 3;
  c.max_rounds = 30000;
  expect_identical(c);
}

TEST(HintOracle, MutationCorruptCodedPayload) {
  Case c = make_case(graph::make_star(16), 4, PlacementMode::kSpreadEven, 120);
  c.mutations.corrupt_coded_payload = true;
  c.max_rounds = 30000;
  expect_identical(c);
}

// --- Dynamic and stream nodes ------------------------------------------
//
// The same lock-step comparison for the open-system pipeline: setup, then
// collect/disseminate epochs over packets that keep arriving. Both runs go
// through a Forwarder (the hinted one passes the hints on), so the test
// also sees how many transmit calls the hints saved. Besides counters and
// the fingerprint, every round's first-hold events must agree.

/// A closed-mode DynamicBroadcastNode that reports its first holds to the
/// same sink StreamNode uses (the base class reports nothing).
class RecordingDynamicNode final : public DynamicBroadcastNode {
 public:
  RecordingDynamicNode(const DynamicConfig& cfg, radio::NodeId self, Rng rng,
                       stream::StreamEvents* events)
      : DynamicBroadcastNode(cfg, self, rng), events_(events) {}

 protected:
  void on_packet_delivered(const radio::Packet& packet) override {
    events_->held.push_back(packet.id);
  }

 private:
  stream::StreamEvents* events_;
};

struct DynamicCase {
  graph::Graph g;
  /// Protocol, buffers, horizon and seed, as stream::run_stream takes them.
  stream::StreamConfig cfg;
  /// StreamNodes behind bounded buffers (offer) instead of closed-mode
  /// DynamicBroadcastNodes (inject).
  bool stream = true;
  std::vector<Arrival> arrivals;  ///< sorted by round
};

/// One run of a DynamicCase, wired like stream::run_stream.
class DynamicRun {
 public:
  DynamicRun(const DynamicCase& c, bool hinted) : c_(c), net_(c.g) {
    net_.add_tap(&fingerprint_);
    const radio::NodeId n = c.g.num_nodes();
    wrappers_.reserve(n);
    Rng master(c.cfg.seed);
    for (radio::NodeId v = 0; v < n; ++v) {
      if (c.stream) {
        auto node = std::make_unique<stream::StreamNode>(
            c.cfg.dyn, v, master.split(), c.cfg.buffer_capacity, c.cfg.policy, &events_);
        stream_nodes_.push_back(node.get());
        nodes_.push_back(std::move(node));
      } else {
        nodes_.push_back(std::make_unique<RecordingDynamicNode>(c.cfg.dyn, v, master.split(),
                                                                &events_));
      }
      nodes_.back()->set_payload_arena(&net_.payload_arena());
      net_.set_protocol(v, &wrappers_.emplace_back(*nodes_.back(), hinted));
      net_.wake_at_start(v);
    }
  }

  /// Feeds this round's arrivals, steps, and returns the round's
  /// first-hold events in a canonical (sorted) order.
  std::vector<radio::PacketId> step() {
    const radio::Round round = net_.current_round();
    while (next_arrival_ < c_.arrivals.size() &&
           c_.arrivals[next_arrival_].round <= round) {
      const Arrival& a = c_.arrivals[next_arrival_++];
      if (c_.stream) {
        stream_nodes_[a.node]->offer(a.packet);
      } else {
        nodes_[a.node]->inject(a.packet);
      }
    }
    net_.step();
    std::vector<radio::PacketId> held = std::move(events_.held);
    events_.held.clear();
    std::sort(held.begin(), held.end());
    return held;
  }

  const radio::Network& net() const { return net_; }
  std::uint64_t fingerprint() const { return fingerprint_.hash(); }
  std::uint32_t max_epoch() const {
    std::uint32_t e = 0;
    for (const auto& node : nodes_) e = std::max(e, node->epochs_completed());
    return e;
  }
  const stream::StreamEvents& events() const { return events_; }
  const std::vector<std::unique_ptr<DynamicBroadcastNode>>& nodes() const {
    return nodes_;
  }
  const std::vector<stream::StreamNode*>& stream_nodes() const { return stream_nodes_; }
  std::uint64_t transmit_calls() const {
    std::uint64_t calls = 0;
    for (const Forwarder& w : wrappers_) calls += w.transmit_calls();
    return calls;
  }

 private:
  const DynamicCase& c_;
  Fingerprint fingerprint_;
  stream::StreamEvents events_;
  std::vector<std::unique_ptr<DynamicBroadcastNode>> nodes_;
  std::vector<stream::StreamNode*> stream_nodes_;
  std::vector<Forwarder> wrappers_;
  radio::Network net_;
  std::size_t next_arrival_ = 0;
};

std::vector<radio::PacketId> delivered_ids(const DynamicBroadcastNode& node) {
  std::vector<radio::PacketId> ids;
  for (const auto& entry : node.delivered()) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct DynamicOutcome {
  std::uint32_t epochs = 0;
  /// Rounds in which some node entered a new epoch (collection re-entry).
  std::vector<radio::Round> epoch_starts;
  std::uint64_t held_events = 0;
  std::uint64_t hinted_calls = 0;
  std::uint64_t unhinted_calls = 0;
  stream::QueueStats queue;  ///< merged over nodes (stream cases)
  radio::TraceCounters counters;
};

/// Runs `c` hinted and unhinted lock-step for c.cfg.horizon rounds.
DynamicOutcome expect_identical(const DynamicCase& c) {
  DynamicRun hinted(c, /*hinted=*/true);
  DynamicRun unhinted(c, /*hinted=*/false);
  DynamicOutcome out;
  for (std::uint64_t r = 0; r < c.cfg.horizon; ++r) {
    const std::vector<radio::PacketId> held = hinted.step();
    if (held != unhinted.step()) {
      ADD_FAILURE() << "first-hold events diverged in round " << r;
      return out;
    }
    const radio::TraceCounters& a = hinted.net().trace().counters();
    const radio::TraceCounters& b = unhinted.net().trace().counters();
    if (!(a == b) || hinted.fingerprint() != unhinted.fingerprint()) {
      ADD_FAILURE() << "hinted and unhinted runs diverged in round " << r;
      return out;
    }
    const std::uint32_t epoch = hinted.max_epoch();
    if (epoch != unhinted.max_epoch()) {
      ADD_FAILURE() << "epoch counts diverged in round " << r;
      return out;
    }
    if (epoch > out.epochs) out.epoch_starts.push_back(r);
    out.epochs = epoch;
    out.held_events += held.size();
  }
  for (radio::NodeId v = 0; v < c.g.num_nodes(); ++v) {
    EXPECT_EQ(delivered_ids(*hinted.nodes()[v]), delivered_ids(*unhinted.nodes()[v]))
        << "node " << v;
  }
  if (c.stream) {
    // StreamNode reports its epochs to the sink; it must agree with the
    // nodes' own counts.
    EXPECT_EQ(hinted.events().max_epoch, out.epochs);
    for (radio::NodeId v = 0; v < c.g.num_nodes(); ++v) {
      const stream::QueueStats& qa = hinted.stream_nodes()[v]->queue().stats();
      const stream::QueueStats& qb = unhinted.stream_nodes()[v]->queue().stats();
      EXPECT_EQ(qa.offered, qb.offered);
      EXPECT_EQ(qa.admitted, qb.admitted);
      EXPECT_EQ(qa.dropped, qb.dropped);
      EXPECT_EQ(qa.backpressured, qb.backpressured);
      EXPECT_EQ(qa.peak_depth, qb.peak_depth);
      out.queue.merge(qa);
    }
  }
  out.hinted_calls = hinted.transmit_calls();
  out.unhinted_calls = unhinted.transmit_calls();
  // The hints must actually be in effect, or the comparison proves nothing.
  EXPECT_LT(out.hinted_calls, out.unhinted_calls);
  out.counters = hinted.net().trace().counters();
  return out;
}

/// A stream case under capacity-relative offered `load`, over setup plus
/// `epochs` nominal epochs, with the driver's own arrival schedule.
DynamicCase stream_case(std::uint64_t seed, double load, std::uint32_t epochs) {
  DynamicCase c;
  Rng grng(seed);
  c.g = graph::make_random_geometric(16, 0.45, grng);
  stream::StreamConfig& cfg = c.cfg;
  cfg.dyn.rc = resolve(exact_cfg(c.g));
  cfg.dyn.batch_capacity = 8;
  cfg.arrivals.rate = stream::per_node_rate(cfg.dyn, c.g.num_nodes(), load);
  cfg.arrivals.seed = seed + 1;
  cfg.horizon = cfg.dyn.rc.stage3_start() +
                static_cast<std::uint64_t>(epochs) * stream::epoch_estimate_rounds(cfg.dyn);
  cfg.seed = seed + 2;
  c.arrivals = stream::make_arrival_schedule(c.g.num_nodes(), cfg.arrivals, cfg.horizon);
  return c;
}

Arrival make_arrival(radio::Round round, radio::NodeId node, std::uint32_t seq) {
  Arrival a;
  a.round = round;
  a.node = node;
  // Sequence numbers far above any the schedule generator hands out.
  a.packet.id = radio::make_packet_id(node, 1000000 + seq);
  a.packet.payload.assign(8, static_cast<std::uint8_t>(seq));
  return a;
}

TEST(DynamicHintOracle, StreamSeveralEpochs) {
  const DynamicCase c = stream_case(200, 0.5, 6);
  const DynamicOutcome r = expect_identical(c);
  EXPECT_GE(r.epochs, 3u);
  EXPECT_GT(r.held_events, 0u);
  // Far fewer upcalls: most node-rounds of an epoch are idle.
  EXPECT_LT(r.hinted_calls * 2, r.unhinted_calls);

  // The hinted harness is exactly the production driver.
  const stream::StreamResult prod = stream::run_stream(c.g, c.cfg);
  EXPECT_TRUE(prod.counters == r.counters);
  EXPECT_EQ(prod.epochs_completed, r.epochs);
  EXPECT_EQ(prod.queue.admitted, r.queue.admitted);
}

TEST(DynamicHintOracle, ClosedModeInjection) {
  DynamicCase c = stream_case(210, 0.5, 5);
  c.stream = false;
  const DynamicOutcome r = expect_identical(c);
  EXPECT_GE(r.epochs, 3u);
  EXPECT_GT(r.held_events, 0u);
}

TEST(DynamicHintOracle, CapacityOverflowCarriesOver) {
  // Every packet arrives during setup, so epoch 0 collects all of them and
  // its window can carry only `capacity`: the root defers the rest.
  DynamicCase c = stream_case(220, 0.5, 6);
  c.arrivals.clear();
  const radio::Round setup_end = c.cfg.dyn.rc.stage3_start();
  const std::uint32_t capacity = c.cfg.dyn.resolved_capacity();
  for (std::uint32_t i = 0; i < 3 * capacity; ++i) {
    c.arrivals.push_back(make_arrival(i * setup_end / (3 * capacity),
                                      i % c.g.num_nodes(), i));
  }
  const DynamicOutcome r = expect_identical(c);
  EXPECT_GE(r.epochs, 3u);
  EXPECT_EQ(r.queue.admitted, 3u * capacity);
}

TEST(DynamicHintOracle, ArrivalsOnEpochStartRounds) {
  // Pins arrivals to the rounds in which an epoch starts (and the rounds
  // either side). Arrivals at an epoch's first round join that epoch, so
  // they cannot move its start: each pass adds the next epoch's.
  for (const bool stream_nodes : {true, false}) {
    DynamicCase c = stream_case(230, 0.25, 6);
    c.stream = stream_nodes;
    std::uint32_t seq = 0;
    std::vector<radio::Round> starts = {c.cfg.dyn.rc.stage3_start()};
    for (std::size_t e = 0; e < 4; ++e) {
      for (const radio::Round r : {starts[e] - 1, starts[e], starts[e] + 1}) {
        c.arrivals.push_back(make_arrival(r, seq % c.g.num_nodes(), seq));
        ++seq;
      }
      std::stable_sort(c.arrivals.begin(), c.arrivals.end(),
                       [](const Arrival& x, const Arrival& y) { return x.round < y.round; });
      const DynamicOutcome pass = expect_identical(c);
      if (HasFailure()) return;
      // epoch_starts[i] is where epoch i+1 begins; epoch 0 begins at setup end.
      ASSERT_GT(pass.epoch_starts.size(), e) << "too few epochs";
      if (e > 0) EXPECT_EQ(pass.epoch_starts[e - 1], starts[e]);
      starts.push_back(pass.epoch_starts[e]);
    }
  }
}

TEST(DynamicHintOracle, BufferPolicies) {
  for (const stream::BufferPolicy policy :
       {stream::BufferPolicy::kDropNew, stream::BufferPolicy::kDropOld,
        stream::BufferPolicy::kBackpressure}) {
    DynamicCase c = stream_case(240, 4.0, 5);
    c.cfg.buffer_capacity = 2;
    c.cfg.policy = policy;
    const DynamicOutcome r = expect_identical(c);
    EXPECT_GE(r.epochs, 2u);
    if (policy == stream::BufferPolicy::kBackpressure) {
      EXPECT_GT(r.queue.backpressured, 0u);
      EXPECT_EQ(r.queue.dropped, 0u);
    } else {
      EXPECT_GT(r.queue.dropped, 0u);
    }
  }
}

}  // namespace
}  // namespace radiocast::core
