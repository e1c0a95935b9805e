// Lock-step oracle for idle skipping: KBroadcastNode's published
// next-active-round hints against the same protocol with its hints hidden.
//
// Every test builds two identically seeded networks. In one the nodes are
// plain KBroadcastNodes, so the scalar engine skips the rounds their hints
// declare idle; in the other each node sits behind a forwarding decorator
// that swallows the hint, so every awake node is called every round (the
// behaviour before hints existed). After every round the two runs must
// agree on the trace counters and on a running fingerprint of everything
// observable: each transmission (sender and body), each reception outcome,
// each wake, and each stage/phase/epoch callback together with the round in
// which it fired. At the end the exp::digest_run of both runs must match,
// and the hinted run must match core::run_kbroadcast itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/audit.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "exp/run.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "radio/protocol_slab.hpp"

namespace radiocast::core {
namespace {

/// Test-only decorator: forwards every upcall to a KBroadcastNode but
/// publishes no hint, so the engine asks the node every round.
class Unhinted final : public radio::NodeProtocol {
 public:
  explicit Unhinted(KBroadcastNode& inner) : inner_(inner) {}

  void on_wake(radio::Round round) override { inner_.on_wake(round); }
  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    std::optional<radio::MessageBody> msg = inner_.on_transmit(round);
    inner_.take_next_active_round();
    return msg;
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    inner_.on_receive(round, msg);
  }
  void on_collision(radio::Round round) override { inner_.on_collision(round); }
  bool done() const override { return inner_.done(); }

 private:
  KBroadcastNode& inner_;
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
    net_.set_auditor(&fingerprint_);
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
        net_.set_protocol(v, &wrappers_.emplace_back(node));
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
  std::vector<Unhinted> wrappers_;
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

}  // namespace
}  // namespace radiocast::core
