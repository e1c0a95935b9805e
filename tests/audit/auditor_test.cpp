// Unit and integration tests of the ModelAuditor plumbing: clean runs
// audit clean, auditing is wired through run_kbroadcast and the Monte
// Carlo sweep driver, auditors are reusable across runs, and the network
// attachment rules fail loudly when misused.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "audit/corpus.hpp"
#include "audit/model_auditor.hpp"
#include "core/montecarlo.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast {
namespace {

core::Placement placement_for(const graph::Graph& g, std::uint32_t k,
                              std::uint64_t seed) {
  Rng rng(seed);
  return core::make_placement(g.num_nodes(), k, core::PlacementMode::kRandom,
                              /*payload_bytes=*/16, rng);
}

TEST(ModelAuditor, CleanRunAuditsClean) {
  const graph::Graph g = graph::make_path(16);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 4, 42);

  audit::ModelAuditor auditor;
  const core::RunResult result =
      core::run_kbroadcast(g, cfg, placement, /*seed=*/7, /*max_rounds=*/0, {},
                           /*observer=*/nullptr, &auditor);
  EXPECT_TRUE(result.delivered_all);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_EQ(auditor.summary(), "clean");
}

TEST(ModelAuditor, AuditedRunIsBitIdenticalToUnaudited) {
  const graph::Graph g = graph::make_star(20);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 5, 43);

  audit::ModelAuditor auditor;
  const core::RunResult audited =
      core::run_kbroadcast(g, cfg, placement, 9, 0, {}, nullptr, &auditor);
  const core::RunResult plain = core::run_kbroadcast(g, cfg, placement, 9);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_TRUE(audit::results_identical(audited, plain));
}

TEST(ModelAuditor, ReusableAcrossSequentialRuns) {
  const graph::Graph g = graph::make_cycle(12);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  audit::ModelAuditor auditor;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const core::Placement placement = placement_for(g, 3, seed);
    const core::RunResult result =
        core::run_kbroadcast(g, cfg, placement, seed, 0, {}, nullptr, &auditor);
    EXPECT_TRUE(result.delivered_all) << "seed " << seed;
    EXPECT_TRUE(auditor.clean()) << "seed " << seed << ": " << auditor.summary();
  }
}

TEST(ModelAuditor, AuditsLossyAndCollisionDetectionRuns) {
  const graph::Graph g = graph::make_grid(5, 5);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 6, 44);
  radio::FaultModel faults;
  faults.reception_loss_probability = 0.05;

  audit::ModelAuditor auditor;
  const core::RunResult result = core::run_kbroadcast(
      g, cfg, placement, 11, 0, faults, nullptr, &auditor,
      /*collision_detection=*/true);
  EXPECT_TRUE(result.delivered_all);
  EXPECT_GT(result.counters.fault_drops, 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

TEST(ModelAuditor, MonteCarloSweepWiresPerTrialAuditors) {
  const graph::Graph g = graph::make_cluster_chain(4, 5);
  constexpr int kTrials = 4;
  std::vector<audit::ModelAuditor> auditors(kTrials);

  core::montecarlo::KBroadcastSweep sweep;
  sweep.graph = &g;
  sweep.cfg.know = radio::Knowledge::exact(g);
  sweep.k = 5;
  sweep.placement_seed = [](int t) { return 1000 + t; };
  sweep.run_seed = [](int t) { return 2000 + t; };
  sweep.auditor = [&auditors](int t) { return &auditors[t]; };

  const std::vector<core::RunResult> audited =
      core::montecarlo::run_kbroadcast_sweep(sweep, kTrials);
  sweep.auditor = nullptr;
  const std::vector<core::RunResult> plain =
      core::montecarlo::run_kbroadcast_sweep(sweep, kTrials);

  ASSERT_EQ(audited.size(), plain.size());
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_TRUE(audited[t].delivered_all) << "trial " << t;
    EXPECT_TRUE(auditors[t].clean())
        << "trial " << t << ": " << auditors[t].summary();
    EXPECT_TRUE(audit::results_identical(audited[t], plain[t])) << "trial " << t;
  }
}

/// Never transmits; enough to step a network.
struct SilentNode final : radio::NodeProtocol {
  std::optional<radio::MessageBody> on_transmit(radio::Round) override {
    return std::nullopt;
  }
  void on_receive(radio::Round, const radio::Message&) override {}
};

TEST(ModelAuditor, NetworkAttachmentRules) {
  // Sinks join the engine tap before the first step, so each one sees the
  // initial wake set; adding one later fails loudly.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const graph::Graph g = graph::make_path(2);
  radio::Network net(g);
  for (radio::NodeId v = 0; v < 2; ++v) {
    net.set_protocol(v, std::make_unique<SilentNode>());
  }
  radio::NetworkAuditHook idle;  // every event has an empty default body
  net.add_tap(&idle);
  net.step();
  audit::ModelAuditor auditor;
  EXPECT_DEATH(net.add_tap(&auditor), "add_tap after the simulation started");
}

}  // namespace
}  // namespace radiocast
