#include "audit/corpus.hpp"

#include <utility>

#include "common/assert.hpp"
#include "graph/generators.hpp"

namespace radiocast::audit {

const std::vector<CorpusCase>& pinned_corpus() {
  // Seeds are arbitrary but frozen: CI audits the same executions forever.
  // The grid covers every placement mode, loss in {0, 0.03}, CD on/off,
  // coded and uncoded dissemination, and topologies spanning the paper's
  // regimes (large-D path/grid, large-Δ star/clique-chain, random).
  static const std::vector<CorpusCase> corpus = {
      {"path_random", "path", 24, 6, core::PlacementMode::kRandom, 0.0, false,
       true, 11, 101, 201},
      {"path_random_cd", "path", 24, 6, core::PlacementMode::kRandom, 0.0, true,
       true, 11, 101, 202},
      {"star_single_source", "star", 32, 8, core::PlacementMode::kSingleSource,
       0.0, false, true, 12, 102, 203},
      {"star_single_source_lossy", "star", 32, 8,
       core::PlacementMode::kSingleSource, 0.03, false, true, 12, 102, 204},
      {"grid_spread", "grid", 36, 9, core::PlacementMode::kSpreadEven, 0.0,
       false, true, 13, 103, 205},
      {"grid_spread_lossy_cd", "grid", 36, 9, core::PlacementMode::kSpreadEven,
       0.03, true, true, 13, 103, 206},
      {"cluster_chain_random", "cluster_chain", 30, 10,
       core::PlacementMode::kRandom, 0.0, false, true, 14, 104, 207},
      {"cluster_chain_random_lossy", "cluster_chain", 30, 10,
       core::PlacementMode::kRandom, 0.03, false, true, 14, 104, 208},
      {"gnp_random", "gnp", 40, 8, core::PlacementMode::kRandom, 0.0, false,
       true, 15, 105, 209},
      {"gnp_spread_cd", "gnp", 40, 8, core::PlacementMode::kSpreadEven, 0.0,
       true, true, 15, 105, 210},
      {"tree_single_source_lossy", "random_tree", 28, 7,
       core::PlacementMode::kSingleSource, 0.03, false, true, 16, 106, 214},
      {"path_uncoded", "path", 20, 5, core::PlacementMode::kRandom, 0.0, false,
       false, 17, 107, 212},
      {"star_uncoded_lossy", "star", 24, 6, core::PlacementMode::kSpreadEven,
       0.03, false, false, 18, 108, 213},
  };
  return corpus;
}

bool results_identical(const core::RunResult& a, const core::RunResult& b) {
  return a.delivered_all == b.delivered_all && a.timed_out == b.timed_out &&
         a.nodes_complete == b.nodes_complete && a.n == b.n && a.k == b.k &&
         a.total_rounds == b.total_rounds && a.stage1_rounds == b.stage1_rounds &&
         a.stage2_rounds == b.stage2_rounds && a.stage3_rounds == b.stage3_rounds &&
         a.stage4_rounds == b.stage4_rounds && a.leader_ok == b.leader_ok &&
         a.bfs_ok == b.bfs_ok && a.collection_phases == b.collection_phases &&
         a.final_estimate == b.final_estimate && a.counters == b.counters;
}

CorpusOutcome run_corpus_case(const CorpusCase& c) {
  Rng graph_rng(c.graph_seed);
  const graph::Graph g = graph::make_named(c.family, c.n, graph_rng);

  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  cfg.coded = c.coded;

  Rng placement_rng(c.placement_seed);
  const core::Placement placement =
      core::make_placement(g.num_nodes(), c.k, c.placement, /*payload_bytes=*/16,
                           placement_rng);

  radio::FaultModel faults;
  faults.reception_loss_probability = c.loss;
  faults.seed = c.run_seed ^ 0x5eedf001u;

  CorpusOutcome out;
  ModelAuditor auditor;
  out.audited = core::run_kbroadcast(g, cfg, placement, c.run_seed,
                                     /*max_rounds=*/0, faults,
                                     /*observer=*/nullptr, &auditor,
                                     c.collision_detection);
  out.unaudited = core::run_kbroadcast(g, cfg, placement, c.run_seed,
                                       /*max_rounds=*/0, faults,
                                       /*observer=*/nullptr, /*auditor=*/nullptr,
                                       c.collision_detection);
  out.report = auditor.report();
  out.delivered = out.audited.delivered_all;
  out.bit_identical = results_identical(out.audited, out.unaudited);
  return out;
}

}  // namespace radiocast::audit
