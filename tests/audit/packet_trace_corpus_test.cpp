// PacketTracer cross-check on the pinned audit corpus: every corpus case
// is run untraced, traced (beside a ModelAuditor on the engine tap), and
// traced again. The auditor independently re-derives every reception the
// tracer consumes, so a clean audited run certifies the tracer's event
// stream; on top of that the traced results must be bit-identical to the
// untraced run (tracing is read-only), the tracer's first-hold records must
// be self-consistent with the run result, and the flight log must replay
// identically. A last run puts all three sinks on the tap at once (auditor,
// tracer, observer): each must see exactly what it sees alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "audit/corpus.hpp"
#include "audit/model_auditor.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/packet_trace.hpp"

namespace radiocast::audit {
namespace {

using FlightEvent = obs::PacketTracer::FlightEvent;
using Via = obs::PacketTracer::Via;

constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// Index of `id` in the sorted ground truth.
std::uint32_t index_of(const std::vector<radio::Packet>& truth,
                       radio::PacketId id) {
  const auto it = std::lower_bound(
      truth.begin(), truth.end(), id,
      [](const radio::Packet& p, radio::PacketId v) { return p.id < v; });
  EXPECT_TRUE(it != truth.end() && it->id == id);
  return static_cast<std::uint32_t>(it - truth.begin());
}

/// The observer's span tree and metrics, as written to telemetry.
std::string observer_jsonl(const obs::RunObserver& observer,
                           const core::RunResult& result) {
  std::ostringstream out;
  obs::write_run_jsonl(out, observer, result.total_rounds);
  return out.str();
}

bool same_flight_logs(const std::vector<FlightEvent>& a,
                      const std::vector<FlightEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].latency != b[i].latency || a[i].packet != b[i].packet ||
        a[i].node != b[i].node || a[i].from != b[i].from ||
        a[i].depth != b[i].depth || a[i].via != b[i].via)
      return false;
  }
  return true;
}

TEST(PacketTraceCorpus, TracerAgreesWithAuditorOnEveryCase) {
  for (const CorpusCase& c : pinned_corpus()) {
    SCOPED_TRACE(c.name);

    // Same recipe as run_corpus_case (audit/corpus.cpp) so the executions
    // are the exact pinned ones CI audits.
    Rng graph_rng(c.graph_seed);
    const graph::Graph g = graph::make_named(c.family, c.n, graph_rng);
    core::KBroadcastConfig cfg;
    cfg.know = radio::Knowledge::exact(g);
    cfg.coded = c.coded;
    Rng placement_rng(c.placement_seed);
    const core::Placement placement = core::make_placement(
        g.num_nodes(), c.k, c.placement, /*payload_bytes=*/16, placement_rng);
    radio::FaultModel faults;
    faults.reception_loss_probability = c.loss;
    faults.seed = c.run_seed ^ 0x5eedf001u;

    const core::RunResult plain =
        core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                             faults, /*observer=*/nullptr, /*auditor=*/nullptr,
                             c.collision_detection);

    ModelAuditor auditor;
    obs::PacketTracer tracer;
    const core::RunResult traced =
        core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                             faults, /*observer=*/nullptr, &auditor,
                             c.collision_detection, &tracer);

    // The auditor re-derives every reception the tracer consumed; a clean
    // report means the tracer's input stream matches the radio model.
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_TRUE(results_identical(plain, traced))
        << "tracing perturbed the run (tracer is not read-only?)";

    ASSERT_EQ(tracer.num_packets(), c.k);
    ASSERT_EQ(tracer.num_nodes(), c.n);
    const std::vector<radio::Packet> truth = core::placement_packets(placement);
    ASSERT_EQ(tracer.truth(), truth);

    // Placement origins hold their packets from round 0.
    for (radio::NodeId v = 0; v < c.n; ++v) {
      for (const radio::Packet& p : placement[v]) {
        const std::uint32_t idx = index_of(truth, p.id);
        EXPECT_EQ(tracer.latency(idx, v), 0u);
        EXPECT_EQ(tracer.via(idx, v), Via::kOrigin);
        EXPECT_EQ(tracer.hop_depth(idx, v), 0u);
      }
    }

    // Every first-hold record is consistent with the run's round count.
    std::size_t held_cells = 0;
    for (std::uint32_t p = 0; p < c.k; ++p) {
      for (radio::NodeId v = 0; v < c.n; ++v) {
        const std::uint64_t lat = tracer.latency(p, v);
        if (lat == kNever) {
          EXPECT_FALSE(tracer.held(p, v));
          continue;
        }
        ++held_cells;
        if (tracer.via(p, v) == Via::kOrigin) {
          EXPECT_EQ(lat, 0u);
        } else {
          EXPECT_GE(lat, 1u);
          EXPECT_LE(lat, traced.total_rounds);
          EXPECT_GE(tracer.hop_depth(p, v), 1u);
          EXPECT_LT(tracer.delivered_by(p, v), c.n);
        }
      }
      if (traced.delivered_all) EXPECT_EQ(tracer.undelivered(p), 0u) << "p=" << p;
    }

    // One flight event per held cell (the default cap is far above n*k),
    // in chronological order.
    EXPECT_EQ(tracer.dropped_flight_events(), 0u);
    EXPECT_EQ(tracer.flight_events().size(), held_cells);
    for (std::size_t i = 1; i < tracer.flight_events().size(); ++i) {
      EXPECT_LE(tracer.flight_events()[i - 1].latency,
                tracer.flight_events()[i].latency);
    }

    // Replaying the run (tracer only, no auditor) reproduces the flight
    // log event for event.
    obs::PacketTracer replay;
    const core::RunResult again =
        core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                             faults, /*observer=*/nullptr, /*auditor=*/nullptr,
                             c.collision_detection, &replay);
    EXPECT_TRUE(results_identical(plain, again));
    EXPECT_TRUE(same_flight_logs(tracer.flight_events(), replay.flight_events()))
        << "flight log not deterministic";

    // Fan-out: observer, auditor and tracer on one tap.
    obs::RunObserver observer_only;
    const core::RunResult observed =
        core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                             faults, &observer_only, /*auditor=*/nullptr,
                             c.collision_detection);
    obs::RunObserver all_observer;
    ModelAuditor all_auditor;
    obs::PacketTracer all_tracer;
    const core::RunResult all =
        core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                             faults, &all_observer, &all_auditor,
                             c.collision_detection, &all_tracer);
    EXPECT_TRUE(results_identical(plain, all));
    EXPECT_TRUE(same_flight_logs(replay.flight_events(), all_tracer.flight_events()));
    EXPECT_EQ(observer_jsonl(observer_only, observed), observer_jsonl(all_observer, all));
    EXPECT_TRUE(all_auditor.clean()) << all_auditor.summary();
  }
}

}  // namespace
}  // namespace radiocast::audit
