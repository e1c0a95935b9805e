// StreamDriver — the open-system harness: continuous arrivals through
// bounded source buffers over the pipelined collect→disseminate epochs of
// core::DynamicBroadcastNode, run to a round budget.
//
// The closed harness (core::run_dynamic_broadcast) injects a finite
// arrival list and polls delivery every 64 rounds; this driver instead
//
//   * materializes an unbounded-horizon arrival schedule from a dedicated
//     RNG stream (stream/arrivals.hpp),
//   * routes every arrival through a per-node SourceQueue with a
//     configurable full-buffer policy (stream/queue.hpp),
//   * drains first-hold events from every node every round, so per-packet
//     delivery latencies are round-exact and fold into an
//     obs::LogHistogram (thread-invariant percentiles),
//   * samples the number in system — buffered + backpressure-held +
//     in-flight packets — at every epoch boundary into an obs::QueueLedger
//     and a SaturationDetector (a growing number in system is the
//     queueing-theoretic signature of offered load beyond capacity; source
//     depth alone would miss backlog parked in the root's queue), and
//   * reports achieved throughput both raw (delivered packets per round)
//     and normalized by log2(n̂) — the Θ(1/log n) achievable-throughput
//     bound of Ghaffari–Haeupler–Khabbazian (arXiv:1302.0264) makes the
//     normalized figure the natural "fraction of optimal" scale.
//
// Attach-an-auditor support: with StreamConfig::audit the run carries an
// audit::ChannelAuditor that independently re-derives every reception
// outcome from the topology (read-only — audited runs are bit-identical
// to unaudited ones).
#pragma once

#include <cstdint>
#include <string>

#include "audit/violation.hpp"
#include "core/dynamic.hpp"
#include "graph/graph.hpp"
#include "obs/histogram.hpp"
#include "obs/queue_ledger.hpp"
#include "stream/arrivals.hpp"
#include "stream/queue.hpp"

namespace radiocast::stream {

struct StreamConfig {
  core::DynamicConfig dyn;
  /// Arrival process; `arrivals.rate` is per node per round (use
  /// per_node_rate to derive it from a capacity-relative offered load).
  ArrivalConfig arrivals;
  /// Bounded source-buffer capacity per node (packets).
  std::uint32_t buffer_capacity = 64;
  BufferPolicy policy = BufferPolicy::kDropNew;
  SaturationConfig saturation;
  /// Round budget (the run always executes exactly this many rounds).
  std::uint64_t horizon = 0;
  /// Master seed of the per-node protocol RNGs (split in node order,
  /// exactly as in core::run_dynamic_broadcast).
  std::uint64_t seed = 0;
  /// Attach an audit::ChannelAuditor for the whole run.
  bool audit = false;
  /// Row cap of the backlog ledger (totals stay exact past it).
  std::size_t ledger_max_rows = 4096;
};

struct StreamResult {
  std::uint32_t n = 0;
  std::uint64_t horizon = 0;
  /// Nominal rounds of one epoch (first-phase collection + dissemination
  /// window) — the load-normalization denominator.
  std::uint64_t epoch_estimate = 0;
  std::uint64_t arrivals_scheduled = 0;  ///< schedule size over the horizon
  /// Source-buffer counters aggregated over all nodes.
  QueueStats queue;
  /// Packets held by every node by the end of the run.
  std::uint64_t delivered_everywhere = 0;
  double throughput = 0;             ///< delivered_everywhere / horizon
  /// throughput × log2(n̂): fraction of the Θ(1/log n) capacity bound.
  double normalized_throughput = 0;
  /// Arrival → held-everywhere latency (rounds), queueing delay included.
  obs::LogHistogram latency;
  /// Number in system (buffered + held back + in flight) at the horizon —
  /// the backlog a longer run would have had to drain.
  std::uint64_t in_system_end = 0;
  bool saturated = false;
  std::uint64_t saturation_onset_round = 0;  ///< valid iff saturated
  std::uint32_t epochs_completed = 0;        ///< max over nodes
  /// Backlog samples, one per epoch boundary plus the final round.
  obs::QueueLedger ledger{0};
  radio::TraceCounters counters;
  bool audited = false;
  std::uint64_t audit_violations = 0;
  std::string audit_summary;  ///< "clean" or first violation (audited only)
};

/// Nominal epoch length: first-phase collection rounds + dissemination
/// window. The steady-state epoch is usually shorter (collection is
/// alarm-synchronized), so capacity normalized by this is conservative.
std::uint64_t epoch_estimate_rounds(const core::DynamicConfig& dyn);

/// Per-node per-round arrival rate for a capacity-relative offered load:
/// `load` = 1.0 means the pipeline's batch capacity arrives network-wide
/// per nominal epoch.
double per_node_rate(const core::DynamicConfig& dyn, std::uint32_t n,
                     double load);

/// Runs the open system for exactly cfg.horizon rounds. Deterministic:
/// the result is a pure function of (g, cfg), independent of wall clock or
/// host.
StreamResult run_stream(const graph::Graph& g, const StreamConfig& cfg);

}  // namespace radiocast::stream
