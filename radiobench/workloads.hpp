// Workloads and measurement pieces of the radiocast benchmark.
//
// Everything here drives the library through its public functions only —
// graph generation, knowledge, placement, core::run_kbroadcast,
// stream::run_stream, radio::Network::step and the gf2 coder — and times
// those calls from outside. Every run uses the reference path: the default
// scalar engine, one shard, one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "graph/graph.hpp"
#include "radio/knowledge.hpp"
#include "stream/driver.hpp"

namespace radiobench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benchmark workload. Closed workloads run a coded k-broadcast; the
/// stream workload runs the open system for a fixed number of epochs.
struct Workload {
  std::string name;
  bool stream = false;
  std::uint32_t n = 0;
  double radius = 0;
  /// Diameter bound D̂ the nodes are given: max(true D, d_hat). A fixed
  /// bound above every seed's D gives every seed the same schedule.
  std::uint32_t d_hat = 0;
  // Closed mode.
  std::uint32_t k = 0;
  std::uint32_t payload_bytes = 16;
  // Stream mode.
  double load = 0;
  std::uint32_t buffer = 64;
  std::uint32_t batch = 32;
  std::uint32_t epochs = 16;
};

/// The named workload at full size, or at the tiny size the benchmark's
/// own tests use (same shape, seconds instead of minutes). Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool tiny = false);

/// Topology, placement, protocol and arrival seeds, all derived from the
/// benchmark's one --seed.
struct Seeds {
  std::uint64_t graph = 0;
  std::uint64_t placement = 0;
  std::uint64_t protocol = 0;
  std::uint64_t arrivals = 0;
};
Seeds derive_seeds(std::uint64_t seed);

/// A workload's generated inputs (what the set-up phase produces).
struct Inputs {
  radiocast::graph::Graph graph;
  radiocast::radio::Knowledge know;      ///< exact, D̂ raised to Workload::d_hat
  radiocast::core::Placement placement;  ///< closed mode only
  double generate_s = 0;                 ///< make_random_geometric
  double knowledge_s = 0;                ///< Knowledge::exact (n BFS)
  double placement_s = 0;                ///< make_placement
  double total_s() const { return generate_s + knowledge_s + placement_s; }
};
Inputs make_inputs(const Workload& w, const Seeds& seeds);

radiocast::core::KBroadcastConfig closed_config(const Inputs& in);
radiocast::stream::StreamConfig stream_config(const Workload& w, const Inputs& in,
                                              const Seeds& seeds);

/// Host resource use of one call: wall, system time and minor faults.
struct Usage {
  double wall_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
};

struct ClosedRun {
  radiocast::core::RunResult result;
  Usage usage;
};
/// One untapped core::run_kbroadcast call on the reference path.
ClosedRun run_closed(const Inputs& in, const Seeds& seeds);

/// The closed-mode correctness verdict of one run.
bool closed_ok(const radiocast::core::RunResult& r);

struct StreamRun {
  radiocast::stream::StreamResult result;
  Usage usage;
};
StreamRun run_stream_once(const radiocast::stream::StreamConfig& cfg, const Inputs& in);

/// Conservation of packets: every arrival was delivered, dropped, or is
/// still in the system at the horizon.
bool stream_ok(const radiocast::stream::StreamResult& r);
/// Fingerprint of the deterministic StreamResult fields (equal across
/// runs of one workload and seed).
std::string stream_digest(const radiocast::stream::StreamResult& r);

/// Per-stage split of one traced closed run. Index 0..3 = paper stages 1..4.
struct StageSplit {
  double step_s[4] = {0, 0, 0, 0};
  std::uint64_t rounds[4] = {0, 0, 0, 0};
  std::uint64_t node_rounds[4] = {0, 0, 0, 0};
};

struct TracedRun {
  radiocast::core::RunResult result;  ///< rebuilt exactly as run_kbroadcast would
  StageSplit stages;
  double construct_s = 0;  ///< config resolution, slab, network, protocol wiring
  double loop_s = 0;       ///< the stepping loop, done checks included
  double tail_s = 0;       ///< verification plus teardown
  double wall_s = 0;       ///< the whole replica call
};

/// Rebuilds run_kbroadcast's wiring from public parts (resolve,
/// ProtocolSlab<KBroadcastNode>, Network, set_protocol, wake_at_start),
/// steps with Network::step stamping the clock once per round, and bins
/// each round by paper stage. Its result must equal run_kbroadcast's.
TracedRun run_traced(const radiocast::graph::Graph& g,
                     const radiocast::core::KBroadcastConfig& cfg,
                     const radiocast::core::Placement& placement, std::uint64_t seed);

/// Empty when the traced run reproduced `untraced` exactly (rounds,
/// TraceCounters, digest, stage bins) and its per-stage time covers at
/// least 95% of its loop; otherwise what differs.
std::string traced_mismatch(const radiocast::core::RunResult& untraced, const TracedRun& traced);

/// Per-operation cost of the gf2 coder at one group width and wire size,
/// replayed outside the simulation.
struct Gf2Cost {
  double encode_ns = 0;      ///< GroupEncoder::encode_random_word_into
  double decode_row_ns = 0;  ///< IncrementalDecoder::add_row_packed, per row,
                             ///< back-substitution amortized in
};
Gf2Cost replay_gf2(std::uint32_t width, std::uint32_t wire_bytes, double budget_s);

/// Counts checked runs. A run fails if its own verdict is false or its
/// digest differs from the first digest recorded for the workload.
class RunLedger {
 public:
  /// Records one run; returns false (and counts a failure) if it failed.
  bool record(bool ok, const std::string& digest);
  /// Counts a failed check that is not tied to a digest.
  void fail() { ++attempted_; ++failed_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_;
  }

 private:
  std::string reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double median(std::vector<double> v);

}  // namespace radiobench
