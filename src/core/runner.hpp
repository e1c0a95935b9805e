// End-to-end execution harness: builds a network over a topology, installs
// a protocol on every node, runs to completion, and verifies that every
// node ended up with a bit-exact copy of every packet.
//
// Runners are the single entry point used by the examples, the integration
// tests, and every bench — so all of them measure completion time the same
// way: the first round at which every node holds all k packets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "obs/observer.hpp"
#include "radio/message.hpp"
#include "radio/network.hpp"
#include "radio/trace.hpp"

namespace radiocast::obs {
class PacketTracer;
}

namespace radiocast::core {

class RunAuditor;

/// How the k packets are spread over the nodes initially.
enum class PlacementMode {
  kRandom,        ///< each packet lands on an independently uniform node
  kSingleSource,  ///< all packets start at one uniformly chosen node
  kSpreadEven,    ///< packets dealt round-robin over a random node subset
};

/// placement[v] = packets initially stored at node v.
using Placement = std::vector<std::vector<radio::Packet>>;

/// Generates k packets with `payload_bytes`-byte pseudo-random payloads and
/// places them per `mode`. Packet ids encode (origin, sequence).
Placement make_placement(std::uint32_t n, std::uint32_t k, PlacementMode mode,
                         std::uint32_t payload_bytes, Rng& rng);

/// All packets of a placement, sorted by id (the delivery ground truth).
std::vector<radio::Packet> placement_packets(const Placement& placement);

/// Everything one k-broadcast run reports: delivery verdict, per-stage
/// round accounting, and the engine's trace counters.
struct RunResult {
  bool delivered_all = false;  ///< every node holds every packet bit-exact
  bool timed_out = false;
  std::uint32_t nodes_complete = 0;  ///< nodes holding everything
  std::uint32_t n = 0;
  std::uint32_t k = 0;

  std::uint64_t total_rounds = 0;  ///< first all-complete round

  // Stage accounting (k-broadcast protocols only; zero otherwise).
  std::uint64_t stage1_rounds = 0;
  std::uint64_t stage2_rounds = 0;
  std::uint64_t stage3_rounds = 0;
  std::uint64_t stage4_rounds = 0;
  bool leader_ok = false;  ///< unique leader == max-id packet holder
  bool bfs_ok = false;     ///< all reachable nodes joined with exact distances
  std::uint32_t collection_phases = 0;
  std::uint64_t final_estimate = 0;

  radio::TraceCounters counters;

  /// Events the engine's bounded trace log discarded (radio::Trace::
  /// dropped_events). Zero unless event logging was enabled and overflowed
  /// — nonzero means per-event artifacts of this run are incomplete.
  std::uint64_t dropped_trace_events = 0;

  /// Flight-recorder metrics snapshot — filled only when an observer was
  /// passed to run_kbroadcast (empty otherwise). Span data stays on the
  /// observer itself (ask it for spans() / feed it to obs::write_*).
  obs::MetricsSnapshot metrics;

  double amortized_rounds_per_packet() const {
    return k == 0 ? 0.0 : static_cast<double>(total_rounds) / static_cast<double>(k);
  }
};

/// Runs the paper's protocol (or its uncoded variant, per cfg.coded).
/// `max_rounds` == 0 derives a generous bound from the schedule. `faults`
/// optionally injects external interference (see radio::FaultModel).
/// `observer`, when non-null, records the run's span tree (stages >
/// collection phases > OSPG/MSPG/ALARM epochs) and labelled metrics; the
/// runner feeds it per-round stats from the engine tap (obs::RoundFeed)
/// and wires it to the expected leader's protocol,
/// closes all spans at the end, and copies the metrics into the result.
/// `auditor`, when non-null, gets begin_run before the network is built,
/// every engine/protocol audit event during the run (the runner wires it
/// to the network and to *every* node), and end_run with the final result;
/// auditing is read-only, so an audited run is bit-identical to an
/// unaudited one. `collision_detection` forwards the engine ablation flag
/// (see radio::Network::enable_collision_detection).
/// `tracer`, when non-null, records per-packet lifecycle telemetry (first
/// receptions, decode rounds, flight paths — see obs/packet_trace.hpp);
/// the runner arms it with the run's ground truth and placement. Like the
/// auditor it is read-only: a traced run is bit-identical to an untraced
/// one. Every non-null sink goes on the engine tap, in the order auditor,
/// tracer, observer.
/// Note: a run with zero packets returns vacuously without building a
/// network, so the auditor and tracer are never invoked for it.
RunResult run_kbroadcast(const graph::Graph& g, const KBroadcastConfig& cfg,
                         const Placement& placement, std::uint64_t seed,
                         std::uint64_t max_rounds = 0,
                         const radio::FaultModel& faults = {},
                         obs::RunObserver* observer = nullptr,
                         RunAuditor* auditor = nullptr,
                         bool collision_detection = false,
                         obs::PacketTracer* tracer = nullptr);

}  // namespace radiocast::core
