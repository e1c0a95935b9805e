// Declarative experiment scenarios (the spec half of the orchestration
// layer — docs/experiments.md documents the schema this file implements).
//
// A scenario is a JSON document describing one experiment grid: a topology
// family, a workload (k, placement, payload), the algorithm set, optional
// fault / collision-detection ablation axes, and the seed grid. The
// executor (exp/run.hpp) expands the cross product of the swept axes into
// cells and runs every cell through core::montecarlo, so "new workload"
// means "new JSON file", not "new bench main()".
//
// Parsing is strict: unknown keys are rejected at every nesting level
// (typos fail loudly instead of silently running the default), duplicate
// keys are a parse error, and every value is range-checked by validate().
// serialize() emits the *resolved* spec — all defaults filled in, fields
// in schema order — which is the canonical form embedded in manifests and
// digested for reproducibility.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/jsonval.hpp"

namespace radiocast::exp {

/// Topology axis: a named graph family plus the shape knobs the scenario
/// may steer. Families without an explicit knob here take the bench
/// defaults of graph::make_named.
struct TopologySpec {
  std::string family = "geometric";
  std::uint32_t n = 64;
  std::uint64_t seed = 7;
  /// geometric only: connection radius (0 = make_named default).
  double radius = 0;
  /// gnp only: edge probability (0 = make_named default 2·ln n / n).
  double p = 0;
  /// cluster_chain only: clique size (0 = make_named default).
  std::uint32_t clique_size = 0;

  /// True when graph::make_named derives the whole shape from n (no
  /// explicit knob is set for this family).
  bool named_shape() const {
    return !((family == "geometric" && radius > 0) || (family == "gnp" && p > 0) ||
             (family == "cluster_chain" && clique_size > 0));
  }
};

/// What the nodes are told about (n̂, Δ̂, D̂) — see radio::Knowledge.
struct KnowledgeSpec {
  std::string mode = "exact";  ///< "exact" or "padded"
  double poly_power = 2.0;     ///< padded: n̂, Δ̂ exponent
  double d_factor = 2.0;       ///< padded: D̂ multiplier
};

/// How `radiocast report` renders the results of this scenario.
struct ReportSpec {
  /// Optional pivot axis ("algo"): one output row per remaining-axis
  /// combination, one column group per pivot label. Empty = plain mode,
  /// one output row per grid cell.
  std::string pivot;
  /// Metric fields emitted per pivot label (pivot mode only).
  std::vector<std::string> values;
  /// Optional ratio column "num/den:field" (e.g. "uncoded/coded:r_per_pkt").
  std::string ratio;
  /// Plain mode: metric columns after the axis columns (empty = default
  /// set rounds, r_per_pkt, phases, delivered, ok).
  std::vector<std::string> columns;
};

/// Per-packet lifecycle telemetry (obs/packet_trace.hpp): when enabled,
/// every pipeline-algorithm trial gets a PacketTracer and a channel-
/// utilization ledger, and the run emits a `radiocast-telemetry-v1` JSONL
/// artifact (digested into the manifest). Tracing is read-only — traced
/// results are byte-identical to untraced ones — so this block, like
/// `threads`, never perturbs the outcome, but unlike `threads` it *is*
/// part of the spec identity because it changes the artifact set.
struct TelemetrySpec {
  bool enabled = false;
  /// Record the per-packet flight log (event-ordered reception edges);
  /// adds the `flight` line type and the Chrome-trace export.
  bool flight_paths = false;
  /// Per-trial cap on retained ledger rows (aggregates are exact beyond
  /// the cap; per-round rows past it are dropped and counted).
  std::uint64_t ledger_rounds = 4096;
  /// Per-trial cap on retained flight events (dropped-event count is
  /// reported when exceeded).
  std::uint64_t max_flight_events = 1u << 20;
};

/// Dynamic-arrival scenarios (mode == "dynamic"): the open-problem
/// extension of core/dynamic.hpp, swept over offered load.
struct DynamicSpec {
  /// Offered load axis: packets per epoch relative to batch capacity.
  std::vector<double> load{0.5, 1.0, 2.0};
  /// Packets per dissemination window (0 = capacity derived from x₀).
  std::uint32_t batch_capacity = 32;
  /// Arrival window length in epochs.
  std::uint32_t arrival_epochs = 4;
};

/// Open-system streaming scenarios (mode == "stream"): packets arrive
/// continuously at every node and flow through bounded source buffers into
/// the pipelined epochs of src/stream/. The `stream` key is only legal —
/// and only serialized — when mode == "stream" (see scenario_to_json).
struct StreamSpec {
  /// Offered-load axis relative to pipeline capacity: 1.0 = the batch
  /// capacity arriving network-wide per nominal epoch.
  std::vector<double> rate{0.5, 1.0, 2.0};
  std::string process = "poisson";  ///< poisson | periodic
  /// Per-node bounded source-buffer axis (packets).
  std::vector<std::uint32_t> buffer{64};
  /// Full-buffer policy axis: drop_new | drop_old | backpressure.
  std::vector<std::string> policy{"drop_new"};
  /// Packets per dissemination window (0 = capacity derived from x₀).
  std::uint32_t batch_capacity = 32;
  /// Round budget, in nominal-epoch multiples.
  std::uint32_t horizon_epochs = 8;
  /// Saturation detector: backlog samples per sliding window, and the
  /// minimum growth across a window that latches "saturated".
  std::uint32_t saturation_window = 4;
  std::uint64_t saturation_min_growth = 8;
};

/// One fully-described experiment. Vector-valued fields are grid axes;
/// everything else is shared by all cells.
struct ScenarioSpec {
  std::string id;     ///< file-name-safe identifier (required)
  std::string title;  ///< human heading for the report
  std::string claim;  ///< the paper claim / question the scenario probes

  /// "kbroadcast" (static k-broadcast, the default), "dynamic" (finite
  /// arrival window) or "stream" (open system, continuous arrivals).
  std::string mode = "kbroadcast";

  TopologySpec topology;
  KnowledgeSpec knowledge;

  std::uint32_t payload_bytes = 16;

  // --- grid axes (kbroadcast mode) ---
  std::vector<std::string> algos{"coded"};  ///< coded|uncoded|seq_bgi|gossip
  /// random | single_source | spread_even (axis: E19 sweeps it).
  std::vector<std::string> placement{"random"};
  std::vector<std::uint32_t> k{16};
  std::vector<double> loss{0.0};              ///< fault model: reception loss
  std::vector<bool> collision_detection{false};  ///< engine CD ablation

  // --- seed grid ---
  int seeds = 3;                   ///< trials per cell
  std::uint64_t seed_base = 1000;  ///< root of all derived seeds

  std::uint64_t max_rounds = 0;  ///< 0 = schedule-derived bound
  bool audit = false;  ///< attach a ModelAuditor to every trial
  int threads = 0;     ///< 0 = RADIOCAST_BENCH_THREADS / hardware

  TelemetrySpec telemetry;
  DynamicSpec dynamic;
  StreamSpec stream;
  ReportSpec report;
};

/// Parses and validates a scenario document. Throws JsonError on syntax
/// errors, unknown keys, type mismatches, or out-of-range values.
ScenarioSpec parse_scenario(std::string_view json_text);

/// The resolved spec as a canonical JSON tree (schema order, defaults
/// materialized). parse(serialize(s)) == s.
JsonValue scenario_to_json(const ScenarioSpec& spec);

/// Canonical serialized form (pretty-printed, 2-space indent).
std::string serialize_scenario(const ScenarioSpec& spec);

/// The round kernel's name. The spec's "engine" key accepts only this
/// value, and the canonical form and the manifest environment always carry
/// it, so spec digests made when a second kernel existed stay valid.
inline constexpr const char* kEngineName = "scalar";

/// Memory pre-flight for closed (kbroadcast) runs: every node that finishes
/// holds all k packets, so n·max(k)·(payload_bytes + 8) bytes (payload plus
/// the 8-byte packet id) is a floor on what the run needs. Specs whose
/// floor exceeds this are rejected up front instead of being OOM-killed
/// mid-run.
inline constexpr std::uint64_t kMaxHeldPacketBytes = 1ULL << 36;

/// Topology pre-flight: specs whose expected undirected edge count
/// (p·n(n−1)/2 for gnp, n(n−1)/2·min(1, πr²) for geometric with an
/// explicit radius) exceeds this are rejected before the graph is built.
/// At 2^30 edges the CSR adjacency alone takes 8 GiB, on top of the
/// builder's per-vertex lists.
inline constexpr std::uint64_t kMaxExpectedEdges = 1ULL << 30;

/// Range/consistency checks beyond per-field types; throws JsonError.
/// parse_scenario calls this, so hand-built specs only need it when
/// constructed programmatically.
void validate_scenario(const ScenarioSpec& spec);

/// Derived seeds — the whole seed grid is a pure function of seed_base, so
/// manifests can list it and two runs of one spec agree byte-for-byte.
/// The formulas match the historical bench_util ones, so CLI-run scenarios
/// are comparable with old hand-run bench numbers at equal seed_base.
std::uint64_t placement_seed(const ScenarioSpec& spec, int trial);
std::uint64_t run_seed(const ScenarioSpec& spec, int trial);
std::uint64_t fault_seed(const ScenarioSpec& spec, int trial);
/// Root of the dedicated arrival stream (mode == "stream" only): arrivals
/// draw from their own RNG so closed runs stay draw-for-draw unchanged.
std::uint64_t arrival_seed(const ScenarioSpec& spec, int trial);

}  // namespace radiocast::exp
