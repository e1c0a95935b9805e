// RunObserver — the flight recorder's sink, wired through an end-to-end
// run (core::run_kbroadcast) when observability is requested.
//
// Two producers feed it:
//   * RoundFeed (below), a sink on the engine's event tap, calls on_round()
//     once per round with that round's channel-activity deltas
//     (allocation-free: the stats struct points into scratch arrays owned
//     by the feed);
//   * the k-broadcast protocol state machines (on the expected leader
//     node only — stage schedules are global, so one node's view is the
//     run's view) call the on_stage / on_collection_* hooks at stage
//     transitions, collection-phase boundaries (each doubling of the
//     estimate x), and OSPG/MSPG/ALARM epoch boundaries.
//
// The observer turns these into (a) a hierarchical span tree
// stage > phase > epoch whose sibling spans tile their parent exactly —
// per-epoch round counts sum to the run's total_rounds — and (b) labelled
// metrics: per-stage round/transmission/delivery/collision counters split
// by message kind, plus per-round activity histograms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "radio/audit_hook.hpp"
#include "radio/trace.hpp"

namespace radiocast::radio {
class Network;
}  // namespace radiocast::radio

namespace radiocast::obs {

/// One round's channel activity, reported by RoundFeed. The
/// per-kind arrays are parallel to `kind_names` and live in scratch owned
/// by the caller — valid only for the duration of on_round().
struct RoundStats {
  std::uint64_t round = 0;
  /// Nodes awake when the round's transmission decisions were made.
  std::uint32_t awake = 0;
  std::uint32_t transmissions = 0;
  std::uint32_t deliveries = 0;
  std::uint32_t collision_slots = 0;
  std::uint32_t deaf_slots = 0;
  std::uint32_t fault_drops = 0;
  std::uint32_t wakeups = 0;
  std::size_t num_kinds = 0;
  const char* const* kind_names = nullptr;
  const std::uint32_t* transmissions_by_kind = nullptr;
  const std::uint32_t* deliveries_by_kind = nullptr;
};

/// Channel-utilization ledger: how every round's slot budget was spent,
/// attributed to the protocol stage (and collection epoch) open when the
/// round ran. Fed by RunObserver::on_round when enabled.
///
/// Slot taxonomy per round (counts straight from RoundStats):
///   transmissions | deliveries (single-transmit successes) | collisions |
///   deaf (half-duplex losses at transmitters) | faults (erased
///   successes) | silent — awake listeners that heard nothing, derived as
///   (awake - transmissions) - ((deliveries - wakeups) + collisions +
///   faults) clamped at zero. The derivation is a lower bound: collision
///   and fault slots at still-sleeping nodes are indistinguishable from
///   awake-listener ones in the per-round deltas, and under the CD
///   ablation wake-ups can stem from collisions. Per-round rows are kept
///   up to `max_rounds` (drops counted, never silent); per-(stage, epoch)
///   aggregates always cover the whole run.
class ChannelLedger {
 public:
  struct Row {
    std::uint64_t round = 0;
    std::uint32_t stage = 0;  ///< index into stage_names()
    std::uint32_t epoch = 0;  ///< index into epoch_names(); 0 = none
    std::uint32_t awake = 0;
    std::uint32_t transmissions = 0;
    std::uint32_t deliveries = 0;
    std::uint32_t collisions = 0;
    std::uint32_t deaf = 0;
    std::uint32_t faults = 0;
    std::uint32_t silent = 0;
  };
  /// Whole-run totals for one (stage, epoch-kind) slice, in first-seen
  /// (i.e. chronological) order.
  struct Aggregate {
    std::string stage;
    std::string epoch;  ///< "" outside collection epochs
    std::uint64_t rounds = 0;
    std::uint64_t awake = 0;  ///< sum of per-round awake counts
    std::uint64_t transmissions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t collisions = 0;
    std::uint64_t deaf = 0;
    std::uint64_t faults = 0;
    std::uint64_t silent = 0;
  };

  explicit ChannelLedger(std::size_t max_rounds) : max_rounds_(max_rounds) {}

  /// The derived silent-slot count (see the class comment).
  static std::uint32_t silent_slots(const RoundStats& stats);

  void on_round(const RoundStats& stats, const std::string& stage,
                const std::string& epoch);

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped_rows() const { return dropped_rows_; }
  const std::vector<std::string>& stage_names() const { return stage_names_; }
  const std::vector<std::string>& epoch_names() const { return epoch_names_; }
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }

 private:
  std::uint32_t intern(std::vector<std::string>& names, const std::string& name);

  std::size_t max_rounds_;
  std::vector<Row> rows_;
  std::uint64_t dropped_rows_ = 0;
  std::vector<std::string> stage_names_;
  std::vector<std::string> epoch_names_{""};  ///< index 0 = "no epoch"
  std::vector<Aggregate> aggregates_;
  /// Cache of the aggregate slot the last round landed in (rounds switch
  /// stage/epoch rarely, so the linear re-scan is off the common path).
  std::size_t last_aggregate_ = SIZE_MAX;
};

/// The flight recorder's sink: channel stats + protocol hooks in, span
/// tree + labelled metrics out (see the file comment).
class RunObserver {
 public:
  /// Knobs for what gets recorded (all on by default).
  struct Options {
    SpanRecorder::Options recorder;
    /// Split per-stage transmission/delivery counters by message kind.
    bool per_kind_metrics = true;
    /// Record per-round transmission/delivery histograms per stage.
    bool round_histograms = true;
    /// Keep a per-round channel-utilization ledger (off by default: the
    /// per-round rows are telemetry-sized, not metrics-sized).
    bool channel_ledger = false;
    /// Per-round row cap for the ledger (aggregates are never capped).
    std::size_t ledger_max_rounds = 1u << 16;
  };

  RunObserver() : RunObserver(Options{}) {}
  explicit RunObserver(Options opts);

  // --- Fed by radio::Network (every round) ---
  /// Folds one round's channel activity into the current stage's metrics.
  void on_round(const RoundStats& stats);

  // --- Fed by the protocol state machines (leader node) ---
  /// A new stage begins at `round`; closes the previous stage (and any
  /// open phase/epoch spans). `stage_index` is 1-based.
  void on_stage(std::uint32_t stage_index, const char* name, std::uint64_t round);
  /// A Stage-3 collection phase begins with estimate x.
  void on_collection_phase_begin(std::uint32_t phase_index, std::uint64_t estimate,
                                 std::uint64_t round);
  /// An epoch within the current phase begins ("ospg", "mspg", "alarm");
  /// closes the previous epoch. `slots`/`copies` describe the gather
  /// window (0 for alarm epochs).
  void on_collection_epoch(const char* kind, std::uint64_t slots,
                           std::uint32_t copies, std::uint64_t round);
  /// The current phase ends; `alarmed` is the alarm outcome that decides
  /// between doubling and finishing.
  void on_collection_phase_end(std::uint64_t round, bool alarmed);

  /// Closes every span still open (the run is over at `end_round`).
  void finish(std::uint64_t end_round);

  // --- Results ---
  /// Live access to the underlying registry / recorder.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanRecorder& recorder() { return recorder_; }
  const SpanRecorder& recorder() const { return recorder_; }

  /// Point-in-time copies, safe to keep after the observer is destroyed.
  std::vector<Span> spans() const { return recorder_.snapshot(); }
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// Name of the stage currently open ("" before the first on_stage).
  const std::string& current_stage() const { return stage_name_; }

  /// The channel-utilization ledger (nullptr unless Options enabled it).
  const ChannelLedger* ledger() const { return ledger_.get(); }

 private:
  /// Re-resolves the cached per-stage instrument pointers (called on every
  /// stage transition; lookups are off the per-round hot path).
  void rebind_stage_instruments();
  void close_epoch(std::uint64_t round);
  void close_phase(std::uint64_t round);
  void close_stage(std::uint64_t round);

  Options opts_;
  MetricsRegistry metrics_;
  SpanRecorder recorder_;

  std::string stage_name_;
  std::string epoch_name_;  ///< open collection epoch ("" outside epochs)
  std::unique_ptr<ChannelLedger> ledger_;
  std::uint64_t stage_span_ = 0;
  std::uint64_t phase_span_ = 0;
  std::uint64_t epoch_span_ = 0;
  std::uint64_t last_round_seen_ = 0;

  // Hot-path instrument cache, rebound per stage.
  Counter* rounds_ = nullptr;
  Counter* transmissions_ = nullptr;
  Counter* deliveries_ = nullptr;
  Counter* collisions_ = nullptr;
  Counter* deaf_ = nullptr;
  Counter* fault_drops_ = nullptr;
  Counter* wakeups_ = nullptr;
  Histogram* tx_per_round_ = nullptr;
  Histogram* rx_per_round_ = nullptr;
  std::vector<Counter*> tx_by_kind_;
  std::vector<Counter*> rx_by_kind_;
  std::vector<std::string> kind_names_;
};

/// The RunObserver's engine-side producer: a sink on the network's event
/// tap (radio::Network::add_tap) that calls on_round once per round, at
/// on_round_end. Each RoundStats holds the network's counter deltas since
/// the previous round end (since on_sim_start for round 0, so round 0's
/// wakeups include the initial wakes) and the awake count when the round's
/// transmissions were decided.
class RoundFeed final : public radio::NetworkAuditHook {
 public:
  /// Both must outlive the feed's last event.
  RoundFeed(const radio::Network& net, RunObserver& observer)
      : net_(net), observer_(observer) {}

  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override;
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override;
  void on_round_end(radio::Round round) override;

 private:
  const radio::Network& net_;
  RunObserver& observer_;
  /// Counter values at the last round end; deltas are taken against these.
  radio::TraceCounters base_;
  std::uint32_t awake_ = 0;
  std::array<std::uint32_t, radio::kNumMessageKinds> tx_by_kind_{};
  std::array<std::uint32_t, radio::kNumMessageKinds> rx_by_kind_{};
};

}  // namespace radiocast::obs
