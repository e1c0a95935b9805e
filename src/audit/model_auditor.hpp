// ModelAuditor — runtime model-conformance checking for k-broadcast runs.
//
// The auditor attaches to core::run_kbroadcast (see core::RunAuditor) and
// independently recomputes, every round, what the paper's model says must
// happen, from nothing but the raw transmission set and the topology. It
// never trusts the engine's own bookkeeping: schedule boundaries are
// recomputed from core::params/schedule arithmetic and coded payloads are
// re-encoded from the ground-truth packets. Any divergence lands in an
// AuditReport.
//
// Checks, grouped as in the paper:
//
//  Radio-model semantics (Section 1's model): delegated to an owned
//  audit::ChannelAuditor, which gets all eight engine events forwarded and
//  writes to the same report (see channel_auditor.hpp for its checks). On
//  top of it, exactly the packet origins must start awake.
//
//  Protocol discipline (Sections 2.1-2.4):
//   * per-node stage transitions are monotone leader -> BFS -> collection
//     -> dissemination, with boundaries at 0, stage1_rounds, stage3_start()
//     and the node's own recorded collection finish;
//   * Stage-3 phases start at x0 = initial_estimate, double exactly per
//     alarmed phase, and end only after an alarm-free phase; every
//     OSPG/MSPG/ALARM epoch matches grab_windows()/alarm_rounds budgets
//     round-for-round;
//   * message kinds respect the transmitter's stage window (alarms only in
//     Stage 1, BFS-construct only in Stage 2, data/ack/alarm in Stage 3,
//     plain/coded in Stage 4);
//   * BFS layers equal true graph distances from the elected leader, with
//     parent pointers one layer up (checked at end_run);
//   * exactly one leader is elected.
//
//  Delivery soundness:
//   * every DataMsg/PlainPacketMsg carries a bit-exact ground-truth packet;
//   * every CodedMsg payload equals the GF(2) combination of the group's
//     real wire images selected by its header coefficients (the group
//     partition is recomputed from the sorted truth);
//   * RunResult's delivery claims match an independent per-node recheck.
//
// Within a round, the channel's checks of the transmission set are
// reported before the per-transmission protocol and payload checks.
//
// The auditor is strictly read-only and consumes no randomness, so an
// audited run is bit-identical to an unaudited one (pinned by
// tests/audit/corpus_test.cpp). One instance audits one run at a time;
// begin_run re-arms all per-run state, so an instance can be reused
// sequentially (the report accumulates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/channel_auditor.hpp"
#include "audit/violation.hpp"
#include "core/audit.hpp"
#include "core/schedule.hpp"
#include "gf2/solver.hpp"

namespace radiocast::audit {

/// Independent re-derivation of every round's model-mandated outcomes
/// (see the file comment for the full check list).
class ModelAuditor final : public core::RunAuditor {
 public:
  /// `max_violations` caps stored violations; the count keeps incrementing.
  explicit ModelAuditor(std::size_t max_violations = 1024)
      : channel_(max_violations) {}

  /// Everything found so far (valid after end_run, or mid-run).
  const AuditReport& report() const { return channel_.report(); }
  /// True iff no violation has been recorded.
  bool clean() const { return report().clean(); }
  /// One-line human-readable summary ("clean" or the first violation).
  std::string summary() const { return report().summary(); }

  // --- core::RunAuditor ---
  void begin_run(const graph::Graph& g, const core::ResolvedConfig& rc,
                 const std::vector<radio::Packet>& truth,
                 const radio::FaultModel& faults,
                 bool collision_detection) override;
  void end_run(const radio::Network& net, const core::RunResult& result) override;

  // --- radio::NetworkAuditHook (forwarded to the ChannelAuditor) ---
  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override;
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override;
  void on_deliver(radio::Round round, radio::NodeId receiver,
                  std::uint32_t tx_index, const radio::Message& msg) override {
    channel_.on_deliver(round, receiver, tx_index, msg);
  }
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd_callback) override {
    channel_.on_collision_slot(round, receiver, reached, cd_callback);
  }
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override {
    channel_.on_deaf_slot(round, receiver, reached);
  }
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override {
    channel_.on_fault_drop(round, receiver, tx_index);
  }
  void on_node_wake(radio::Round round, radio::NodeId node) override {
    channel_.on_node_wake(round, node);
  }
  void on_round_end(radio::Round round) override { channel_.on_round_end(round); }

  // --- core::ProtocolAuditSink ---
  void on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                      radio::Round boundary_round) override;
  void on_collection_phase_begin(radio::NodeId node, std::uint32_t phase_index,
                                 std::uint64_t estimate,
                                 radio::Round round) override;
  void on_collection_epoch(radio::NodeId node, const char* kind,
                           std::uint64_t slots, std::uint32_t copies,
                           radio::Round round) override;
  void on_collection_phase_end(radio::NodeId node, radio::Round round,
                               bool alarmed) override;

 private:
  /// Per-node protocol-discipline tracking.
  struct NodeState {
    std::uint32_t stage = 0;  ///< last reported stage (0 = none yet)
    // Collection schedule tracking (absolute rounds).
    bool in_phase = false;
    std::uint32_t next_phase_index = 0;
    std::uint64_t estimate = 0;
    std::uint64_t phase_start = 0;
    std::uint64_t expected_phase_end = 0;
    std::vector<core::GatherWindow> windows;
    std::size_t next_window = 0;
    bool has_ended_phase = false;
    std::uint64_t last_phase_end = 0;
    bool last_phase_alarmed = false;
  };

  void violation(std::uint64_t round, std::uint32_t node, const char* check,
                 std::string detail) {
    channel_.report().add(round, node, check, std::move(detail));
  }
  void check_message_kind(radio::Round round, const radio::Message& tx);
  void check_message_payload(radio::Round round, const radio::Message& tx);

  /// The radio-model checker; owns the report both auditors write to.
  ChannelAuditor channel_;
  bool active_ = false;

  // Run context (begin_run).
  const graph::Graph* graph_ = nullptr;
  core::ResolvedConfig rc_;
  std::vector<radio::Packet> truth_;
  /// Stage-4 group partition recomputed from the sorted truth: wire images
  /// (id || payload) per group, chunked by rc_.group_size.
  std::vector<std::vector<gf2::Payload>> group_wires_;

  // Protocol-side per-node state.
  std::vector<NodeState> nodes_;
};

}  // namespace radiocast::audit
