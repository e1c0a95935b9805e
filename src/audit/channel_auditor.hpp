// ChannelAuditor — the one radio-model conformance checker.
//
// A sink on the engine tap (radio::Network::add_tap) that re-derives
// Section 1's reception rules independently, from nothing but the raw
// transmission set and the adjacency lists:
//
//   * a node receives iff exactly one neighbor transmitted and the node
//     itself was silent; the engine's reach counts agree with a recount
//     straight from the adjacency lists;
//   * only awake nodes transmit; transmitters are deaf (half-duplex);
//     sleeping nodes wake on first reception;
//   * on_collision callbacks fire exactly iff the CD ablation is on — the
//     with/without collision detection split of the radio model;
//   * fault erasures only occur under a fault model, only on slots that
//     would otherwise deliver;
//   * every reached node gets exactly one outcome per round, reconciled
//     at on_round_end against the recomputed expectation.
//
// It knows nothing of the protocol running on top, so any caller that owns
// a radio::Network can attach it: the open-system stream driver does so
// directly, and audit::ModelAuditor owns one and adds the k-broadcast
// protocol checks on top, writing to the same AuditReport.
//
// Strictly read-only, no RNG draws: an audited run is bit-identical to an
// unaudited one. One instance audits one simulation at a time; rearm()
// points it at the next one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/violation.hpp"
#include "graph/graph.hpp"
#include "radio/audit_hook.hpp"

namespace radiocast::audit {

class ChannelAuditor final : public radio::NetworkAuditHook {
 public:
  struct Options {
    /// Reception-loss faults are enabled for this run (fault drops are
    /// legal iff true).
    bool faults_enabled = false;
    /// The collision-detection ablation is enabled (on_collision
    /// callbacks are legal iff true).
    bool collision_detection = false;
    /// If true, every node must be initially awake (the dynamic/stream
    /// setting); if false, the initial wake set is unconstrained.
    bool expect_all_awake = false;
    /// Cap on stored violations; the count keeps incrementing past it.
    std::size_t max_violations = 1024;
  };

  /// Armed for one simulation on `g`, which must outlive the run.
  ChannelAuditor(const graph::Graph& g, const Options& opts);
  /// Unarmed, with a report that keeps at most `max_violations`; rearm()
  /// before the first event.
  explicit ChannelAuditor(std::size_t max_violations) : report_(max_violations) {}

  /// Arms the auditor for a fresh simulation on `g` (which must outlive
  /// that run) under `opts`. The report keeps what earlier runs found; its
  /// cap stays the one fixed at construction.
  void rearm(const graph::Graph& g, const Options& opts);

  /// Shared with composing auditors, which add their own checks' findings.
  AuditReport& report() { return report_; }
  const AuditReport& report() const { return report_; }
  bool clean() const { return report_.clean(); }
  std::string summary() const { return report_.summary(); }

  /// The round most recently opened by on_transmissions.
  radio::Round current_round() const { return current_round_; }
  /// Whether the model says `v` is awake (valid once armed).
  bool is_awake(radio::NodeId v) const { return awake_[v] != 0; }

  // --- radio::NetworkAuditHook ---
  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override;
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override;
  void on_deliver(radio::Round round, radio::NodeId receiver,
                  std::uint32_t tx_index, const radio::Message& msg) override;
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd_callback) override;
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override;
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override;
  void on_node_wake(radio::Round round, radio::NodeId node) override;
  void on_round_end(radio::Round round) override;

 private:
  enum class Outcome : std::uint8_t {
    kNone,
    kDelivered,
    kCollision,
    kDeaf,
    kFaultDrop
  };

  void violation(std::uint64_t round, std::uint32_t node, const char* check,
                 std::string detail) {
    report_.add(round, node, check, std::move(detail));
  }

  const graph::Graph* graph_ = nullptr;
  Options opts_;
  AuditReport report_;

  radio::Round current_round_ = 0;
  bool round_open_ = false;
  std::vector<std::uint8_t> awake_;
  std::vector<std::uint32_t> reach_;
  std::vector<std::uint32_t> source_;  ///< first reaching tx index
  std::vector<std::uint8_t> transmitting_;
  std::vector<Outcome> outcome_;
  std::vector<radio::NodeId> touched_;
  std::vector<radio::NodeId> tx_from_;
};

}  // namespace radiocast::audit
