#include "audit/model_auditor.hpp"

#include <algorithm>
#include <string_view>
#include <variant>

#include "common/assert.hpp"
#include "core/dissemination.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/algorithms.hpp"

namespace radiocast::audit {

namespace {

/// Payload equality modulo trailing zero padding (GF(2) arithmetic may
/// grow payloads to the group's max wire size).
bool payload_eq_padded(const gf2::Payload& a, const gf2::Payload& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return false;
  }
  for (std::size_t i = common; i < a.size(); ++i) {
    if (a[i] != 0) return false;
  }
  for (std::size_t i = common; i < b.size(); ++i) {
    if (b[i] != 0) return false;
  }
  return true;
}

const radio::Packet* find_packet(const std::vector<radio::Packet>& truth,
                                 radio::PacketId id) {
  const auto it = std::lower_bound(
      truth.begin(), truth.end(), id,
      [](const radio::Packet& p, radio::PacketId v) { return p.id < v; });
  if (it == truth.end() || it->id != id) return nullptr;
  return &*it;
}

}  // namespace

void ModelAuditor::begin_run(const graph::Graph& g, const core::ResolvedConfig& rc,
                             const std::vector<radio::Packet>& truth,
                             const radio::FaultModel& faults,
                             bool collision_detection) {
  active_ = true;
  graph_ = &g;
  rc_ = rc;
  truth_ = truth;
  std::sort(truth_.begin(), truth_.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  ChannelAuditor::Options opts;
  opts.faults_enabled = faults.reception_loss_probability > 0.0;
  opts.collision_detection = collision_detection;
  channel_.rearm(g, opts);

  // Recompute the Stage-4 group partition from the truth alone — the same
  // sorted-by-id chunking DisseminationState::set_root_packets performs.
  group_wires_.clear();
  const std::uint32_t s = rc_.group_size;
  for (std::size_t begin = 0; begin < truth_.size(); begin += s) {
    const std::size_t end = std::min(truth_.size(), begin + s);
    std::vector<gf2::Payload> wires;
    wires.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      wires.push_back(core::packet_wire_image(truth_[i]));
    }
    group_wires_.push_back(std::move(wires));
  }

  nodes_.assign(g.num_nodes(), NodeState{});
}

void ModelAuditor::on_sim_start(const std::vector<radio::NodeId>& initially_awake) {
  RC_ASSERT(active_);
  channel_.on_sim_start(initially_awake);
  // run_kbroadcast's contract: exactly the packet origins start awake.
  const std::size_t n = nodes_.size();
  std::vector<std::uint8_t> expected(n, 0);
  for (const radio::Packet& p : truth_) {
    const radio::NodeId origin = radio::packet_origin(p.id);
    if (origin < n) expected[origin] = 1;
  }
  for (radio::NodeId v = 0; v < n; ++v) {
    if (expected[v] != channel_.is_awake(v)) {
      violation(0, v, "run.initial_wake_set",
                expected[v] ? "packet origin not awake at start"
                            : "non-participant awake at start");
    }
  }
}

void ModelAuditor::check_message_kind(radio::Round round, const radio::Message& tx) {
  const std::uint32_t stage =
      tx.from < nodes_.size() ? nodes_[tx.from].stage : 0;
  bool ok = false;
  const char* expected = "";
  switch (stage) {
    case 1:
      ok = std::holds_alternative<radio::AlarmMsg>(tx.body);
      expected = "alarm";
      break;
    case 2:
      ok = std::holds_alternative<radio::BfsConstructMsg>(tx.body);
      expected = "bfs";
      break;
    case 3:
      ok = std::holds_alternative<radio::DataMsg>(tx.body) ||
           std::holds_alternative<radio::AckMsg>(tx.body) ||
           std::holds_alternative<radio::AlarmMsg>(tx.body);
      expected = "data/ack/alarm";
      break;
    case 4:
      ok = std::holds_alternative<radio::PlainPacketMsg>(tx.body) ||
           std::holds_alternative<radio::CodedMsg>(tx.body);
      expected = "plain/coded";
      break;
    default:
      ok = false;
      expected = "none (no stage reported)";
      break;
  }
  if (!ok) {
    violation(round, tx.from, "protocol.kind_vs_stage",
              "kind '" + radio::message_kind(tx.body) + "' in stage " +
                  std::to_string(stage) + " (allowed: " + expected + ")");
  }
}

void ModelAuditor::check_message_payload(radio::Round round,
                                         const radio::Message& tx) {
  const auto check_packet = [&](const radio::Packet& p, const char* what) {
    const radio::Packet* want = find_packet(truth_, p.id);
    if (want == nullptr) {
      violation(round, tx.from, "delivery.unknown_packet",
                std::string(what) + " carries unknown packet id " +
                    std::to_string(p.id));
    } else if (want->payload != p.payload) {
      violation(round, tx.from, "delivery.payload_corrupt",
                std::string(what) + " payload differs from ground truth for id " +
                    std::to_string(p.id));
    }
  };

  if (const auto* data = std::get_if<radio::DataMsg>(&tx.body)) {
    check_packet(data->packet, "DataMsg");
    return;
  }
  if (const auto* plain = std::get_if<radio::PlainPacketMsg>(&tx.body)) {
    check_packet(plain->packet, "PlainPacketMsg");
    if (plain->group_count != group_wires_.size()) {
      violation(round, tx.from, "delivery.group_count",
                "PlainPacketMsg group_count " + std::to_string(plain->group_count) +
                    " != " + std::to_string(group_wires_.size()));
    }
    return;
  }
  if (const auto* coded = std::get_if<radio::CodedMsg>(&tx.body)) {
    if (coded->group_count != group_wires_.size() ||
        coded->group_id >= group_wires_.size()) {
      violation(round, tx.from, "delivery.group_count",
                "CodedMsg group " + std::to_string(coded->group_id) + "/" +
                    std::to_string(coded->group_count) + " vs true group count " +
                    std::to_string(group_wires_.size()));
      return;
    }
    const std::vector<gf2::Payload>& wires = group_wires_[coded->group_id];
    if (coded->group_size != wires.size()) {
      violation(round, tx.from, "delivery.group_size",
                "CodedMsg group_size " + std::to_string(coded->group_size) +
                    " != true size " + std::to_string(wires.size()));
      return;
    }
    if (wires.size() < 64 && (coded->coeffs >> wires.size()) != 0) {
      violation(round, tx.from, "delivery.coded_coeffs",
                "coefficient bits beyond the group size");
      return;
    }
    gf2::Payload expected;
    for (std::size_t i = 0; i < wires.size(); ++i) {
      if ((coded->coeffs >> i) & 1u) gf2::xor_into(expected, wires[i]);
    }
    if (!payload_eq_padded(expected, coded->payload)) {
      violation(round, tx.from, "delivery.coded_payload",
                "CodedMsg payload is not the GF(2) combination its header claims "
                "(group " +
                    std::to_string(coded->group_id) + ", coeffs " +
                    std::to_string(coded->coeffs) + ")");
    }
  }
}

void ModelAuditor::on_transmissions(radio::Round round,
                                    const std::vector<radio::Message>& txs) {
  RC_ASSERT(active_);
  channel_.on_transmissions(round, txs);
  for (const radio::Message& tx : txs) {
    if (tx.from >= nodes_.size()) continue;  // flagged radio.tx_range
    check_message_kind(round, tx);
    check_message_payload(round, tx);
  }
}

void ModelAuditor::on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                                  radio::Round boundary_round) {
  RC_ASSERT(active_ && node < nodes_.size());
  NodeState& st = nodes_[node];
  if (stage_index < 1 || stage_index > 4 || stage_index <= st.stage) {
    violation(channel_.current_round(), node, "protocol.stage_monotonicity",
              "stage " + std::to_string(stage_index) + " after stage " +
                  std::to_string(st.stage));
    st.stage = std::max(st.stage, stage_index);
    return;
  }
  std::uint64_t expected = 0;
  bool check_boundary = true;
  switch (stage_index) {
    case 1:
      expected = 0;
      break;
    case 2:
      expected = rc_.stage1_rounds;
      break;
    case 3:
      expected = rc_.stage3_start();
      break;
    case 4:
      // The node's own schedule: Stage 4 starts exactly where its recorded
      // collection ended, and only after an alarm-free phase.
      if (!st.has_ended_phase) {
        violation(channel_.current_round(), node, "protocol.stage4_boundary",
                  "entered dissemination without a recorded collection finish");
        check_boundary = false;
      } else {
        expected = st.last_phase_end;
        if (st.last_phase_alarmed) {
          violation(channel_.current_round(), node, "protocol.stage4_after_alarm",
                    "entered dissemination after an alarmed phase");
        }
      }
      break;
    default:
      check_boundary = false;
      break;
  }
  if (check_boundary && boundary_round != expected) {
    violation(channel_.current_round(), node,
              stage_index == 4 ? "protocol.stage4_boundary"
                               : "protocol.stage_boundary",
              "stage " + std::to_string(stage_index) + " boundary " +
                  std::to_string(boundary_round) + ", schedule says " +
                  std::to_string(expected));
  }
  st.stage = stage_index;
}

void ModelAuditor::on_collection_phase_begin(radio::NodeId node,
                                             std::uint32_t phase_index,
                                             std::uint64_t estimate,
                                             radio::Round round) {
  RC_ASSERT(active_ && node < nodes_.size());
  NodeState& st = nodes_[node];
  if (st.in_phase) {
    violation(round, node, "protocol.phase_nesting",
              "phase begins inside an unfinished phase");
  }
  if (phase_index != st.next_phase_index) {
    violation(round, node, "protocol.phase_index",
              "phase " + std::to_string(phase_index) + ", expected " +
                  std::to_string(st.next_phase_index));
  }
  const std::uint64_t expected_estimate =
      phase_index < 63 ? rc_.initial_estimate << phase_index : 0;
  if (estimate != expected_estimate) {
    violation(round, node, "protocol.estimate_doubling",
              "estimate " + std::to_string(estimate) + " at phase " +
                  std::to_string(phase_index) + ", schedule says " +
                  std::to_string(expected_estimate) + " (x0 doubled per phase)");
  }
  const std::uint64_t expected_start =
      st.has_ended_phase ? st.last_phase_end : rc_.stage3_start();
  if (round != expected_start) {
    violation(round, node, "protocol.phase_boundary",
              "phase starts at " + std::to_string(round) + ", schedule says " +
                  std::to_string(expected_start));
  }
  if (st.has_ended_phase && !st.last_phase_alarmed) {
    violation(round, node, "protocol.phase_after_quiet",
              "new phase after an alarm-free phase (stage should have ended)");
  }
  st.in_phase = true;
  st.estimate = estimate;
  st.phase_start = round;
  st.windows = core::grab_windows(estimate, rc_);
  st.next_window = 0;
  st.expected_phase_end =
      round + st.windows.back().end() + rc_.alarm_rounds;
}

void ModelAuditor::on_collection_epoch(radio::NodeId node, const char* kind,
                                       std::uint64_t slots, std::uint32_t copies,
                                       radio::Round round) {
  RC_ASSERT(active_ && node < nodes_.size());
  NodeState& st = nodes_[node];
  if (!st.in_phase) {
    violation(round, node, "protocol.epoch_outside_phase",
              "epoch event outside any phase");
    return;
  }
  const std::string_view k(kind);
  if (k == "alarm") {
    const std::uint64_t expected = st.phase_start + st.windows.back().end();
    if (round != expected) {
      violation(round, node, "protocol.alarm_round",
                "alarm window at " + std::to_string(round) + ", schedule says " +
                    std::to_string(expected));
    }
    // The alarm epoch consumes whatever gather windows remain (a node woken
    // mid-phase may not have reported them all); none may follow it.
    st.next_window = st.windows.size();
    return;
  }
  if (st.next_window >= st.windows.size()) {
    violation(round, node, "protocol.epoch_overflow",
              "gather window after the schedule's last one");
    return;
  }
  const core::GatherWindow& w = st.windows[st.next_window];
  const std::string_view expected_kind = w.copies > 1 ? "mspg" : "ospg";
  if (k != expected_kind || slots != w.slots || copies != w.copies ||
      round != st.phase_start + w.start) {
    violation(round, node, "protocol.gather_window",
              "window " + std::to_string(st.next_window) + " is " +
                  std::string(k) + "(" + std::to_string(slots) + "," +
                  std::to_string(copies) + ")@" + std::to_string(round) +
                  ", schedule says " + std::string(expected_kind) + "(" +
                  std::to_string(w.slots) + "," + std::to_string(w.copies) +
                  ")@" + std::to_string(st.phase_start + w.start));
  }
  ++st.next_window;
}

void ModelAuditor::on_collection_phase_end(radio::NodeId node, radio::Round round,
                                           bool alarmed) {
  RC_ASSERT(active_ && node < nodes_.size());
  NodeState& st = nodes_[node];
  if (!st.in_phase) {
    violation(round, node, "protocol.phase_nesting", "phase end without begin");
    return;
  }
  if (round != st.expected_phase_end) {
    violation(round, node, "protocol.phase_rounds",
              "phase ends at " + std::to_string(round) + ", budget says " +
                  std::to_string(st.expected_phase_end) + " (GRAB(" +
                  std::to_string(st.estimate) + ") + ALARM)");
  }
  st.in_phase = false;
  ++st.next_phase_index;
  st.has_ended_phase = true;
  st.last_phase_end = round;
  st.last_phase_alarmed = alarmed;
}

void ModelAuditor::end_run(const radio::Network& net,
                           const core::RunResult& result) {
  RC_ASSERT(active_);
  active_ = false;
  const radio::Round round = net.current_round();
  const radio::NodeId n = net.num_nodes();

  // --- Leader uniqueness + BFS layers vs true graph distances ---
  std::vector<radio::NodeId> leaders;
  for (radio::NodeId v = 0; v < n; ++v) {
    const auto& node = static_cast<const core::KBroadcastNode&>(net.protocol(v));
    if (node.is_leader()) leaders.push_back(v);
  }
  if (leaders.size() != 1) {
    violation(round, leaders.empty() ? 0 : leaders[1], "protocol.unique_leader",
              std::to_string(leaders.size()) + " nodes consider themselves leader");
  }
  if (!leaders.empty()) {
    const graph::BfsResult bfs = graph::bfs(*graph_, leaders.front());
    for (radio::NodeId v = 0; v < n; ++v) {
      if (bfs.dist[v] == graph::kUnreachable) continue;
      const auto& node = static_cast<const core::KBroadcastNode&>(net.protocol(v));
      if (v == leaders.front()) continue;
      if (!node.has_bfs_distance()) {
        violation(round, v, "protocol.bfs_layer",
                  "reachable node never joined the BFS tree");
        continue;
      }
      if (node.bfs_distance() != bfs.dist[v]) {
        violation(round, v, "protocol.bfs_layer",
                  "BFS layer " + std::to_string(node.bfs_distance()) +
                      ", true distance " + std::to_string(bfs.dist[v]));
      }
      const radio::NodeId parent = node.bfs_parent();
      if (parent >= n || bfs.dist[parent] + 1 != node.bfs_distance() ||
          !graph_->has_edge(v, parent)) {
        violation(round, v, "protocol.bfs_parent",
                  "BFS parent " + std::to_string(parent) +
                      " is not a neighbor one layer up");
      }
    }
  }

  // --- Delivery claims vs an independent per-node recheck ---
  std::uint32_t complete = 0;
  for (radio::NodeId v = 0; v < n; ++v) {
    const auto& node = static_cast<const core::KBroadcastNode&>(net.protocol(v));
    std::vector<radio::Packet> got = node.delivered_packets();
    std::sort(got.begin(), got.end(),
              [](const radio::Packet& a, const radio::Packet& b) {
                return a.id < b.id;
              });
    if (got == truth_) ++complete;
  }
  if (complete != result.nodes_complete) {
    violation(round, 0, "delivery.result_mismatch",
              "RunResult claims " + std::to_string(result.nodes_complete) +
                  " complete nodes, recheck counts " + std::to_string(complete));
  }
  if (result.delivered_all != (complete == n)) {
    violation(round, 0, "delivery.result_mismatch",
              "RunResult.delivered_all disagrees with the per-node recheck");
  }
  if (result.delivered_all && result.timed_out) {
    violation(round, 0, "delivery.result_mismatch",
              "delivered_all and timed_out are both set");
  }
}

}  // namespace radiocast::audit
