#include "audit/channel_auditor.hpp"

#include "common/assert.hpp"

namespace radiocast::audit {

ChannelAuditor::ChannelAuditor(const graph::Graph& g, const Options& opts)
    : report_(opts.max_violations) {
  rearm(g, opts);
}

void ChannelAuditor::rearm(const graph::Graph& g, const Options& opts) {
  RC_ASSERT_MSG(g.finalized(), "auditor needs a finalized graph");
  graph_ = &g;
  opts_ = opts;
  const std::size_t n = g.num_nodes();
  current_round_ = 0;
  round_open_ = false;
  awake_.assign(n, 0);
  reach_.assign(n, 0);
  source_.assign(n, 0);
  transmitting_.assign(n, 0);
  outcome_.assign(n, Outcome::kNone);
  touched_.clear();
  tx_from_.clear();
}

void ChannelAuditor::on_sim_start(
    const std::vector<radio::NodeId>& initially_awake) {
  for (const radio::NodeId id : initially_awake) {
    if (id >= awake_.size()) {
      violation(0, id, "radio.initial_wake_range", "initial wake out of range");
      continue;
    }
    awake_[id] = 1;
  }
  if (opts_.expect_all_awake) {
    for (radio::NodeId v = 0; v < awake_.size(); ++v) {
      if (!awake_[v]) {
        violation(0, v, "run.initial_wake_set",
                  "node asleep at start of an all-awake run");
      }
    }
  }
}

void ChannelAuditor::on_transmissions(radio::Round round,
                                      const std::vector<radio::Message>& txs) {
  RC_ASSERT_MSG(graph_ != nullptr, "auditor was never armed");
  if (round_open_) {
    violation(round, 0, "radio.round_sequence", "round opened twice");
  }
  round_open_ = true;
  current_round_ = round;
  tx_from_.clear();

  radio::NodeId prev_from = 0;
  bool first = true;
  for (const radio::Message& tx : txs) {
    tx_from_.push_back(tx.from);
    if (tx.from >= awake_.size()) {
      violation(round, tx.from, "radio.tx_range", "transmitter id out of range");
      continue;
    }
    if (!first && tx.from <= prev_from) {
      violation(round, tx.from, "radio.tx_order",
                "transmissions not in ascending transmitter order");
    }
    prev_from = tx.from;
    first = false;
    if (!awake_[tx.from]) {
      violation(round, tx.from, "radio.sleeping_transmitter",
                "transmission from a node the model says is asleep");
    }
    transmitting_[tx.from] = 1;
  }

  // Independent reach recount from the topology.
  for (std::uint32_t t = 0; t < txs.size(); ++t) {
    if (txs[t].from >= awake_.size()) continue;
    for (const radio::NodeId v : graph_->neighbors(txs[t].from)) {
      if (reach_[v]++ == 0) {
        source_[v] = t;
        touched_.push_back(v);
      }
    }
  }
}

void ChannelAuditor::on_deliver(radio::Round round, radio::NodeId receiver,
                                std::uint32_t tx_index,
                                const radio::Message& msg) {
  RC_ASSERT(receiver < awake_.size());
  if (reach_[receiver] != 1) {
    violation(round, receiver, "radio.deliver_on_collision",
              "delivery with " + std::to_string(reach_[receiver]) +
                  " reaching transmissions (model: exactly 1)");
  }
  if (transmitting_[receiver]) {
    violation(round, receiver, "radio.deliver_while_transmitting",
              "delivery to a node that transmitted this round (half-duplex)");
  }
  if (tx_index >= tx_from_.size()) {
    violation(round, receiver, "radio.deliver_source",
              "delivery from out-of-range transmission index");
  } else {
    if (reach_[receiver] >= 1 && tx_index != source_[receiver]) {
      violation(round, receiver, "radio.deliver_source",
                "delivered transmission is not the reaching one");
    }
    if (msg.from != tx_from_[tx_index]) {
      violation(round, receiver, "radio.deliver_source",
                "message sender does not match the transmission slot");
    }
  }
  if (outcome_[receiver] == Outcome::kNone) outcome_[receiver] = Outcome::kDelivered;
}

void ChannelAuditor::on_collision_slot(radio::Round round, radio::NodeId receiver,
                                       std::uint32_t reached, bool cd_callback) {
  RC_ASSERT(receiver < awake_.size());
  if (reached < 2 || reached != reach_[receiver]) {
    violation(round, receiver, "radio.collision_count",
              "collision slot reports " + std::to_string(reached) +
                  " reaching, recount says " + std::to_string(reach_[receiver]));
  }
  if (transmitting_[receiver]) {
    violation(round, receiver, "radio.collision_while_transmitting",
              "collision outcome for a transmitting node (deaf slot expected)");
  }
  if (cd_callback != opts_.collision_detection) {
    violation(round, receiver, "radio.cd_ablation",
              cd_callback ? "on_collision fired without the CD ablation"
                          : "CD ablation enabled but no callback");
  }
  if (outcome_[receiver] == Outcome::kNone) outcome_[receiver] = Outcome::kCollision;
}

void ChannelAuditor::on_deaf_slot(radio::Round round, radio::NodeId receiver,
                                  std::uint32_t reached) {
  RC_ASSERT(receiver < awake_.size());
  if (!transmitting_[receiver]) {
    violation(round, receiver, "radio.deaf_not_transmitting",
              "deaf slot for a node that did not transmit");
  }
  if (reached == 0 || reached != reach_[receiver]) {
    violation(round, receiver, "radio.deaf_count",
              "deaf slot reports " + std::to_string(reached) +
                  " reaching, recount says " + std::to_string(reach_[receiver]));
  }
  if (outcome_[receiver] == Outcome::kNone) outcome_[receiver] = Outcome::kDeaf;
}

void ChannelAuditor::on_fault_drop(radio::Round round, radio::NodeId receiver,
                                   std::uint32_t tx_index) {
  RC_ASSERT(receiver < awake_.size());
  if (!opts_.faults_enabled) {
    violation(round, receiver, "radio.fault_without_model",
              "fault drop with reception_loss_probability == 0");
  }
  if (reach_[receiver] != 1 || transmitting_[receiver]) {
    violation(round, receiver, "radio.fault_slot",
              "fault erasure on a slot that was not a successful reception");
  }
  if (tx_index >= tx_from_.size() ||
      (reach_[receiver] >= 1 && tx_index != source_[receiver])) {
    violation(round, receiver, "radio.fault_source",
              "fault drop does not reference the reaching transmission");
  }
  if (outcome_[receiver] == Outcome::kNone) outcome_[receiver] = Outcome::kFaultDrop;
}

void ChannelAuditor::on_node_wake(radio::Round round, radio::NodeId node) {
  RC_ASSERT(node < awake_.size());
  if (awake_[node]) {
    violation(round, node, "radio.double_wake", "wake event for an awake node");
  }
  awake_[node] = 1;
}

void ChannelAuditor::on_round_end(radio::Round round) {
  if (!round_open_ || round != current_round_) {
    violation(round, 0, "radio.round_sequence",
              "round end does not match the opened round");
  }
  round_open_ = false;

  for (const radio::NodeId v : touched_) {
    const std::uint32_t reached = reach_[v];
    const Outcome got = outcome_[v];
    Outcome want = Outcome::kNone;
    if (transmitting_[v]) {
      want = Outcome::kDeaf;
    } else if (reached >= 2) {
      want = Outcome::kCollision;
    } else {
      // Exactly one reaching transmission, silent receiver: the model says
      // deliver; with the fault ablation the slot may be erased instead.
      want = Outcome::kDelivered;
    }
    const bool ok =
        got == want || (want == Outcome::kDelivered &&
                        got == Outcome::kFaultDrop && opts_.faults_enabled);
    if (!ok) {
      const auto name = [](Outcome o) {
        switch (o) {
          case Outcome::kNone: return "none";
          case Outcome::kDelivered: return "delivered";
          case Outcome::kCollision: return "collision";
          case Outcome::kDeaf: return "deaf";
          case Outcome::kFaultDrop: return "fault-drop";
        }
        return "?";
      };
      violation(round, v, "radio.outcome",
                std::string("expected ") + name(want) + ", engine reported " +
                    name(got) + " (" + std::to_string(reached) + " reaching)");
    }
    if (got == Outcome::kDelivered && !awake_[v]) {
      violation(round, v, "radio.wake_on_reception",
                "node received a message but was never woken");
    }
    reach_[v] = 0;
    outcome_[v] = Outcome::kNone;
  }
  touched_.clear();
  for (const radio::NodeId from : tx_from_) {
    if (from < transmitting_.size()) transmitting_[from] = 0;
  }
}

}  // namespace radiocast::audit
