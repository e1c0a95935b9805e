#include "core/protocol.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "core/audit.hpp"

namespace radiocast::core {

namespace {
protocols::LeaderElectionState::Config leader_config(const ResolvedConfig& rc) {
  protocols::LeaderElectionState::Config cfg;
  cfg.know = rc.know;
  cfg.probe_epochs = rc.leader_probe_epochs;
  return cfg;
}
}  // namespace

KBroadcastNode::KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                               std::vector<radio::Packet> own_packets, Rng rng)
    : rc_(rc),
      self_(self),
      own_packets_(std::move(own_packets)),
      rng_(rng),
      leader_(leader_config(rc), self, /*participant=*/!own_packets_.empty(), &rng_) {
  stage2_start_ = rc_.stage1_rounds;
  stage3_start_ = rc_.stage1_rounds + rc_.stage2_rounds;
  RC_ASSERT(leader_.total_rounds() == rc_.stage1_rounds);
}

KBroadcastNode::Stage KBroadcastNode::stage_for(radio::Round round) const {
  if (round < stage2_start_) return Stage::kLeader;
  if (round < stage3_start_) return Stage::kBfs;
  if (stage3_end_ == 0 || round < stage3_end_) return Stage::kCollection;
  return Stage::kDissemination;
}

void KBroadcastNode::ensure_stage(radio::Round round) {
  if (round >= stage2_start_ && !bfs_.has_value()) {
    leader_.finalize();
    protocols::BfsBuildState::Config cfg;
    cfg.know = rc_.know;
    cfg.epochs_per_phase = rc_.bfs_epochs_per_phase;
    cfg.extra_phases = rc_.bfs_phases - rc_.know.d_hat;
    bfs_.emplace(cfg, self_, /*is_root=*/leader_.is_leader(), &rng_);
  }
  if (round >= stage3_start_ && !collection_.has_value()) {
    CollectionState::Config cfg{rc_};
    cfg.observer = observer_;
    cfg.observer_round_offset = stage3_start_;
    cfg.audit = audit_;
    cfg.audit_node = self_;
    std::optional<radio::NodeId> parent;
    const bool is_root = leader_.is_leader();
    if (!is_root && bfs_.has_value() && bfs_->has_distance()) {
      parent = bfs_->parent();
    }
    collection_.emplace(cfg, self_, is_root, parent, own_packets_, &rng_);
    collection_->set_payload_arena(payload_arena());
  }
  if (collection_.has_value() && stage3_end_ == 0 && collection_->finished()) {
    stage3_end_ = stage3_start_ + collection_->finished_at();
    if (mutations_.early_stage4_rounds != 0) {
      // Seeded bug: pretend collection ended earlier than its schedule says.
      const std::uint64_t cut =
          std::min(mutations_.early_stage4_rounds, collection_->finished_at() - 1);
      stage3_end_ -= cut;
    }
  }
  if (stage3_end_ != 0 && round >= stage3_end_ && !dissemination_.has_value()) {
    DisseminationState::Config cfg{rc_};
    const bool is_root = leader_.is_leader();
    std::optional<std::uint32_t> dist;
    if (bfs_.has_value() && bfs_->has_distance()) dist = bfs_->distance();
    dissemination_.emplace(cfg, self_, is_root, dist, &rng_);
    dissemination_->set_payload_arena(payload_arena());
    if (is_root) {
      RC_ASSERT(collection_.has_value());
      dissemination_->set_root_packets(collection_->collected());
    }
  }
}

void KBroadcastNode::report_stage(Stage stage) {
  if (observer_ == nullptr && audit_ == nullptr) return;
  if (reported_stage_.has_value() && *reported_stage_ == stage) return;
  reported_stage_ = stage;
  std::uint32_t index = 0;
  const char* name = nullptr;
  radio::Round boundary = 0;
  switch (stage) {
    case Stage::kLeader:
      index = 1, name = "stage1.leader", boundary = 0;
      break;
    case Stage::kBfs:
      index = 2, name = "stage2.bfs", boundary = stage2_start_;
      break;
    case Stage::kCollection:
      index = 3, name = "stage3.collection", boundary = stage3_start_;
      break;
    case Stage::kDissemination:
      index = 4, name = "stage4.dissemination", boundary = stage3_end_;
      break;
  }
  if (observer_ != nullptr) observer_->on_stage(index, name, boundary);
  if (audit_ != nullptr) audit_->on_stage_enter(self_, index, boundary);
}

void KBroadcastNode::sync_stage(radio::Round round) {
  // Report before ensure_stage: entering Stage 3 constructs CollectionState,
  // whose phase/epoch hooks must nest inside the already-open stage span.
  report_stage(stage_for(round));
  ensure_stage(round);
  // Collection may have just finished at exactly this round, which makes
  // the round Stage 4's round 0.
  stage_ = stage_for(round);
  report_stage(stage_);
  stage_until_ = stage_ == Stage::kLeader ? stage2_start_
                 : stage_ == Stage::kBfs  ? stage3_start_
                                          : kIdleUntilReception;
}

std::optional<radio::MessageBody> KBroadcastNode::apply_mutations(
    std::optional<radio::MessageBody> msg) const {
  if (mutations_.corrupt_coded_payload && msg.has_value()) {
    if (auto* coded = std::get_if<radio::CodedMsg>(&*msg);
        coded != nullptr && !coded->payload.empty()) {
      coded->payload[0] ^= 1;  // seeded bug: transmit an unsound combination
    }
  }
  return msg;
}

namespace {
/// A sub-state's relative hint as an absolute round (idle stays idle).
radio::Round absolute_hint(radio::Round stage_start, std::uint64_t rel_hint) {
  if (rel_hint == radio::NodeProtocol::kIdleUntilReception) return rel_hint;
  return stage_start + rel_hint;
}
}  // namespace

std::optional<radio::MessageBody> KBroadcastNode::on_transmit(radio::Round round) {
  if (round >= stage_until_) sync_stage(round);
  std::optional<radio::MessageBody> msg;
  radio::Round next = 0;
  switch (stage_) {
    case Stage::kLeader:
      msg = leader_.on_transmit(round);
      next = leader_.next_active_round(round);
      break;
    case Stage::kBfs: {
      const std::uint64_t rel = round - stage2_start_;
      msg = bfs_->on_transmit(rel);
      next = stage2_start_ + bfs_->next_active_round(rel);
      // Seeded bug: drop every scheduled BFS transmission (the state
      // machine still advances, so the node believes it participated).
      if (mutations_.suppress_bfs_transmit) msg.reset();
      break;
    }
    case Stage::kCollection: {
      const std::uint64_t rel = round - stage3_start_;
      msg = collection_->on_transmit(rel);
      if (!collection_->finished()) {
        next = absolute_hint(stage3_start_, collection_->next_active_round(rel));
        break;
      }
      // Collection flipped to finished at exactly this round, which is
      // already Stage 4's round 0.
      RC_ASSERT(!msg.has_value());
      sync_stage(round);
      [[fallthrough]];
    }
    case Stage::kDissemination: {
      const std::uint64_t rel = round - stage3_end_;
      msg = apply_mutations(dissemination_->on_transmit(rel));
      next = absolute_hint(stage3_end_, dissemination_->next_active_round(rel));
      break;
    }
  }
  // Never skip past a stage boundary: the stage switch must fire on time.
  set_next_active_round(std::min(next, stage_until_));
  return msg;
}

void KBroadcastNode::on_receive(radio::Round round, const radio::Message& msg) {
  if (round >= stage_until_) sync_stage(round);
  switch (stage_) {
    case Stage::kLeader:
      leader_.on_receive(round, msg);
      return;
    case Stage::kBfs:
      bfs_->on_receive(round - stage2_start_, msg);
      return;
    case Stage::kCollection:
      collection_->on_receive(round - stage3_start_, msg);
      if (!collection_->finished()) return;
      // Boundary round: the message kinds of the two stages are disjoint,
      // so re-offering the message to Stage 4 cannot double-process it.
      sync_stage(round);
      [[fallthrough]];
    case Stage::kDissemination:
      dissemination_->on_receive(round - stage3_end_, msg);
      return;
  }
}

bool KBroadcastNode::done() const {
  return dissemination_.has_value() && dissemination_->complete();
}

bool KBroadcastNode::is_leader() const { return leader_.is_leader(); }

radio::NodeId KBroadcastNode::leader_id() const { return leader_.leader_id(); }

bool KBroadcastNode::has_bfs_distance() const {
  return bfs_.has_value() && bfs_->has_distance();
}

std::uint32_t KBroadcastNode::bfs_distance() const {
  RC_ASSERT(has_bfs_distance());
  return bfs_->distance();
}

radio::NodeId KBroadcastNode::bfs_parent() const {
  RC_ASSERT(has_bfs_distance());
  return bfs_->parent();
}

std::vector<radio::Packet> KBroadcastNode::delivered_packets() const {
  if (dissemination_.has_value()) {
    if (leader_.is_leader() && collection_.has_value()) {
      return collection_->collected();
    }
    return dissemination_->packets();
  }
  return own_packets_;
}

}  // namespace radiocast::core
