#include "radio/network.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace radiocast::radio {

Network::Network(const graph::Graph& graph)
    : graph_(graph),
      protocols_(graph.num_nodes(), nullptr),
      awake_(graph.num_nodes(), 0),
      next_active_(graph.num_nodes(), 0),
      transmitting_(graph.num_nodes(), 0),
      reach_(graph.num_nodes(), ReachSlot{0, 0}),
      payload_arena_(std::make_unique<PayloadArena>()) {
  RC_ASSERT_MSG(graph.finalized(), "Network requires a finalized graph");
  // Sized up front so the first round allocates like every other round
  // (touched_ is a fixed-size scratch buffer — at most one entry per node
  // plus one slack slot for Phase 2's unconditional cursor write once all
  // nodes are touched; a modest transmission reserve absorbs typical
  // rounds and grows at most O(log n) times otherwise).
  touched_.resize(static_cast<std::size_t>(graph.num_nodes()) + 1);
  transmissions_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
  tx_meta_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
  tx_from_.reserve(std::min<std::size_t>(graph.num_nodes(), 64));
}

void Network::set_protocol(NodeId id, std::unique_ptr<NodeProtocol> protocol) {
  set_protocol(id, protocol.get());
  owned_.push_back(std::move(protocol));
}

void Network::set_protocol(NodeId id, NodeProtocol* protocol) {
  RC_ASSERT_MSG(id < num_nodes(), "set_protocol on an out-of-range id");
  RC_ASSERT(protocol != nullptr);
  RC_ASSERT_MSG(!started_, "set_protocol after the simulation started");
  protocol->set_payload_arena(payload_arena_.get());
  protocols_[id] = protocol;
  next_active_[id] = 0;
}

NodeProtocol& Network::protocol(NodeId id) {
  RC_ASSERT(id < num_nodes() && protocols_[id] != nullptr);
  return *protocols_[id];
}

const NodeProtocol& Network::protocol(NodeId id) const {
  RC_ASSERT(id < num_nodes() && protocols_[id] != nullptr);
  return *protocols_[id];
}

void Network::wake_at_start(NodeId id) {
  RC_ASSERT_MSG(id < num_nodes(), "wake_at_start on an out-of-range id");
  RC_ASSERT_MSG(!started_, "wake_at_start after the simulation started");
  if (!awake_[id]) {
    awake_[id] = 1;
    awake_list_.push_back(id);
    awake_list_dirty_ = true;
    pending_initial_wakes_.push_back(id);
  }
}

void Network::set_fault_model(const FaultModel& model) {
  RC_ASSERT_MSG(!started_, "set_fault_model after the simulation started");
  RC_ASSERT(model.reception_loss_probability >= 0.0 &&
            model.reception_loss_probability <= 1.0);
  fault_model_ = model;
  fault_rng_.reseed(model.seed);
}

void Network::enable_collision_detection(bool on) {
  RC_ASSERT_MSG(!started_, "enable_collision_detection after the simulation started");
  collision_detection_ = on;
}

void Network::add_tap(NetworkAuditHook* tap) {
  RC_ASSERT(tap != nullptr);
  RC_ASSERT_MSG(!started_, "add_tap after the simulation started");
  taps_.push_back(tap);
}

void Network::set_test_mutations(const EngineMutations& mutations) {
  RC_ASSERT_MSG(!started_, "set_test_mutations after the simulation started");
  mutations_ = mutations;
}

void Network::wake(NodeId id) {
  if (!awake_[id]) {
    awake_[id] = 1;
    awake_list_.push_back(id);
    awake_list_dirty_ = true;
    next_active_[id] = 0;
    ++trace_.counters().wakeups;
    for (NetworkAuditHook* tap : taps_) tap->on_node_wake(round_, id);
    protocols_[id]->on_wake(round_);
  }
}

void Network::step() {
  if (!started_) {
    started_ = true;
    for (NetworkAuditHook* tap : taps_) tap->on_sim_start(pending_initial_wakes_);
    for (NodeId id : pending_initial_wakes_) {
      ++trace_.counters().wakeups;
      protocols_[id]->on_wake(round_);
    }
    pending_initial_wakes_.clear();
#ifndef NDEBUG
    for (NodeId id = 0; id < num_nodes(); ++id) {
      RC_ASSERT_MSG(protocols_[id] != nullptr, "every node needs a protocol");
    }
#endif
  }

  round_scalar();

  for (NetworkAuditHook* tap : taps_) tap->on_round_end(round_);
  ++round_;
  ++trace_.counters().rounds;
}

void Network::round_scalar() {
  // Phase 1: collect transmission decisions from awake nodes. The dense
  // awake list replaces the historical full-n scan; it is kept sorted so
  // on_transmit fires in the same ascending-id order as that scan did.
  // A node whose published hint lies in the future is skipped without a
  // call: by the hint contract it would return nullopt and touch nothing,
  // so the skip is unobservable (see NodeProtocol::set_next_active_round).
  // Last round's payload buffers go back to the arena first, so the
  // on_transmit calls below can reuse them instead of hitting the heap.
  const bool events = trace_.events_enabled();
  for (Message& spent : transmissions_) payload_arena_->recycle_body(spent.body);
  transmissions_.clear();
  tx_meta_.clear();
  tx_from_.clear();
  if (awake_list_dirty_) {
    std::sort(awake_list_.begin(), awake_list_.end());
    awake_list_dirty_ = false;
  }
  // Counter deltas accumulate in locals and flush once after the loop:
  // the virtual on_transmit calls would otherwise force a reload/store of
  // the trace structure per awake node. Observable state is unchanged —
  // nothing reads the counters until after the flush.
  std::uint64_t bits_tx_acc = 0;
  std::array<std::uint64_t, kNumMessageKinds> tx_kind_acc{};
  NodeProtocol* const* const tx_protocols = protocols_.data();
  std::uint8_t* const tx_transmitting = transmitting_.data();
  Round* const next_active = next_active_.data();
  const Round round_now = round_;
  // awake_list_ cannot change inside this loop (wake() only fires on
  // reception, in Phase 3), so its bounds are hoisted past the virtual
  // calls.
  const NodeId* const awake_ids = awake_list_.data();
  const std::size_t awake_n = awake_list_.size();
  for (std::size_t i = 0; i < awake_n; ++i) {
    const NodeId id = awake_ids[i];
    if (next_active[id] > round_now) continue;
    NodeProtocol* const protocol = tx_protocols[id];
    std::optional<MessageBody> body = protocol->on_transmit(round_now);
    next_active[id] = protocol->take_next_active_round();
    if (body.has_value()) {
      tx_transmitting[id] = 1;
      const auto bits = static_cast<std::uint32_t>(message_size_bits(*body));
      const auto kind = static_cast<std::uint32_t>(message_kind_index(*body));
      bits_tx_acc += bits;
      ++tx_kind_acc[kind];
      // emplace + move-assign: one variant move instead of the two a
      // `push_back({id, std::move(*body)})` temporary would cost.
      Message& slot = transmissions_.emplace_back();
      slot.from = id;
      slot.body = std::move(*body);
      tx_meta_.push_back({bits, kind});
      tx_from_.push_back(id);
    }
  }
  {
    TraceCounters& c = trace_.counters();
    c.transmissions += transmissions_.size();
    c.bits_transmitted += bits_tx_acc;
    for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
      c.transmissions_by_kind[k] += tx_kind_acc[k];
    }
  }
  for (NetworkAuditHook* tap : taps_) tap->on_transmissions(round_, transmissions_);

  // Phase 2: compute, per node, how many transmissions reached it. The
  // loop is branchless: whether a neighbor is newly touched is a random,
  // unpredictable bit, so the classical `if (first touch) append` form
  // mispredicts on a large fraction of the visits. Instead every visit
  // unconditionally writes the next free touched_ slot and the cursor
  // advances only on first touch (stale writes are overwritten or ignored),
  // and the first-reacher index is kept via a conditional move. touched_
  // ends up holding exactly the first-touch sequence, in the same order
  // the branching form produced.
  std::size_t touched_count = 0;
  {
    const std::size_t tx_count = tx_from_.size();
    const std::size_t* const offsets = graph_.csr_offsets();
    const NodeId* const targets = graph_.csr_targets();
    ReachSlot* const reach = reach_.data();
    NodeId* const touched = touched_.data();
    for (std::uint32_t t = 0; t < tx_count; ++t) {
      const NodeId u = tx_from_[t];
      const std::size_t end = offsets[u + 1];
      for (std::size_t e = offsets[u]; e < end; ++e) {
        const NodeId v = targets[e];
        // Single 8-byte load/store of the packed slot, with the
        // first-reacher select done in mask arithmetic: written this way
        // (rather than with ?:) so the compiler cannot re-introduce a
        // first-touch branch — see the phase comment above.
        std::uint64_t packed;
        std::memcpy(&packed, &reach[v], sizeof packed);
        const std::uint32_t cnt = static_cast<std::uint32_t>(packed);
        const std::uint32_t src = static_cast<std::uint32_t>(packed >> 32);
        const std::uint32_t is_new = cnt == 0 ? 1u : 0u;
        const std::uint32_t new_src = src ^ ((src ^ t) & (0u - is_new));
        packed = (static_cast<std::uint64_t>(new_src) << 32) |
                 static_cast<std::uint64_t>(cnt + 1);
        std::memcpy(&reach[v], &packed, sizeof packed);
        touched[touched_count] = v;
        touched_count += is_new;
      }
    }
  }

  // Phase 3: deliveries — exactly one reaching message, receiver silent.
  // Scratch arrays go through hoisted pointers and counter deltas through
  // local accumulators (flushed after the loop): the on_receive virtual
  // calls would otherwise force per-receiver reloads of every member.
  // Nothing observes the counters until after the flush, so the batching
  // is invisible.
  const bool faults_on = fault_model_.reception_loss_probability > 0.0;
  {
    NodeProtocol* const* const protocols = protocols_.data();
    const std::uint8_t* const transmitting = transmitting_.data();
    ReachSlot* const reach = reach_.data();
    Round* const next_active = next_active_.data();
    const Message* const txs = transmissions_.data();
    const TxMeta* const tx_meta = tx_meta_.data();
    // Taps are fixed once the simulation started; the hoisted flag keeps
    // each untapped event site below at one test of a local.
    const bool tapped = !taps_.empty();
    std::uint64_t deliveries_acc = 0;
    std::uint64_t bits_rx_acc = 0;
    std::uint64_t collision_acc = 0;
    std::uint64_t deaf_acc = 0;
    std::uint64_t fault_acc = 0;
    std::array<std::uint64_t, kNumMessageKinds> rx_kind_acc{};
    const NodeId* const touched = touched_.data();
    for (std::size_t i = 0; i < touched_count; ++i) {
      const NodeId v = touched[i];
      const ReachSlot slot = reach[v];
      const std::uint32_t reached = slot.count;
      reach[v].count = 0;  // reset for the next round

      // Delivery path, shared by the model and by the seeded-bug mutations.
      // Force-inlined: it sits on the hot tail of the loop and the
      // compiler otherwise outlines it for the three rare mutation sites.
      // The awake_[v] guard is replicated here so the common
      // already-awake delivery skips the wake() call entirely (wake
      // re-checks, so semantics are untouched).
      const auto deliver = [&](std::uint32_t source) __attribute__((always_inline)) {
        const Message& tx = txs[source];
        const TxMeta meta = tx_meta[source];
        ++deliveries_acc;
        bits_rx_acc += meta.size_bits;
        ++rx_kind_acc[meta.kind];
        if (events) {
          trace_.record({round_, v, TraceEvent::Kind::kDelivered,
                         message_kind(tx.body), tx.from});
        }
        if (tapped) {
          for (NetworkAuditHook* tap : taps_) tap->on_deliver(round_, v, source, tx);
        }
        if (!mutations_.skip_wake_on_receive && !awake_[v]) wake(v);
        next_active[v] = 0;
        protocols[v]->on_receive(round_, tx);
      };

      if (transmitting[v]) {
        ++deaf_acc;
        if (events) trace_.record({round_, v, TraceEvent::Kind::kDeaf, {}, 0});
        if (tapped) {
          for (NetworkAuditHook* tap : taps_) tap->on_deaf_slot(round_, v, reached);
        }
        if (mutations_.deliver_while_transmitting) deliver(slot.source);
        continue;
      }
      if (reached >= 2) {
        ++collision_acc;
        if (events) trace_.record({round_, v, TraceEvent::Kind::kCollision, {}, 0});
        if (tapped) {
          for (NetworkAuditHook* tap : taps_) {
            tap->on_collision_slot(round_, v, reached, collision_detection_);
          }
        }
        if (collision_detection_) {
          wake(v);
          next_active[v] = 0;
          protocols[v]->on_collision(round_);
        }
        if (mutations_.deliver_on_collision) deliver(slot.source);
        continue;
      }
      if (faults_on && fault_rng_.next_bool(fault_model_.reception_loss_probability)) {
        // Injected interference: the receiver observes silence.
        ++fault_acc;
        if (tapped) {
          for (NetworkAuditHook* tap : taps_) tap->on_fault_drop(round_, v, slot.source);
        }
        continue;
      }
      deliver(slot.source);
    }
    TraceCounters& c = trace_.counters();
    c.deliveries += deliveries_acc;
    c.bits_delivered += bits_rx_acc;
    c.collision_slots += collision_acc;
    c.deaf_slots += deaf_acc;
    c.fault_drops += fault_acc;
    for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
      c.deliveries_by_kind[k] += rx_kind_acc[k];
    }
  }
  for (const NodeId from : tx_from_) transmitting_[from] = 0;
}

bool Network::advance_done_count() {
  while (done_count_ < num_nodes() && protocols_[done_count_]->done()) ++done_count_;
  return done_count_ == num_nodes();
}

bool Network::run_until_done(Round max_rounds) {
  done_count_ = 0;  // re-verify from scratch: protocols may have been swapped
  if (advance_done_count()) return true;
  for (Round r = 0; r < max_rounds; ++r) {
    step();
    if (advance_done_count()) return true;
  }
  return false;
}

bool Network::run_until(Round max_rounds, const std::function<bool()>& predicate) {
  if (predicate()) return true;
  for (Round r = 0; r < max_rounds; ++r) {
    step();
    if (predicate()) return true;
  }
  return false;
}

}  // namespace radiocast::radio
