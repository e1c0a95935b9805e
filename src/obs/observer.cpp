#include "obs/observer.hpp"

#include <utility>

#include "common/assert.hpp"
#include "radio/network.hpp"

namespace radiocast::obs {

std::uint32_t ChannelLedger::silent_slots(const RoundStats& stats) {
  // Awake listeners minus the listener slots with a known outcome; see
  // the class comment for why this is a (clamped) lower bound. Wake-up
  // deliveries landed at nodes that were *asleep*, so they don't consume
  // listener slots — but the wakeups counter can exceed deliveries (the
  // first round folds the initial wake_at_start wakes in; CD collision
  // wakes have no delivery at all), so the correction is clamped.
  const std::int64_t listeners =
      static_cast<std::int64_t>(stats.awake) - stats.transmissions;
  const std::int64_t awake_deliveries = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(stats.deliveries) - stats.wakeups);
  const std::int64_t silent = listeners - awake_deliveries -
                              stats.collision_slots - stats.fault_drops;
  return silent > 0 ? static_cast<std::uint32_t>(silent) : 0;
}

std::uint32_t ChannelLedger::intern(std::vector<std::string>& names,
                                    const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  names.push_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

void ChannelLedger::on_round(const RoundStats& stats, const std::string& stage,
                             const std::string& epoch) {
  const std::uint32_t silent = silent_slots(stats);
  const std::uint32_t stage_id = intern(stage_names_, stage);
  const std::uint32_t epoch_id = intern(epoch_names_, epoch);
  if (rows_.size() < max_rounds_) {
    rows_.push_back({stats.round, stage_id, epoch_id, stats.awake,
                     stats.transmissions, stats.deliveries, stats.collision_slots,
                     stats.deaf_slots, stats.fault_drops, silent});
  } else {
    ++dropped_rows_;
  }

  if (last_aggregate_ >= aggregates_.size() ||
      aggregates_[last_aggregate_].stage != stage ||
      aggregates_[last_aggregate_].epoch != epoch) {
    last_aggregate_ = SIZE_MAX;
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      if (aggregates_[i].stage == stage && aggregates_[i].epoch == epoch) {
        last_aggregate_ = i;
        break;
      }
    }
    if (last_aggregate_ == SIZE_MAX) {
      aggregates_.push_back({stage, epoch, 0, 0, 0, 0, 0, 0, 0, 0});
      last_aggregate_ = aggregates_.size() - 1;
    }
  }
  Aggregate& agg = aggregates_[last_aggregate_];
  ++agg.rounds;
  agg.awake += stats.awake;
  agg.transmissions += stats.transmissions;
  agg.deliveries += stats.deliveries;
  agg.collisions += stats.collision_slots;
  agg.deaf += stats.deaf_slots;
  agg.faults += stats.fault_drops;
  agg.silent += silent;
}

RunObserver::RunObserver(Options opts)
    : opts_(std::move(opts)), recorder_(opts_.recorder) {
  if (opts_.channel_ledger) {
    ledger_ = std::make_unique<ChannelLedger>(opts_.ledger_max_rounds);
  }
}

void RunObserver::rebind_stage_instruments() {
  const LabelSet stage_label = {{"stage", stage_name_}};
  rounds_ = &metrics_.counter("sim.rounds", stage_label);
  transmissions_ = &metrics_.counter("sim.transmissions", stage_label);
  deliveries_ = &metrics_.counter("sim.deliveries", stage_label);
  collisions_ = &metrics_.counter("sim.collision_slots", stage_label);
  deaf_ = &metrics_.counter("sim.deaf_slots", stage_label);
  fault_drops_ = &metrics_.counter("sim.fault_drops", stage_label);
  wakeups_ = &metrics_.counter("sim.wakeups", stage_label);
  if (opts_.round_histograms) {
    tx_per_round_ = &metrics_.histogram("sim.transmissions_per_round", stage_label,
                                        Histogram::pow2_bounds());
    rx_per_round_ = &metrics_.histogram("sim.deliveries_per_round", stage_label,
                                        Histogram::pow2_bounds());
  }
  tx_by_kind_.clear();
  rx_by_kind_.clear();
  if (opts_.per_kind_metrics) {
    for (const std::string& kind : kind_names_) {
      const LabelSet kl = {{"stage", stage_name_}, {"kind", kind}};
      tx_by_kind_.push_back(&metrics_.counter("sim.transmissions", kl));
      rx_by_kind_.push_back(&metrics_.counter("sim.deliveries", kl));
    }
  }
}

void RunObserver::on_round(const RoundStats& stats) {
  last_round_seen_ = stats.round;
  if (stage_name_.empty()) {
    // Rounds before the first stage hook (e.g. no observer-wired protocol):
    // attribute to a catch-all stage so nothing is silently lost.
    stage_name_ = "unattributed";
    rebind_stage_instruments();
  }
  if (kind_names_.empty() && stats.num_kinds > 0) {
    kind_names_.assign(stats.kind_names, stats.kind_names + stats.num_kinds);
    rebind_stage_instruments();
  }
  rounds_->inc();
  transmissions_->inc(stats.transmissions);
  deliveries_->inc(stats.deliveries);
  collisions_->inc(stats.collision_slots);
  deaf_->inc(stats.deaf_slots);
  fault_drops_->inc(stats.fault_drops);
  wakeups_->inc(stats.wakeups);
  if (tx_per_round_ != nullptr) {
    tx_per_round_->observe(static_cast<double>(stats.transmissions));
    rx_per_round_->observe(static_cast<double>(stats.deliveries));
  }
  if (!tx_by_kind_.empty()) {
    RC_ASSERT(tx_by_kind_.size() == stats.num_kinds);
    for (std::size_t i = 0; i < stats.num_kinds; ++i) {
      // Skip untouched kinds: most rounds carry one kind of traffic.
      if (stats.transmissions_by_kind[i] != 0) {
        tx_by_kind_[i]->inc(stats.transmissions_by_kind[i]);
      }
      if (stats.deliveries_by_kind[i] != 0) {
        rx_by_kind_[i]->inc(stats.deliveries_by_kind[i]);
      }
    }
  }
  if (ledger_) ledger_->on_round(stats, stage_name_, epoch_name_);
}

void RunObserver::close_epoch(std::uint64_t round) {
  if (epoch_span_ != 0) {
    recorder_.close(epoch_span_, round);
    epoch_span_ = 0;
  }
  epoch_name_.clear();
}

void RunObserver::close_phase(std::uint64_t round) {
  close_epoch(round);
  if (phase_span_ != 0) {
    recorder_.close(phase_span_, round);
    phase_span_ = 0;
  }
}

void RunObserver::close_stage(std::uint64_t round) {
  close_phase(round);
  if (stage_span_ != 0) {
    recorder_.close(stage_span_, round);
    stage_span_ = 0;
  }
}

void RunObserver::on_stage(std::uint32_t stage_index, const char* name,
                           std::uint64_t round) {
  close_stage(round);
  stage_name_ = name;
  stage_span_ = recorder_.open(name, "stage", round, {{"stage", stage_index}});
  rebind_stage_instruments();
}

void RunObserver::on_collection_phase_begin(std::uint32_t phase_index,
                                            std::uint64_t estimate,
                                            std::uint64_t round) {
  close_phase(round);
  phase_span_ = recorder_.open("phase", "phase", round,
                               {{"phase", phase_index}, {"estimate", estimate}});
  metrics_.gauge("collection.estimate").set(static_cast<double>(estimate));
  metrics_.counter("collection.phases").inc();
}

void RunObserver::on_collection_epoch(const char* kind, std::uint64_t slots,
                                      std::uint32_t copies, std::uint64_t round) {
  close_epoch(round);
  std::vector<SpanAttr> attrs;
  if (slots != 0) attrs.push_back({"slots", slots});
  if (copies > 1) attrs.push_back({"copies", copies});
  epoch_span_ = recorder_.open(kind, "epoch", round, std::move(attrs));
  epoch_name_ = kind;
  metrics_.counter("collection.epochs", {{"epoch", kind}}).inc();
}

void RunObserver::on_collection_phase_end(std::uint64_t round, bool alarmed) {
  if (phase_span_ != 0) {
    recorder_.add_attr(phase_span_, "alarmed", alarmed ? 1 : 0);
  }
  close_phase(round);
}

void RunObserver::finish(std::uint64_t end_round) {
  close_stage(end_round);
}

void RoundFeed::on_sim_start(const std::vector<radio::NodeId>&) {
  // Fires before the engine counts the initial wakes, so they land in
  // round 0's delta.
  base_ = net_.trace().counters();
}

void RoundFeed::on_transmissions(radio::Round, const std::vector<radio::Message>&) {
  // Wakes happen only in the reception phase, so this is the awake count
  // the round's transmission decisions saw.
  awake_ = static_cast<std::uint32_t>(net_.num_awake());
}

void RoundFeed::on_round_end(radio::Round round) {
  const radio::TraceCounters& now = net_.trace().counters();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint32_t>(a - b);
  };
  RoundStats stats;
  stats.round = round;
  stats.awake = awake_;
  stats.transmissions = delta(now.transmissions, base_.transmissions);
  stats.deliveries = delta(now.deliveries, base_.deliveries);
  stats.collision_slots = delta(now.collision_slots, base_.collision_slots);
  stats.deaf_slots = delta(now.deaf_slots, base_.deaf_slots);
  stats.fault_drops = delta(now.fault_drops, base_.fault_drops);
  stats.wakeups = delta(now.wakeups, base_.wakeups);
  for (std::size_t i = 0; i < radio::kNumMessageKinds; ++i) {
    tx_by_kind_[i] =
        delta(now.transmissions_by_kind[i], base_.transmissions_by_kind[i]);
    rx_by_kind_[i] = delta(now.deliveries_by_kind[i], base_.deliveries_by_kind[i]);
  }
  stats.num_kinds = radio::kNumMessageKinds;
  stats.kind_names = radio::message_kind_names().data();
  stats.transmissions_by_kind = tx_by_kind_.data();
  stats.deliveries_by_kind = rx_by_kind_.data();
  base_ = now;
  observer_.on_round(stats);
}

}  // namespace radiocast::obs
