// One-bit alarm windows (the paper's ALARM sub-routine and the probe
// primitive of leader election).
//
// An alarm window is a multi-source BGI flood of the single-bit AlarmMsg:
// any number of sources arm the window; at the window's end every node
// knows — w.h.p. — whether at least one source armed it. Silence is
// indistinguishable from "no source", which is precisely the emulated
// collision-detection semantics the paper borrows from [3]: the channel
// answer is "someone signalled" vs "nobody signalled".
#pragma once

#include <cstdint>
#include <optional>

#include "protocols/bgi_broadcast.hpp"

namespace radiocast::protocols {

class AlarmWindow {
 public:
  AlarmWindow(std::uint32_t decay_epoch_length, Rng* rng)
      : flood_(decay_epoch_length, rng) {}

  /// Starts a fresh window; `armed` marks this node as a source.
  void reset(bool armed) {
    armed_ = armed;
    flood_.reset(armed ? std::optional<radio::MessageBody>(radio::AlarmMsg{})
                       : std::nullopt);
  }

  /// Transmit decision at a round relative to the window start.
  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round) {
    return flood_.on_transmit(rel_round);
  }

  /// Feeds any received message; non-alarm bodies are ignored.
  void on_receive(const radio::MessageBody& body) {
    if (std::holds_alternative<radio::AlarmMsg>(body)) flood_.on_receive(body);
  }

  /// This node armed the current window itself.
  bool armed() const { return armed_; }
  /// An alarm reached this node by radio in the current window.
  bool heard() const { return flood_.received(); }
  /// The window's outcome from this node's perspective: it knows the alarm
  /// is up either because it armed it or because it heard it.
  bool positive() const { return armed_ || heard(); }
  /// True iff this node relays the alarm (armed or heard), i.e. on_transmit
  /// draws a Decay decision every round. A silent node stays silent and
  /// draws nothing until it hears the alarm.
  bool flooding() const { return flood_.has_message(); }

 private:
  BgiFlood flood_;
  bool armed_ = false;
};

/// Rounds in one alarm window given the number of Decay epochs.
inline std::uint64_t alarm_window_rounds(const radio::Knowledge& know,
                                         std::uint32_t epochs) {
  return static_cast<std::uint64_t>(epochs) * know.log_delta();
}

}  // namespace radiocast::protocols
