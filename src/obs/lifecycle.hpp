#pragma once

#include <cstdint>
#include <string>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/flat_map.hpp"

namespace pinsim::obs {

/// Aggregates the component-lifecycle event stream (kLife*) into recovery
/// metrics: how often each class of fault fired, how long restarts took, and
/// how long after a restart the first successful completion landed — the
/// "recovery time" the robustness PR is graded on. Sim-time only, so the
/// section is part of the byte-identical determinism surface.
class LifecycleRecorder final : public Sink {
 public:
  struct Totals {
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t link_downs = 0;
    std::uint64_t nic_resets = 0;
    std::uint64_t peer_deaths = 0;
    std::uint64_t fenced_frames = 0;
    std::uint64_t reclaimed_pages = 0;  // sum over crashes of pins reclaimed
    // Sim-ns accumulators; divide by the matching count for the mean.
    std::uint64_t restart_delay_ns = 0;   // crash -> restart
    std::uint64_t recovery_ns = 0;        // restart -> first completion
    std::uint64_t recoveries = 0;         // restarts with a completion seen
  };

  ~LifecycleRecorder() override { wait_idle(); }

  void on_event(const Event& e) override;
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  [[nodiscard]] const Totals& totals() const {
    drain();
    return totals_;
  }

  /// One JSON object for the report ("lifecycle" section).
  [[nodiscard]] std::string json() const;

 private:
  // Per-(node, ep) slot being watched: crash time until the restart lands,
  // then restart time until the first kSendDone/kRecvDone on that slot.
  struct SlotWatch {
    sim::Time crashed_at = 0;
    sim::Time restarted_at = 0;
    bool down = false;
    bool awaiting_completion = false;
  };

  static std::uint64_t slot_key(const Event& e) noexcept {
    return (static_cast<std::uint64_t>(e.node) << 8) | e.ep;
  }

  Totals totals_;
  sim::FlatMap<std::uint64_t, SlotWatch> slots_;
};

}  // namespace pinsim::obs
