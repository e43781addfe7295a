#pragma once

#include <cstdint>
#include <string>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/stats.hpp"

namespace pinsim::obs {

/// Streams the event bus into log-bucketed latency/size histograms, taking
/// each start from the bus's lifetime table:
///
///  * pin latency      — kPinStart -> kPinDone, per (node, ep, region);
///  * send latency     — kRndvPost/kEagerPost -> kSendDone (successes only);
///  * pull latency     — kPullStart -> kRecvDone;
///  * message sizes    — bytes of every posted send.
///
/// A re-post or re-start measures from the latest one.
///
/// All values are nanoseconds of simulated time (sizes in bytes). The
/// summaries feed the benches' human output; `json()` feeds the machine
/// report the soaks archive.
class LatencyRecorder final : public Sink {
 public:
  LatencyRecorder()
      : pin_(100.0), send_(100.0), pull_(100.0), sizes_(1.0) {}
  ~LatencyRecorder() override { wait_idle(); }

  void on_event(const Event& e) override;
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  [[nodiscard]] const sim::LogHistogram& pin_latency() const {
    drain();
    return pin_;
  }
  [[nodiscard]] const sim::LogHistogram& send_latency() const {
    drain();
    return send_;
  }
  [[nodiscard]] const sim::LogHistogram& pull_latency() const {
    drain();
    return pull_;
  }
  [[nodiscard]] const sim::LogHistogram& message_sizes() const {
    drain();
    return sizes_;
  }

  /// Human-readable p50/p95/p99 lines (empty histograms skipped).
  [[nodiscard]] std::string summary() const;

  /// `{"pin_latency_ns":{...},"send_latency_ns":{...},...}` with counts,
  /// percentiles and the occupied log buckets.
  [[nodiscard]] std::string json() const;

 private:
  sim::LogHistogram pin_, send_, pull_, sizes_;
};

}  // namespace pinsim::obs
