#pragma once

#include <cstdint>
#include <string>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/hash_map.hpp"
#include "sim/stats.hpp"

namespace pinsim::obs {

/// Streams the event bus into log-bucketed latency/size histograms:
///
///  * pin latency      — kPinStart -> kPinDone, per (node, ep, region);
///  * send latency     — kRndvPost/kEagerPost -> kSendDone (successes only);
///  * pull latency     — kPullStart -> kRecvDone;
///  * message sizes    — bytes of every posted send.
///
/// All values are nanoseconds of simulated time (sizes in bytes). The
/// summaries feed the benches' human output; `json()` feeds the machine
/// report the soaks archive.
class LatencyRecorder final : public Sink {
 public:
  LatencyRecorder()
      : pin_(100.0), send_(100.0), pull_(100.0), sizes_(1.0) {}

  void on_event(const Event& e) override;

  [[nodiscard]] const sim::LogHistogram& pin_latency() const noexcept {
    return pin_;
  }
  [[nodiscard]] const sim::LogHistogram& send_latency() const noexcept {
    return send_;
  }
  [[nodiscard]] const sim::LogHistogram& pull_latency() const noexcept {
    return pull_;
  }
  [[nodiscard]] const sim::LogHistogram& message_sizes() const noexcept {
    return sizes_;
  }

  /// Human-readable p50/p95/p99 lines (empty histograms skipped).
  [[nodiscard]] std::string summary() const;

  /// `{"pin_latency_ns":{...},"send_latency_ns":{...},...}` with counts,
  /// percentiles and the occupied log buckets.
  [[nodiscard]] std::string json() const;

 private:
  [[nodiscard]] static std::uint64_t key(const Event& e,
                                         std::uint32_t id) noexcept {
    return (static_cast<std::uint64_t>(e.node) << 40) |
           (static_cast<std::uint64_t>(e.ep) << 32) |
           static_cast<std::uint64_t>(id);
  }

  sim::LogHistogram pin_, send_, pull_, sizes_;
  sim::HashMap<sim::Time> pin_open_;
  sim::HashMap<sim::Time> send_open_;
  sim::HashMap<sim::Time> pull_open_;
};

}  // namespace pinsim::obs
