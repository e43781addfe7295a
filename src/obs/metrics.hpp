#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/hash_map.hpp"

namespace pinsim::obs {

/// Periodic sim-time sampler: turns the event stream into a compact time
/// series of gauges (carry-forward step functions) and per-interval counters
/// (reset at each boundary), so pressure/fault soaks show *dynamics* instead
/// of end-state totals.
///
/// No engine coupling: sampling is driven by event timestamps. Each incoming
/// event first closes any interval boundaries it crossed (one sample per
/// boundary, at most two per gap — a closing sample with the interval's
/// counters, then a flat carry-forward sample at the last boundary before
/// the event if the stream went idle), then mutates the state. When the
/// series hits `max_samples` it compacts by merging adjacent pairs (gauges
/// keep the later value, counters sum, timestamp keeps the later edge) and
/// doubles the interval, so memory stays bounded on arbitrarily long runs.
class MetricsSampler final : public Sink {
 public:
  struct Sample {
    sim::Time t = 0;  // interval end (exclusive): covers (prev.t, t]
    // Gauges (value at t).
    std::uint64_t pinned_pages = 0;    // sum of region pin frontiers
    std::uint32_t inflight_pin_jobs = 0;
    std::uint32_t open_sends = 0;      // posted, not yet done/aborted
    std::uint32_t open_pulls = 0;      // started, not yet done/aborted
    std::uint64_t port_queue_depth = 0;  // frames across all switch ports
    // Counters (events inside the interval ending at t).
    std::uint32_t overlap_misses = 0;
    std::uint32_t retransmits = 0;     // send retransmits + pull retries
    std::uint64_t copied_bytes = 0;    // kCopyIn payload landed
    std::uint32_t pressure_denials = 0;
    std::uint32_t congestion_drops = 0;  // switch queue overflows
    std::uint64_t uplink_busy_ns = 0;    // uplink serialization time spent
  };

  explicit MetricsSampler(sim::Time interval = 50 * sim::kMicrosecond,
                          std::size_t max_samples = 512)
      : interval_(interval == 0 ? 1 : interval),
        max_samples_(max_samples < 4 ? 4 : max_samples) {}

  void on_event(const Event& e) override;

  /// Flushes the trailing partial interval (if it saw any events).
  void finalize() override;

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  /// Current interval width — doubles on each compaction.
  [[nodiscard]] sim::Time interval() const noexcept { return interval_; }
  [[nodiscard]] std::uint32_t compactions() const noexcept {
    return compactions_;
  }

  /// Columnar `{"interval_ns":...,"t_ns":[...],"pinned_pages":[...],...}` —
  /// compact enough to inline into the run report.
  [[nodiscard]] std::string json() const;

 private:
  void roll_to(sim::Time t);
  void push_sample(sim::Time boundary);
  void compact();

  sim::Time interval_;
  std::size_t max_samples_;
  sim::Time next_ = 0;        // end of the interval being accumulated
  bool started_ = false;
  bool dirty_ = false;        // events seen since the last pushed sample

  // Gauge state.
  sim::HashMap<std::uint64_t> frontiers_;  // region -> pages
  std::uint64_t pinned_pages_ = 0;
  sim::HashSet pin_jobs_;
  sim::HashSet sends_;
  sim::HashSet pulls_;
  sim::HashMap<std::uint64_t> port_depths_;  // port -> depth
  std::uint64_t port_queue_depth_ = 0;  // running sum over port_depths_

  // Counter accumulators for the open interval.
  std::uint32_t overlap_misses_ = 0;
  std::uint32_t retransmits_ = 0;
  std::uint64_t copied_bytes_ = 0;
  std::uint32_t pressure_denials_ = 0;
  std::uint32_t congestion_drops_ = 0;
  std::uint64_t uplink_busy_ns_ = 0;

  std::vector<Sample> samples_;
  std::uint32_t compactions_ = 0;
};

}  // namespace pinsim::obs
