#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/frame.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

/// One egress port of a rack switch: a bounded FIFO queue drained at the
/// port's line rate. Frames are offered by the routing layer (Topology);
/// when a frame finishes clocking out the drain handler fires and routing
/// continues (next switch hop, or the destination NIC).
///
/// The drain order is strict FIFO and all timing comes from engine timers,
/// so a given offered sequence produces the same drain schedule on every
/// run — queue contention is part of the deterministic contract, not a
/// source of noise. Overflow (an offer landing on a full queue) is the
/// congestion-loss signal: the port counts it and refuses the frame; the
/// caller attributes the drop to congestion, not to fault injection.
class SwitchPort {
 public:
  struct Config {
    double bandwidth_gbps = 10.0;  // drain rate, matches the link line rate
    std::size_t queue_frames = 64;  // bounded egress buffer, in frames
  };

  struct Stats {
    std::uint64_t enqueued = 0;        // frames accepted into the queue
    std::uint64_t drained = 0;         // frames fully clocked out
    std::uint64_t overflow_drops = 0;  // offers refused on a full queue
    std::uint64_t max_depth = 0;       // high-water mark (incl. in service)
    sim::Time busy = 0;                // cumulative serialization time
  };

  /// `frame` finished serializing out of the port; `wire` is the
  /// serialization time it occupied the port for.
  using DrainHandler = std::function<void(Frame&&, sim::Time wire)>;

  SwitchPort(sim::Engine& eng, Config cfg);

  SwitchPort(const SwitchPort&) = delete;
  SwitchPort& operator=(const SwitchPort&) = delete;

  void set_drain_handler(DrainHandler h) { drain_ = std::move(h); }

  /// Offers a frame to the egress queue. Returns false — and counts an
  /// overflow drop — when the queue (including the frame in service) is
  /// already at capacity; the frame is lost at this switch.
  bool offer(Frame frame);

  /// Frames held by the port right now: queued plus the one in service.
  [[nodiscard]] std::size_t depth() const noexcept {
    return queue_.size() + (busy_ ? 1 : 0);
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return cfg_.queue_frames;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Time to clock `wire_bytes` out of this port at its line rate.
  [[nodiscard]] sim::Time serialization_time(std::size_t wire_bytes) const;

 private:
  void pump();

  sim::Engine& eng_;
  Config cfg_;
  DrainHandler drain_;
  sim::Ring<Frame> queue_;  // waiting frames; the in-service one is popped
  bool busy_ = false;
  Stats stats_;
};

}  // namespace pinsim::net
