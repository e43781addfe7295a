#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pinsim::mem {

/// kswapd analogue: wakes periodically and, when the frame pool is above the
/// high watermark, swaps out randomly chosen unpinned resident pages until
/// usage drops below the low watermark. Pinned pages are skipped (their
/// refcount protects them), so running this during communication stresses
/// exactly the invariant the paper's pinning exists to guarantee.
class SwapDaemon {
 public:
  struct Config {
    sim::Time period = 100 * sim::kMicrosecond;
    double high_watermark = 0.90;  // start reclaiming above this usage
    double low_watermark = 0.75;   // stop once below this
    std::uint64_t seed = 0xdae0115;
  };

  SwapDaemon(sim::Engine& eng, PhysicalMemory& pm, Config cfg);
  SwapDaemon(sim::Engine& eng, PhysicalMemory& pm)
      : SwapDaemon(eng, pm, Config()) {}
  ~SwapDaemon() { stop(); }
  SwapDaemon(const SwapDaemon&) = delete;
  SwapDaemon& operator=(const SwapDaemon&) = delete;

  /// Address spaces to scan. Not owned; caller keeps them alive while the
  /// daemon runs.
  void watch(AddressSpace* as);

  /// Starts the periodic scan.
  void start();
  void stop();

  /// One synchronous reclaim pass (also used by tests). Returns pages freed.
  std::size_t scan_once();

  [[nodiscard]] std::uint64_t total_reclaimed() const noexcept {
    return total_reclaimed_;
  }

 private:
  /// Queues the next tick; while running exactly one is queued.
  void arm();
  void tick();

  sim::Engine& eng_;
  PhysicalMemory& pm_;
  Config cfg_;
  std::vector<AddressSpace*> spaces_;
  sim::Rng rng_;
  bool running_ = false;
  sim::Engine::EventId pending_{};
  std::uint64_t total_reclaimed_ = 0;
};

}  // namespace pinsim::mem
