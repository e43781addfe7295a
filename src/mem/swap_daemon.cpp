#include "mem/swap_daemon.hpp"

#include <algorithm>

namespace pinsim::mem {

SwapDaemon::SwapDaemon(sim::Engine& eng, PhysicalMemory& pm, Config cfg)
    : eng_(eng), pm_(pm), cfg_(cfg), rng_(cfg.seed) {}

void SwapDaemon::watch(AddressSpace* as) { spaces_.push_back(as); }

void SwapDaemon::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void SwapDaemon::stop() {
  if (!running_) return;
  running_ = false;
  eng_.cancel(pending_);
}

void SwapDaemon::arm() {
  pending_ = eng_.schedule_after(
      cfg_.period,
      // pinlint: allow(D7: ~SwapDaemon calls stop(), which cancels pending_,
      // the only tick queued, before `this` can dangle)
      [this] { tick(); }, {"mem", "swap_tick"});
}

void SwapDaemon::tick() {
  scan_once();
  if (running_) arm();  // stop() leaves nothing queued
}

std::size_t SwapDaemon::scan_once() {
  const auto total = static_cast<double>(pm_.total_frames());
  if (static_cast<double>(pm_.used_frames()) < cfg_.high_watermark * total) {
    return 0;
  }
  const auto target =
      static_cast<std::size_t>(cfg_.low_watermark * total);

  // Gather candidates across all watched spaces, then evict in random order
  // until usage reaches the low watermark.
  std::vector<std::pair<AddressSpace*, VirtAddr>> candidates;
  for (AddressSpace* as : spaces_) {
    for (VirtAddr va : as->resident_unpinned_pages()) {
      candidates.emplace_back(as, va);
    }
  }
  // Fisher-Yates with the daemon's own deterministic RNG.
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng_.next_below(i)]);
  }

  std::size_t reclaimed = 0;
  for (auto& [as, va] : candidates) {
    if (pm_.used_frames() <= target) break;
    if (as->swap_out(va)) ++reclaimed;
  }
  total_reclaimed_ += reclaimed;
  return reclaimed;
}

}  // namespace pinsim::mem
