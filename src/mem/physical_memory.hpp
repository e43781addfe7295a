#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "mem/types.hpp"

namespace pinsim::mem {

class PressureInjector;

/// Physical memory: a pool of reference-counted 4 kB frames holding real
/// bytes.
///
/// Reference counting mirrors the Linux page refcount that makes
/// `get_user_pages` safe: the address-space mapping holds one reference and
/// every pin holds another, so a frame that is unmapped while still pinned
/// stays alive (an "orphaned" frame) until the last pin drops. That is
/// exactly the situation a stale user-space registration cache exploits —
/// and how our tests make its corruption observable.
///
/// Zero-once contract: like the kernel zero-filling a fresh anonymous page,
/// every byte of the pool is zeroed exactly once before anyone can see it.
/// On Linux the pool is one private anonymous mapping that the kernel
/// populates with zero pages at construction, so no user-space pass writes
/// over them; elsewhere it is value-initialised heap storage. The kernel
/// populates each mapping once per process: a destroyed pool hands its
/// mapping (an "arena") to a process-wide cache, and the next pool takes
/// the smallest cached arena that fits, zeroing during construction only
/// the prefix of frames earlier pools handed out. Construction splits the
/// populate (MADV_POPULATE_WRITE) or the clear (memset) into page-aligned
/// slices, one per core of the process's affinity mask (at most 4, each at
/// least 1 MiB), and runs all but the first on short-lived helper threads
/// that it joins before returning; a kernel that refuses the advice gets one
/// MAP_POPULATE mapping instead. The cache itself is touched only by the
/// constructing or destroying thread.
/// `alloc()` then re-zeroes only recycled frames: the free list is LIFO and
/// starts as every frame in increasing id order, so never-used frames leave
/// it in increasing id order and every frame at or above the pristine
/// watermark has never been written.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t num_frames);
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  /// Allocates a zeroed frame with refcount 1: a never-used frame as the
  /// pool delivered it, a recycled one zeroed here. Throws OutOfMemoryError.
  [[nodiscard]] FrameId alloc();

  /// Increments the reference count of a live frame.
  void ref(FrameId f);

  /// Decrements the reference count; frees the frame when it reaches zero.
  void unref(FrameId f);

  [[nodiscard]] std::uint32_t refcount(FrameId f) const;

  /// Raw bytes of a live frame (the "kernel direct mapping").
  [[nodiscard]] std::span<std::byte> data(FrameId f);
  [[nodiscard]] std::span<const std::byte> data(FrameId f) const;

  [[nodiscard]] std::size_t total_frames() const noexcept {
    return refcounts_.size();
  }
  [[nodiscard]] std::size_t free_frames() const noexcept {
    return free_list_.size();
  }
  [[nodiscard]] std::size_t used_frames() const noexcept {
    return total_frames() - free_frames();
  }

  /// Global pinned-page accounting, used by the driver to decide when to shed
  /// pins under memory pressure (paper §3.1: "if there are too many pinned
  /// pages ... it may also request some unpinning").
  void account_pin(std::int64_t delta);
  [[nodiscard]] std::size_t pinned_pages() const noexcept {
    return pinned_pages_;
  }

  /// Hard cap on pinned pages across the host — the RLIMIT_MEMLOCK /
  /// ib_umem accounting analogue. `pin_page` throws PinDeniedError(kQuota)
  /// above it; the pin manager sheds LRU idle regions and shrinks its chunk
  /// to fit the remaining headroom. Default: unlimited. Shrinking the quota
  /// below the current pinned count does not unpin anything by itself; it
  /// only refuses *new* pins until the count drains below it.
  void set_pin_quota(std::size_t pages) noexcept { pin_quota_ = pages; }
  [[nodiscard]] std::size_t pin_quota() const noexcept { return pin_quota_; }

  /// Pins still allowed under the quota (SIZE_MAX when unlimited).
  [[nodiscard]] std::size_t pin_headroom() const noexcept {
    if (pin_quota_ == std::numeric_limits<std::size_t>::max()) {
      return pin_quota_;
    }
    return pin_quota_ > pinned_pages_ ? pin_quota_ - pinned_pages_ : 0;
  }

  [[nodiscard]] std::uint64_t quota_denials() const noexcept {
    return quota_denials_;
  }
  void count_quota_denial() noexcept { ++quota_denials_; }

  /// Optional memory-pressure fault injector consulted by AddressSpace::
  /// pin_page. Not owned; nullptr disables injection.
  void set_pressure(PressureInjector* p) noexcept { pressure_ = p; }
  [[nodiscard]] PressureInjector* pressure() const noexcept {
    return pressure_;
  }

 private:
  void check_live(FrameId f) const;

  std::byte* bytes_ = nullptr;       // the pool: total_frames() frames
  std::vector<std::byte> fallback_;  // backs bytes_ where there is no mmap
  std::size_t arena_frames_ = 0;     // frames of its arena (0: none)
  std::size_t arena_dirty_ = 0;      // its watermark if > total_frames()
  FrameId pristine_ = 0;             // frames >= this were never handed out
  std::vector<std::uint32_t> refcounts_;  // 0 == free
  std::vector<FrameId> free_list_;
  std::size_t pinned_pages_ = 0;
  std::size_t pin_quota_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t quota_denials_ = 0;
  PressureInjector* pressure_ = nullptr;
};

}  // namespace pinsim::mem
