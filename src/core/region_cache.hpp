#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/region.hpp"

namespace pinsim::core {

/// User-space cache of region *declarations* (paper §3.2).
///
/// It maps a segment list to the integer descriptor the driver understands,
/// so a reused buffer needs no new declaration syscall. Crucially it caches
/// only declarations, never pin state: the driver may have unpinned a cached
/// region behind our back (MMU notifier, memory pressure) and will repin on
/// use — so this cache needs no invalidation channel from the kernel, which
/// is the paper's main simplification over classic registration caches.
///
/// The cache is one vector of declarations, scanned on lookup (capacity is
/// 64 by default and 2-16 in the benches), so each declaration is stored
/// once and a hit copies nothing.
/// Eviction is LRU over idle entries (an entry with in-flight communications
/// is never evicted): the victim is the entry idle the longest. With
/// `enabled == false` every acquire declares and the matching release
/// undeclares — the "pin once per communication" baseline.
class RegionCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  using DeclareFn = std::function<RegionId(const std::vector<Segment>&)>;
  using UndeclareFn = std::function<void(RegionId)>;

  RegionCache(CacheConfig cfg, DeclareFn declare, UndeclareFn undeclare);

  RegionCache(const RegionCache&) = delete;
  RegionCache& operator=(const RegionCache&) = delete;
  ~RegionCache();

  /// Returns the region id for `segments`, declaring on miss. The entry is
  /// marked in use until the matching release().
  [[nodiscard]] RegionId acquire(std::span<const Segment> segments);

  /// Marks one use of `id` finished. Cache disabled: undeclares immediately.
  void release(RegionId id);

  /// Undeclares every idle entry (e.g. at finalize). Entries in use are
  /// kept; they drain at release time.
  void clear();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    SegmentList segments;
    RegionId id = kInvalidRegion;
    std::uint32_t uses = 0;
    std::uint64_t idle_since = 0;  // stamped when uses drops to 0
  };

  void evict_down_to(std::size_t target);

  CacheConfig cfg_;
  DeclareFn declare_;
  UndeclareFn undeclare_;
  std::vector<Entry> entries_;
  std::uint64_t idle_clock_ = 0;  // last idle_since stamp handed out
  Stats stats_;
};

}  // namespace pinsim::core
