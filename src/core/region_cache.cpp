#include "core/region_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pinsim::core {

RegionCache::RegionCache(CacheConfig cfg, DeclareFn declare,
                         UndeclareFn undeclare)
    : cfg_(cfg), declare_(std::move(declare)), undeclare_(std::move(undeclare)) {
  assert(declare_ && undeclare_);
}

RegionCache::~RegionCache() { clear(); }

RegionId RegionCache::acquire(std::span<const Segment> segments) {
  if (segments.empty()) throw std::invalid_argument("empty segment list");

  if (cfg_.enabled) {
    for (Entry& e : entries_) {
      if (std::ranges::equal(e.segments, segments)) {
        ++stats_.hits;
        ++e.uses;
        return e.id;
      }
    }
  }

  ++stats_.misses;
  std::vector<Segment> declared(segments.begin(), segments.end());
  const RegionId id = declare_(declared);
  if (!cfg_.enabled) return id;  // caller's release() undeclares
  entries_.push_back({std::move(declared), id, 1, 0});
  // A new entry may push us over capacity; evict idle LRU entries.
  evict_down_to(cfg_.capacity);
  return id;
}

void RegionCache::release(RegionId id) {
  if (!cfg_.enabled) {
    undeclare_(id);
    return;
  }
  auto it = std::ranges::find(entries_, id, &Entry::id);
  if (it == entries_.end()) {
    throw std::invalid_argument("release of unknown region");
  }
  assert(it->uses > 0);
  if (--it->uses == 0) {
    it->idle_since = ++idle_clock_;
    evict_down_to(cfg_.capacity);
  }
}

void RegionCache::evict_down_to(std::size_t target) {
  while (entries_.size() > target) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->uses == 0 &&
          (victim == entries_.end() || it->idle_since < victim->idle_since)) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // every entry is in use
    const RegionId id = victim->id;
    entries_.erase(victim);
    ++stats_.evictions;
    undeclare_(id);
  }
}

void RegionCache::clear() { evict_down_to(0); }

}  // namespace pinsim::core
