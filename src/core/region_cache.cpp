#include "core/region_cache.hpp"

#include <cassert>
#include <stdexcept>

namespace pinsim::core {

std::size_t RegionCache::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const Segment& s : k.segments) {
    mix(s.addr);
    mix(s.len);
  }
  return h;
}

RegionCache::RegionCache(CacheConfig cfg, DeclareFn declare,
                         UndeclareFn undeclare)
    : cfg_(cfg), declare_(std::move(declare)), undeclare_(std::move(undeclare)) {
  assert(declare_ && undeclare_);
}

RegionCache::~RegionCache() { clear(); }

RegionId RegionCache::acquire(std::span<const Segment> segments) {
  if (segments.empty()) throw std::invalid_argument("empty segment list");
  Key key{{segments.begin(), segments.end()}};

  if (!cfg_.enabled) {
    ++stats_.misses;
    return declare_(key.segments);  // caller's release() undeclares
  }

  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    Entry& e = it->second;
    if (e.in_lru) {
      lru_.erase(e.lru_pos);
      e.in_lru = false;
    }
    ++e.uses;
    return e.id;
  }

  ++stats_.misses;
  const RegionId id = declare_(key.segments);
  Entry e;
  e.id = id;
  e.uses = 1;
  entries_.emplace(key, e);
  by_id_.emplace(id, std::move(key));
  // A new entry may push us over capacity; evict idle LRU entries.
  evict_down_to(cfg_.capacity);
  return id;
}

void RegionCache::release(RegionId id) {
  if (!cfg_.enabled) {
    undeclare_(id);
    return;
  }
  auto bid = by_id_.find(id);
  if (bid == by_id_.end()) throw std::invalid_argument("release of unknown region");
  auto it = entries_.find(bid->second);
  assert(it != entries_.end());
  Entry& e = it->second;
  assert(e.uses > 0);
  if (--e.uses == 0) {
    lru_.push_front(bid->second);
    e.lru_pos = lru_.begin();
    e.in_lru = true;
    evict_down_to(cfg_.capacity);
  }
}

void RegionCache::evict_down_to(std::size_t target) {
  while (entries_.size() > target && !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    assert(it != entries_.end() && it->second.uses == 0);
    ++stats_.evictions;
    undeclare_(it->second.id);
    by_id_.erase(it->second.id);
    entries_.erase(it);
  }
}

void RegionCache::clear() { evict_down_to(0); }

}  // namespace pinsim::core
