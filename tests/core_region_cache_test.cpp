#include "core/region_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pinsim::core {
namespace {

/// Harness standing in for the driver: hands out region ids and records
/// declare/undeclare traffic.
struct FakeDriver {
  RegionId declare(const std::vector<Segment>&) {
    const RegionId id = next++;
    live.insert(id);
    ++declares;
    return id;
  }
  void undeclare(RegionId id) {
    ASSERT_EQ(live.erase(id), 1u) << "undeclare of unknown region";
    ++undeclares;
    undeclared.push_back(id);
  }
  RegionId next = 1;
  std::set<RegionId> live;
  int declares = 0;
  int undeclares = 0;
  std::vector<RegionId> undeclared;  // in undeclare order
};

RegionCache make_cache(FakeDriver& drv, bool enabled, std::size_t capacity) {
  CacheConfig cfg;
  cfg.enabled = enabled;
  cfg.capacity = capacity;
  return RegionCache(
      cfg, [&drv](const std::vector<Segment>& s) { return drv.declare(s); },
      [&drv](RegionId id) { drv.undeclare(id); });
}

std::vector<Segment> seg(mem::VirtAddr addr, std::size_t len) {
  return {Segment{addr, len}};
}

TEST(RegionCache, HitOnSameSegments) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  cache.release(a);
  const RegionId b = cache.acquire(seg(0x1000, 4096));
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(drv.declares, 1);
  EXPECT_EQ(drv.undeclares, 0);
  cache.release(b);
}

TEST(RegionCache, DifferentLengthIsDifferentEntry) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  const RegionId b = cache.acquire(seg(0x1000, 8192));
  EXPECT_NE(a, b);
  EXPECT_EQ(drv.declares, 2);
  cache.release(a);
  cache.release(b);
}

TEST(RegionCache, ConcurrentAcquiresShareEntry) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  const RegionId a = cache.acquire(seg(0x2000, 4096));
  const RegionId b = cache.acquire(seg(0x2000, 4096));
  EXPECT_EQ(a, b);
  EXPECT_EQ(drv.declares, 1);
  cache.release(a);
  cache.release(b);
  EXPECT_EQ(drv.undeclares, 0);  // still cached
}

TEST(RegionCache, LruEvictionBeyondCapacity) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 2);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  cache.release(a);
  const RegionId b = cache.acquire(seg(0x2000, 4096));
  cache.release(b);
  // Touch `a` so `b` becomes LRU.
  cache.release(cache.acquire(seg(0x1000, 4096)));
  const RegionId c = cache.acquire(seg(0x3000, 4096));
  cache.release(c);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(drv.live.count(b), 0u);  // b evicted
  EXPECT_EQ(drv.live.count(a), 1u);
  EXPECT_EQ(drv.live.count(c), 1u);
  // Re-acquiring b is a miss again.
  const RegionId b2 = cache.acquire(seg(0x2000, 4096));
  EXPECT_EQ(cache.stats().misses, 4u);
  cache.release(b2);
}

TEST(RegionCache, InUseEntriesAreNeverEvicted) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 1);
  const RegionId a = cache.acquire(seg(0x1000, 4096));  // in use
  const RegionId b = cache.acquire(seg(0x2000, 4096));  // in use
  const RegionId c = cache.acquire(seg(0x3000, 4096));  // in use
  // Over capacity but nothing evictable.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 3u);
  cache.release(a);
  cache.release(b);
  cache.release(c);
  // Releases trigger eviction down to capacity 1.
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RegionCache, DisabledCacheDeclaresAndUndeclaresEveryTime) {
  FakeDriver drv;
  auto cache = make_cache(drv, false, 64);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  cache.release(a);
  const RegionId b = cache.acquire(seg(0x1000, 4096));
  cache.release(b);
  EXPECT_NE(a, b);
  EXPECT_EQ(drv.declares, 2);
  EXPECT_EQ(drv.undeclares, 2);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RegionCache, VectorialKeysCompareBySegmentList) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  std::vector<Segment> v1{{0x1000, 100}, {0x5000, 200}};
  std::vector<Segment> v2{{0x1000, 100}, {0x5000, 201}};
  const RegionId a = cache.acquire(v1);
  const RegionId b = cache.acquire(v2);
  EXPECT_NE(a, b);
  cache.release(a);
  const RegionId a2 = cache.acquire(v1);
  EXPECT_EQ(a, a2);
  cache.release(a2);
  cache.release(b);
}

TEST(RegionCache, ClearUndeclaresIdleEntries) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  cache.release(cache.acquire(seg(0x1000, 4096)));
  cache.release(cache.acquire(seg(0x2000, 4096)));
  cache.clear();
  EXPECT_EQ(drv.undeclares, 2);
  EXPECT_TRUE(drv.live.empty());
}

TEST(RegionCache, ClearUndeclaresLeastRecentlyIdleFirst) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  const RegionId b = cache.acquire(seg(0x2000, 4096));
  const RegionId c = cache.acquire(seg(0x3000, 4096));
  cache.release(b);
  cache.release(c);
  cache.release(a);
  cache.clear();
  EXPECT_EQ(drv.undeclared, (std::vector<RegionId>{b, c, a}));
}

TEST(RegionCache, EvictionsUndeclareLeastRecentlyIdleFirst) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 3);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  const RegionId b = cache.acquire(seg(0x2000, 4096));
  const RegionId c = cache.acquire(seg(0x3000, 4096));
  cache.release(b);
  cache.release(a);
  cache.release(c);
  // Two misses past capacity evict the two entries idle the longest, not
  // the lowest ids or the oldest declarations.
  const RegionId d = cache.acquire(seg(0x4000, 4096));
  const RegionId e = cache.acquire(seg(0x5000, 4096));
  EXPECT_EQ(drv.undeclared, (std::vector<RegionId>{b, a}));
  EXPECT_EQ(cache.stats().evictions, 2u);
  cache.release(d);
  cache.release(e);
}

TEST(RegionCache, ReacquireThenReleaseMakesEntryMostRecent) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 2);
  const RegionId a = cache.acquire(seg(0x1000, 4096));
  cache.release(a);
  const RegionId b = cache.acquire(seg(0x2000, 4096));
  cache.release(b);
  cache.release(cache.acquire(seg(0x1000, 4096)));  // a idle again, newest
  cache.release(cache.acquire(seg(0x3000, 4096)));
  cache.release(cache.acquire(seg(0x4000, 4096)));
  ASSERT_EQ(drv.undeclared.size(), 2u);
  EXPECT_EQ(drv.undeclared[0], b);
  EXPECT_EQ(drv.undeclared[1], a);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RegionCache, DestructorDrainsCache) {
  FakeDriver drv;
  {
    auto cache = make_cache(drv, true, 8);
    cache.release(cache.acquire(seg(0x1000, 4096)));
  }
  EXPECT_TRUE(drv.live.empty());
}

TEST(RegionCache, ReleaseOfUnknownRegionThrows) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  EXPECT_THROW(cache.release(999), std::invalid_argument);
}

TEST(RegionCache, EmptySegmentsThrow) {
  FakeDriver drv;
  auto cache = make_cache(drv, true, 8);
  EXPECT_THROW((void)cache.acquire({}), std::invalid_argument);
}

}  // namespace
}  // namespace pinsim::core
