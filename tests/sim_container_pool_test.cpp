// Standalone contract tests for the simulator's flat containers and the
// protocol object pools: ordered iteration, duplicate-insert semantics, the
// documented iterator/reference invalidation contract (and the
// FlatMap-of-pool-Ptr pattern that survives it), and stable node addresses
// across release/re-acquire cycles.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/pool.hpp"
#include "sim/flat_map.hpp"

namespace pinsim {
namespace {

// --- FlatMap -----------------------------------------------------------------

TEST(FlatMap, IterationIsAlwaysInAscendingKeyOrder) {
  sim::FlatMap<std::uint64_t, int> m;
  const std::uint64_t keys[] = {42, 7, 99, 1, 63, 12, 0, 255};
  for (std::uint64_t k : keys) m[k] = static_cast<int>(k * 2);

  std::uint64_t prev = 0;
  bool first = true;
  std::size_t seen = 0;
  for (const auto& [k, v] : m) {
    if (!first) EXPECT_LT(prev, k);
    EXPECT_EQ(v, static_cast<int>(k * 2));
    prev = k;
    first = false;
    ++seen;
  }
  EXPECT_EQ(seen, 8u);

  // The property must survive erases from the middle and both ends.
  m.erase(std::uint64_t{0});
  m.erase(std::uint64_t{63});
  m.erase(std::uint64_t{255});
  prev = 0;
  first = true;
  for (const auto& [k, v] : m) {
    if (!first) EXPECT_LT(prev, k);
    prev = k;
    first = false;
  }
  EXPECT_EQ(m.size(), 5u);
}

TEST(FlatMap, DuplicateInsertIsANoOp) {
  sim::FlatMap<int, std::string> m;
  auto [it1, fresh1] = m.emplace(5, "first");
  EXPECT_TRUE(fresh1);
  auto [it2, fresh2] = m.emplace(5, "second");
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, "first");  // collision keeps the original value
  EXPECT_EQ(m.size(), 1u);

  m[5] = "updated";  // operator[] finds, never duplicates
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(5), "updated");
}

TEST(FlatMap, FindLowerBoundAndEraseByIterator) {
  sim::FlatMap<int, int> m;
  for (int k : {10, 20, 30}) m[k] = k;
  EXPECT_EQ(m.find(15), m.end());
  EXPECT_EQ(m.lower_bound(15)->first, 20);
  EXPECT_EQ(m.lower_bound(31), m.end());

  auto next = m.erase(m.find(20));
  EXPECT_EQ(next->first, 30);  // erase returns the successor
  EXPECT_FALSE(m.contains(20));
  EXPECT_EQ(m.erase(20), 0u);  // erasing an absent key reports 0
}

// The documented invalidation contract: insert/erase invalidate references
// into the map, so reentrant callbacks must either snapshot keys first or
// store values indirectly. Both idioms the protocol code uses are asserted.
TEST(FlatMap, CollectKeysFirstSurvivesEraseDuringWalk) {
  sim::FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 16; ++k) m[k] = static_cast<int>(k);

  // The endpoint's fail_all_inflight idiom: snapshot the keys, then run
  // "callbacks" that erase (and even insert) while the walk proceeds.
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  for (std::uint32_t k : keys) {
    if (k % 2 == 0) {
      EXPECT_EQ(m.erase(k), 1u);
      m[k + 100] = -1;  // reentrant insert while "iterating" the snapshot
    }
  }
  EXPECT_EQ(m.size(), 16u);  // 8 odd survivors + 8 reentrant inserts
  for (std::uint32_t k = 0; k < 16; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 == 1) << k;
  }
}

TEST(FlatMap, PooledPtrValuesKeepStableAddressesAcrossRehash) {
  // The FlatMap<K, ObjectPool<T>::Ptr> pattern: the table's vector may
  // reallocate on every insert, but the pooled nodes never move, so a T&
  // held across a reentrant mutation stays valid.
  struct Node {
    int value = 0;
  };
  mem::ObjectPool<Node> pool;
  sim::FlatMap<int, mem::ObjectPool<Node>::Ptr> m;

  auto first = pool.acquire();
  Node& held = *first;
  held.value = 77;
  m.emplace(0, std::move(first));

  for (int k = 1; k < 64; ++k) {  // force repeated vector growth
    auto n = pool.acquire();
    n->value = k;
    m.emplace(k, std::move(n));
  }
  EXPECT_EQ(held.value, 77);      // reference survived 63 inserts
  EXPECT_EQ(&held, m.at(0).get());
  m.erase(32);
  EXPECT_EQ(held.value, 77);      // and an erase-shift
}

// --- FlatSet -----------------------------------------------------------------

TEST(FlatSet, DuplicateInsertReportsExistingMembership) {
  sim::FlatSet<std::uint64_t> s;
  EXPECT_TRUE(s.insert(9).second);
  EXPECT_FALSE(s.insert(9).second);  // the closed_peer_slots_ transition gate
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.count(9), 1u);
  EXPECT_EQ(s.erase(9), 1u);
  EXPECT_EQ(s.erase(9), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, OrderedIterationProperty) {
  sim::FlatSet<int> s;
  for (int k : {5, 3, 8, 1, 9, 2}) s.insert(k);
  std::vector<int> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 5, 8, 9}));
}

// --- ObjectPool --------------------------------------------------------------

TEST(ObjectPool, ReuseAfterReleaseKeepsStableAddressAndResetsState) {
  struct Req {
    int seq = -1;
    std::vector<int> segs;
  };
  mem::ObjectPool<Req> pool;

  auto a = pool.acquire();
  Req* addr = a.get();
  a->seq = 42;
  a->segs = {1, 2, 3};
  EXPECT_EQ(pool.outstanding(), 1u);

  a.reset();  // release: node resets to default-constructed state
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.capacity(), 1u);

  auto b = pool.acquire();
  EXPECT_EQ(b.get(), addr);  // same node re-issued (LIFO free list)
  EXPECT_EQ(b->seq, -1);     // no stale protocol state leaks into the lease
  EXPECT_TRUE(b->segs.empty());
}

TEST(ObjectPool, LeasedNodesSurviveFurtherGrowth) {
  mem::ObjectPool<int> pool;
  std::vector<mem::ObjectPool<int>::Ptr> leases;
  std::vector<int*> addrs;
  for (int i = 0; i < 100; ++i) {
    leases.push_back(pool.acquire());
    *leases.back() = i;
    addrs.push_back(leases.back().get());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(leases[i].get(), addrs[i]);  // growth never moved a node
    EXPECT_EQ(*leases[i], i);
  }
  EXPECT_EQ(pool.outstanding(), 100u);
  leases.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.capacity(), 100u);
}

// --- BufferPool --------------------------------------------------------------

TEST(BufferPool, RecyclesCapacityWithoutLeakingStaleBytes) {
  mem::BufferPool pool;
  auto buf = pool.acquire(256);
  for (auto& b : buf) b = std::byte{0xAB};
  const std::byte* data = buf.data();
  const std::size_t cap = buf.capacity();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.retained(), 1u);

  auto again = pool.acquire(128);
  EXPECT_EQ(again.data(), data);      // same allocation re-issued
  EXPECT_GE(again.capacity(), cap);
  EXPECT_EQ(again.size(), 128u);
  for (auto b : again) EXPECT_EQ(b, std::byte{0});  // clear+resize zeroed it
  EXPECT_EQ(pool.retained(), 0u);
}

TEST(BufferPool, AcquireForOverwriteReusesCapacityWithoutZeroing) {
  mem::BufferPool pool;
  auto buf = pool.acquire(256);
  for (auto& b : buf) b = std::byte{0xAB};
  const std::byte* data = buf.data();
  pool.release(std::move(buf));

  auto again = pool.acquire_for_overwrite(128);
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(again.size(), 128u);
  EXPECT_EQ(again[127], std::byte{0xAB});  // left for the caller to overwrite
  EXPECT_EQ(pool.retained(), 0u);

  auto fresh = pool.acquire_for_overwrite(64);  // empty pool: new buffer
  EXPECT_EQ(fresh.size(), 64u);
}

TEST(BufferPool, EmptyBuffersAreNotRetained) {
  mem::BufferPool pool;
  pool.release(std::vector<std::byte>{});
  EXPECT_EQ(pool.retained(), 0u);
}

}  // namespace
}  // namespace pinsim
