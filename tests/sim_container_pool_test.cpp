// Standalone contract tests for the simulator's flat containers, rings and
// small vectors, and the protocol object and buffer pools: ordered
// iteration, duplicate-insert semantics, the documented iterator/reference
// invalidation contract (and the FlatMap-of-pool-Ptr pattern that survives
// it), FIFO order across wrap and growth, stable node addresses and kept
// capacity across release/re-acquire cycles, and size-class filing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "mem/pool.hpp"
#include "sim/flat_map.hpp"
#include "sim/ring.hpp"
#include "sim/small_vector.hpp"

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
    void reset() { mem::reset_keeping(*this, &Req::segs); }
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

TEST(ObjectPool, ReleasedNodeKeepsInnerCapacity) {
  struct Msg {
    int seq = -1;
    std::vector<int> frags;
    void reset() {
      seq = -1;
      frags.clear();
    }
  };
  mem::ObjectPool<Msg> pool;
  auto a = pool.acquire();
  a->seq = 7;
  a->frags.assign(64, 1);
  const int* storage = a->frags.data();
  a.reset();

  auto b = pool.acquire();
  EXPECT_EQ(b->seq, -1);
  EXPECT_TRUE(b->frags.empty());
  EXPECT_GE(b->frags.capacity(), 64u);  // the lease reuses the storage
  b->frags.assign(64, 2);
  EXPECT_EQ(b->frags.data(), storage);
}

TEST(ObjectPool, ResetKeepingClearsListedMembersAndDefaultsTheRest) {
  struct Node {
    int id = 3;
    std::vector<int> kept;
    std::vector<int> dropped;
  };
  Node n;
  n.id = 9;
  n.kept.assign(32, 1);
  n.dropped.assign(32, 1);
  mem::reset_keeping(n, &Node::kept);
  EXPECT_EQ(n.id, 3);
  EXPECT_TRUE(n.kept.empty());
  EXPECT_GE(n.kept.capacity(), 32u);
  EXPECT_TRUE(n.dropped.empty());
}

// --- Ring --------------------------------------------------------------------

TEST(Ring, FifoAcrossWrapAndGrowthAgainstADeque) {
  sim::Ring<int> ring;
  std::deque<int> ref;
  int next = 0;
  std::size_t cap = 0;
  // Push k, pop k/2 for growing k: the head walks around the buffer, and
  // every growth happens with it mid-buffer.
  for (int k = 1; k <= 40; ++k) {
    for (int i = 0; i < k; ++i) {
      ring.push_back(next);
      ref.push_back(next++);
    }
    for (int i = 0; i < k / 2; ++i) {
      ASSERT_EQ(ring.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    EXPECT_GE(ring.capacity(), cap);  // never shrinks
    cap = ring.capacity();
  }
  while (!ref.empty()) {
    ASSERT_EQ(ring.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
  ring.push_back(1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
}

// --- SmallVector -------------------------------------------------------------

TEST(SmallVector, SpillsPastInlineCapacityAndKeepsItAcrossClear) {
  sim::SmallVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  v.push_back(3);  // spills every element to the heap
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), (std::vector<int>{1, 2, 3}));
  const int* spilled = v.data();
  v.clear();
  v.push_back(4);  // back inline
  EXPECT_NE(v.data(), spilled);
  v.push_back(5);
  v.push_back(6);  // spills into the kept buffer
  EXPECT_EQ(v.data(), spilled);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()), (std::vector<int>{4, 5, 6}));

  sim::SmallVector<int, 2> moved = std::move(v);
  EXPECT_EQ(std::vector<int>(moved.begin(), moved.end()),
            (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)

  const sim::SmallVector<int, 2> adopted(std::vector<int>{7, 8, 9});
  EXPECT_EQ(std::vector<int>(adopted.begin(), adopted.end()),
            (std::vector<int>{7, 8, 9}));
  const sim::SmallVector<int, 2> inline_one(std::vector<int>{7});
  EXPECT_EQ(inline_one.size(), 1u);
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

TEST(BufferPool, NeverHandsOutABufferSmallerThanRequested) {
  mem::BufferPool pool;
  std::map<const std::byte*, std::size_t> retired;  // data -> capacity
  const auto retire = [&](std::vector<std::byte>&& buf) {
    retired[buf.data()] = buf.capacity();
    pool.release(std::move(buf));
  };
  // Assorted capacities, several per class and some either side of a
  // class bound.
  for (std::size_t cap : {64u, 65u, 100u, 2048u, 2073u, 2304u, 2305u, 8221u,
                          9000u, 9216u, 30000u, 65536u, 100000u}) {
    std::vector<std::byte> buf;
    buf.reserve(cap);
    retire(std::move(buf));
  }
  for (std::size_t n = 0; n <= 70000; n += 97) {
    const std::size_t before = pool.retained();
    std::vector<std::byte> buf = pool.acquire_for_overwrite(n);
    ASSERT_EQ(buf.size(), n);
    if (pool.retained() < before) {
      // A recycled buffer: it already held n bytes, so it was not grown.
      ASSERT_EQ(retired.count(buf.data()), 1u) << n;
      ASSERT_GE(retired[buf.data()], n);
      ASSERT_EQ(buf.capacity(), retired[buf.data()]);
    }
    retire(std::move(buf));
  }
}

TEST(BufferPool, FilesByUsableCapacity) {
  mem::BufferPool pool;
  const auto retire = [&pool](std::size_t cap) {
    std::vector<std::byte> buf;
    buf.reserve(cap);
    const std::byte* at = buf.data();
    pool.release(std::move(buf));
    return at;
  };
  // A control frame, an eager fragment and a full pull reply, retired in
  // the order that a single LIFO stack would hand out wrongly.
  const std::byte* control = retire(64);
  const std::byte* fragment = retire(2304);
  const std::byte* reply = retire(9216);
  EXPECT_EQ(pool.acquire_for_overwrite(30).data(), control);
  EXPECT_EQ(pool.acquire_for_overwrite(2073).data(), fragment);
  EXPECT_EQ(pool.acquire_for_overwrite(8221).data(), reply);
  EXPECT_EQ(pool.retained(), 0u);

  // One byte past a buffer's capacity skips it, for the next class up.
  const std::byte* small = retire(2048);
  const std::byte* big = retire(2304);
  EXPECT_EQ(pool.acquire_for_overwrite(2049).data(), big);
  EXPECT_EQ(pool.acquire_for_overwrite(2048).data(), small);

  // A fresh buffer files back where the same request finds it.
  for (std::size_t n : {30u, 100u, 2073u, 8221u, 32768u}) {
    std::vector<std::byte> fresh = pool.acquire_for_overwrite(n);
    const std::byte* at = fresh.data();
    const std::size_t cap = fresh.capacity();
    EXPECT_LE(cap, n + n / 16 + 64);  // at most one class of slack
    pool.release(std::move(fresh));
    std::vector<std::byte> again = pool.acquire_for_overwrite(n);
    EXPECT_EQ(again.data(), at) << n;
    EXPECT_EQ(again.capacity(), cap) << n;
  }

  // Even beside a smaller buffer retired into the same class afterwards: a
  // 2 kB eager staging copy and a 2 kB fragment's frame share an octave.
  std::vector<std::byte> frame = pool.acquire_for_overwrite(2073);
  std::vector<std::byte> staging = pool.acquire_for_overwrite(2048);
  const std::byte* frame_at = frame.data();
  pool.release(std::move(frame));
  pool.release(std::move(staging));
  EXPECT_EQ(pool.acquire_for_overwrite(2073).data(), frame_at);
}

TEST(BufferPool, EmptyBuffersAreNotRetained) {
  mem::BufferPool pool;
  pool.release(std::vector<std::byte>{});
  EXPECT_EQ(pool.retained(), 0u);
}

}  // namespace
}  // namespace pinsim
