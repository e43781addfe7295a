// Seeded property tests for sim::HashMap / sim::HashSet: long random
// operation streams run against std::unordered_map / std::unordered_set,
// and the two must agree on every lookup, size and final content. The
// streams cover growth from empty, steady-size insert/erase churn (which
// exercises backward-shift deletion across wrapped probe runs) and
// shrinking back to empty, over both dense and bit-packed key spaces.
#include "sim/hash_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "sim/random.hpp"

namespace pinsim::sim {
namespace {

/// Keys shaped like the simulator's: (node << 40 | ep << 32 | id), plus a
/// dense small range so inserts and erases keep hitting live keys.
std::uint64_t draw_key(Rng& rng, std::uint64_t span) {
  if (rng.next_below(2) == 0) return rng.next_below(span);
  return (rng.next_below(256) << 40) | (rng.next_below(8) << 32) |
         rng.next_below(span / 8 + 1);
}

void expect_same(const HashMap<std::uint64_t>& m,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  std::size_t walked = 0;
  // pinlint: unordered-ok(membership check per entry, order-free)
  for (const auto& [k, v] : m) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
    ++walked;
  }
  EXPECT_EQ(walked, ref.size());
}

TEST(HashMap, MatchesUnorderedMapOverRandomOperations) {
  Rng rng(0x4a54);
  HashMap<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  // Phases: grow past 10k keys, churn near that size, then drain.
  constexpr int kOps = 150'000;
  std::size_t peak = 0;
  std::size_t churned = 0;
  for (int op = 0; op < kOps; ++op) {
    const int phase = op < 40'000 ? 0 : (op < 110'000 ? 1 : 2);
    const std::uint64_t span = 8192;
    const std::uint64_t k = draw_key(rng, span);
    const std::uint64_t pick = rng.next_below(100);
    // Inserts lead while growing, match the erases (each erase op removes
    // a drawn and a live key) during churn, and trail while draining.
    const std::uint64_t insert_share = phase == 0 ? 65 : (phase == 1 ? 40 : 15);
    if (pick < insert_share) {
      const std::uint64_t v = rng.next_u64();
      if (rng.next_below(2) == 0) {
        m[k] = v;
        ref[k] = v;
      } else {
        const bool inserted = m.emplace(k, v).second;
        EXPECT_EQ(inserted, ref.emplace(k, v).second) << "op " << op;
      }
    } else if (pick < insert_share + 20) {
      const auto it = m.find(k);
      const auto rit = ref.find(k);
      ASSERT_EQ(it == m.end(), rit == ref.end()) << "op " << op;
      if (it != m.end()) {
        EXPECT_EQ(it->second, rit->second) << "op " << op;
      }
      EXPECT_EQ(m.contains(k), rit != ref.end());
    } else {
      EXPECT_EQ(m.erase(k), ref.erase(k)) << "op " << op;
      // Erasing a random live key (not just a random draw) keeps the erase
      // path busy once the table is sparse in the drawn key space.
      if (!ref.empty() && !m.empty()) {
        // pinlint: unordered-ok(any live key will do; ref erases the same)
        const std::uint64_t live = m.begin()->first;
        EXPECT_EQ(m.erase(live), ref.erase(live)) << "op " << op;
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "op " << op;
    if (op % 10'000 == 0) expect_same(m, ref);
    if (op == 40'000) peak = m.size();
    if (op == 110'000) churned = m.size();
  }
  // The stream really grew the table, churned it at size, then drained it.
  EXPECT_GT(peak, 10'000u);
  EXPECT_GT(churned, peak / 3);
  EXPECT_LT(m.size(), churned / 4);
  expect_same(m, ref);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(draw_key(rng, 8192)));
  m[7] = 1;
  EXPECT_EQ(m.at(7), 1u);
}

TEST(HashMap, EraseIteratorDuringWalkVisitsEveryEntryOnce) {
  Rng rng(0xe1a5e);
  HashMap<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = draw_key(rng, 1 << 20);
    const std::uint64_t v = rng.next_below(1000);
    m[k] = v;
    ref[k] = v;
  }
  // Drop every odd value while walking: erase(it) moves the last entry into
  // the hole, and the walk must still see each entry exactly once.
  std::size_t visited = 0;
  // pinlint: unordered-ok(erase by value predicate, order-free)
  for (auto it = m.begin(); it != m.end();) {
    ++visited;
    it = it->second % 2 == 1 ? m.erase(it) : it + 1;
  }
  EXPECT_EQ(visited, ref.size());
  std::erase_if(ref, [](const auto& kv) { return kv.second % 2 == 1; });
  expect_same(m, ref);
}

TEST(HashMap, ExtremeKeysAndLargeValues) {
  struct Big {
    std::uint64_t words[16] = {};
  };
  HashMap<Big> m;
  const std::uint64_t keys[] = {0, 1, std::numeric_limits<std::uint64_t>::max(),
                                std::uint64_t{1} << 63, 0xffffffffu};
  for (std::uint64_t k : keys) m[k].words[15] = k ^ 0x5a;
  for (std::uint64_t k : keys) {
    ASSERT_TRUE(m.contains(k));
    EXPECT_EQ(m.at(k).words[15], k ^ 0x5a);
  }
  EXPECT_EQ(m.erase(0), 1u);
  EXPECT_FALSE(m.contains(0));
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.at(std::numeric_limits<std::uint64_t>::max()).words[15],
            std::numeric_limits<std::uint64_t>::max() ^ 0x5a);
}

TEST(HashSet, HoldsTheFreeSlotMarkerKey) {
  // The all-ones key doubles as the free-slot marker inside the table.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  HashSet s;
  EXPECT_FALSE(s.contains(kMax));
  EXPECT_TRUE(s.insert(kMax));
  EXPECT_FALSE(s.insert(kMax));
  EXPECT_TRUE(s.insert(0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(kMax));
  s.erase_if([](std::uint64_t k) { return k == 0; });
  EXPECT_TRUE(s.contains(kMax));
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.erase(kMax), 1u);
  EXPECT_EQ(s.erase(kMax), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(HashSet, MatchesUnorderedSetOverRandomOperations) {
  Rng rng(0x5e7);
  HashSet s;
  std::unordered_set<std::uint64_t> ref;
  constexpr int kOps = 150'000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t k = draw_key(rng, 4096);
    const std::uint64_t pick = rng.next_below(100);
    // Inserts lead early on, then the mix settles into churn.
    const std::uint64_t insert_share = op < 30'000 ? 70 : 45;
    if (pick < insert_share) {
      EXPECT_EQ(s.insert(k), ref.insert(k).second) << "op " << op;
    } else if (pick < insert_share + 20) {
      EXPECT_EQ(s.contains(k), ref.count(k) != 0) << "op " << op;
    } else {
      EXPECT_EQ(s.erase(k), ref.erase(k)) << "op " << op;
    }
    ASSERT_EQ(s.size(), ref.size()) << "op " << op;
  }
  // Equal sizes plus every reference key present: the same set.
  // pinlint: unordered-ok(membership check per key, order-free)
  for (std::uint64_t k : ref) EXPECT_TRUE(s.contains(k)) << "key " << k;
  // erase_if removes exactly the matching keys.
  const auto odd = [](std::uint64_t k) { return k % 2 == 1; };
  s.erase_if(odd);
  std::erase_if(ref, odd);
  ASSERT_EQ(s.size(), ref.size());
  // pinlint: unordered-ok(membership check per key, order-free)
  for (std::uint64_t k : ref) EXPECT_TRUE(s.contains(k)) << "key " << k;
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
}

}  // namespace
}  // namespace pinsim::sim
