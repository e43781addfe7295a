// Coverage for the smaller corners of the memory substrate and the core's
// priority ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "cpu/core.hpp"
#include "mem/address_space.hpp"
#include "mem/malloc_sim.hpp"
#include "mem/physical_memory.hpp"
#include "sim/engine.hpp"

namespace pinsim {
namespace {

TEST(MemExtra, FillWritesThePattern) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(2 * 4096);
  as.fill(a + 100, 5000, std::byte{0x7e});
  std::vector<std::byte> out(5000);
  as.read(a + 100, out);
  for (auto b : out) ASSERT_EQ(b, std::byte{0x7e});
  // Bytes before the fill stay zero.
  std::vector<std::byte> head(100);
  as.read(a, head);
  for (auto b : head) ASSERT_EQ(b, std::byte{0});
}

TEST(MemExtra, InvalidAddressErrorCarriesTheAddress) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  try {
    std::vector<std::byte> buf(4);
    as.read(0xdead000, buf);
    FAIL() << "expected InvalidAddressError";
  } catch (const mem::InvalidAddressError& e) {
    EXPECT_EQ(e.addr(), 0xdead000u);
    EXPECT_NE(std::string(e.what()).find("dead000"), std::string::npos);
  }
}

TEST(MemExtra, AddressSpaceRejectsEmptyRange) {
  mem::PhysicalMemory pm(16);
  EXPECT_THROW(mem::AddressSpace(pm, 0x2000, 0x1000), std::invalid_argument);
}

TEST(MemExtra, MmapFixedOutsideLimitsThrows) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm, 0x100000, 0x200000);
  EXPECT_THROW(as.mmap_fixed(0x1000, 4096), mem::InvalidAddressError);
  EXPECT_THROW(as.mmap_fixed(0x1ff000, 2 * 4096), mem::InvalidAddressError);
  EXPECT_NO_THROW(as.mmap_fixed(0x150000, 4096));
}

TEST(MemExtra, MmapExhaustionOfVirtualRangeThrows) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm, 0x100000, 0x104000);  // 4 pages of VA
  EXPECT_NO_THROW(as.mmap(3 * 4096));
  EXPECT_THROW(as.mmap(2 * 4096), mem::OutOfMemoryError);
}

TEST(MemExtra, SwapOfAlreadySwappedPageReturnsFalse) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  as.touch(a, 4096);
  EXPECT_TRUE(as.swap_out(a));
  EXPECT_FALSE(as.swap_out(a));  // not resident anymore
}

TEST(MemExtra, MunmapDiscardsSwappedContents) {
  mem::PhysicalMemory pm(16);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  std::vector<std::byte> v(8, std::byte{0x42});
  as.write(a, v);
  ASSERT_TRUE(as.swap_out(a));
  as.munmap(a, 4096);
  const auto b = as.mmap(4096);
  ASSERT_EQ(a, b);
  std::vector<std::byte> out(8, std::byte{0xff});
  as.read(b, out);
  for (auto x : out) EXPECT_EQ(x, std::byte{0});  // fresh zero page
}

TEST(MemExtra, CowSnapshotMoveAssignReleasesOldFrames) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  const auto b = as.mmap(4096);
  const std::vector<std::byte> one{std::byte{1}};
  const std::vector<std::byte> two{std::byte{2}};
  as.write(a, one);
  as.write(b, two);
  auto s1 = as.cow_snapshot(a, 4096);
  {
    auto s2 = as.cow_snapshot(b, 4096);
    s1 = std::move(s2);  // s1's old refs must drop
  }
  std::vector<std::byte> out(1);
  s1.read(b, out);
  EXPECT_EQ(out[0], std::byte{2});
  EXPECT_THROW(s1.read(a, out), mem::InvalidAddressError);
}

TEST(MemExtra, UsableSizeOfUnknownPointerThrows) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  mem::MallocSim heap(as);
  EXPECT_THROW((void)heap.usable_size(0x1234), std::invalid_argument);
}

TEST(MemExtra, MallocSimRejectsZeroThresholds) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  EXPECT_THROW(mem::MallocSim(as, 0), std::invalid_argument);
  EXPECT_THROW(mem::MallocSim(as, 1024, 0), std::invalid_argument);
}

TEST(CoreExtra, IdlePriorityYieldsToEverything) {
  sim::Engine eng;
  cpu::Core core(eng, "cpu0");
  std::vector<char> order;
  // Seed with a running job so the queue ordering is observable.
  core.submit(cpu::Priority::kUser, 10, [&] { order.push_back('s'); });
  core.submit(cpu::Priority::kIdle, 10, [&] { order.push_back('I'); });
  core.submit(cpu::Priority::kUser, 10, [&] { order.push_back('U'); });
  core.submit(cpu::Priority::kKernel, 10, [&] { order.push_back('K'); });
  core.submit(cpu::Priority::kBottomHalf, 10, [&] { order.push_back('B'); });
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'s', 'B', 'K', 'U', 'I'}));
}

TEST(CoreExtra, StatsTrackAllFourPriorities) {
  sim::Engine eng;
  cpu::Core core(eng, "cpu0");
  core.consume(cpu::Priority::kBottomHalf, 1);
  core.consume(cpu::Priority::kKernel, 2);
  core.consume(cpu::Priority::kUser, 3);
  core.consume(cpu::Priority::kIdle, 4);
  eng.run();
  EXPECT_EQ(core.stats().busy[0], 1u);
  EXPECT_EQ(core.stats().busy[1], 2u);
  EXPECT_EQ(core.stats().busy[2], 3u);
  EXPECT_EQ(core.stats().busy[3], 4u);
  EXPECT_EQ(core.stats().total_busy(), 10u);
}

TEST(MemExtra, PhysicalMemoryRefcountLifecycle) {
  mem::PhysicalMemory pm(4);
  const auto f = pm.alloc();
  EXPECT_EQ(pm.refcount(f), 1u);
  auto dirty = pm.data(f);
  std::fill(dirty.begin(), dirty.end(), std::byte{0xa5});
  pm.ref(f);
  EXPECT_EQ(pm.refcount(f), 2u);
  pm.unref(f);
  EXPECT_EQ(pm.used_frames(), 1u);
  pm.unref(f);
  EXPECT_EQ(pm.used_frames(), 0u);
  // Re-allocation hands back the dirtied frame (LIFO), zeroed.
  const auto g = pm.alloc();
  EXPECT_EQ(g, f);
  for (auto b : pm.data(g)) ASSERT_EQ(b, std::byte{0});
}

// --- zero-once frame pool ----------------------------------------------------

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(ZeroOnce, EveryFrameOfAFullyAllocatedPoolReadsZero) {
  mem::PhysicalMemory pm(256);
  for (std::size_t i = 0; i < pm.total_frames(); ++i) {
    const auto f = pm.alloc();
    EXPECT_EQ(f, i);  // never-used frames leave in id order
    ASSERT_TRUE(all_zero(pm.data(f))) << "frame " << f;
  }
  EXPECT_EQ(pm.free_frames(), 0u);
  EXPECT_THROW((void)pm.alloc(), mem::OutOfMemoryError);
}

TEST(ZeroOnce, DirtiedRecycledFramesComeBackZeroUnderTheWatermark) {
  mem::PhysicalMemory pm(8);
  std::vector<mem::FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(pm.alloc());
    auto page = pm.data(frames.back());
    std::fill(page.begin(), page.end(), std::byte{0xee});
  }
  // Free out of order, so recycled frames interleave with pristine ones.
  pm.unref(frames[2]);
  pm.unref(frames[0]);
  const auto a = pm.alloc();
  const auto b = pm.alloc();
  const auto c = pm.alloc();  // the free list is empty of recycled frames
  EXPECT_EQ(a, frames[0]);
  EXPECT_EQ(b, frames[2]);
  EXPECT_EQ(c, 4u);  // first pristine frame, above the watermark
  for (auto f : {a, b, c}) EXPECT_TRUE(all_zero(pm.data(f))) << "frame " << f;
  // The untouched dirty frames keep their bytes.
  EXPECT_EQ(pm.data(frames[1])[0], std::byte{0xee});
  EXPECT_EQ(pm.data(frames[3])[mem::kPageSize - 1], std::byte{0xee});
}

TEST(ZeroOnce, ZeroFillStillWritesOverEveryPageThatHeldData) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const std::size_t len = 6 * mem::kPageSize;
  const auto a = as.mmap(len);
  const auto page = [a](std::size_t i) { return a + i * mem::kPageSize; };
  // Page 0: present and dirty. Page 1: dirty, then swapped out. Page 2:
  // dirty and COW-shared with a snapshot. Page 3: never touched. Page 4:
  // partly written (one byte). Page 5: fresh, but on a dirty recycled
  // frame (an munmap/mmap pair hands the same address and frame back).
  as.fill(page(0), 3 * mem::kPageSize, std::byte{0x11});
  ASSERT_TRUE(as.swap_out(page(1)));
  auto snap = as.cow_snapshot(page(2), mem::kPageSize);
  const std::byte one{0x22};
  as.write(page(4) + 100, std::span<const std::byte>(&one, 1));
  const auto scratch = as.mmap(mem::kPageSize);
  as.fill(scratch, mem::kPageSize, std::byte{0x33});
  as.munmap(scratch, mem::kPageSize);
  ASSERT_FALSE(as.is_present(page(5)));

  as.fill(a, len, std::byte{0});

  std::vector<std::byte> out(len, std::byte{0x7f});
  as.read(a, out);
  for (std::size_t i = 0; i < len; ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << "page " << i / mem::kPageSize;
  }
  std::vector<std::byte> old(mem::kPageSize);
  snap.read(page(2), old);
  for (auto b : old) ASSERT_EQ(b, std::byte{0x11});  // snapshot kept its copy
}

TEST(ZeroOnce, ZeroFillElisionLeavesFaultCountsUnchanged) {
  // The same history filled with zeros and with a non-zero byte must count
  // the same minor and major faults: the elision skips a write, not a fault.
  auto run = [](std::byte value) {
    mem::PhysicalMemory pm(64);
    mem::AddressSpace as(pm);
    const auto a = as.mmap(8 * mem::kPageSize);
    as.fill(a, 2 * mem::kPageSize, std::byte{0x44});
    EXPECT_TRUE(as.swap_out(a));
    as.fill(a + 10, 8 * mem::kPageSize - 20, value);
    return as.stats();
  };
  const auto zero = run(std::byte{0});
  const auto nonzero = run(std::byte{0x55});
  EXPECT_EQ(zero.minor_faults, 8u);
  EXPECT_EQ(zero.major_faults, 1u);
  EXPECT_EQ(zero.minor_faults, nonzero.minor_faults);
  EXPECT_EQ(zero.major_faults, nonzero.major_faults);
  EXPECT_EQ(zero.cow_breaks, nonzero.cow_breaks);
}

// A pool's memory outlives the pool: the next pool of the process may get
// the same populated mapping back, with whatever the last owner wrote.

/// Builds a pool of `frames` frames, fills every frame with `pattern` and
/// destroys it.
void dirty_every_frame(std::size_t frames, std::byte pattern) {
  mem::PhysicalMemory pm(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    auto page = pm.data(pm.alloc());
    std::fill(page.begin(), page.end(), pattern);
  }
}

/// Holds a pool larger than every pool built before it in this binary:
/// mapping it missed the arena cache, which unmapped every cached arena, so
/// while it lives the next pool maps a fresh arena.
class EmptyArenaCache {
  static inline std::size_t next_frames_ = 8192;
  mem::PhysicalMemory big_{next_frames_++};
};

TEST(ZeroOnce, PoolAfterAFullyDirtiedPoolReadsZero) {
  constexpr std::size_t kFrames = 512;
  for (std::size_t frames : {kFrames / 2, kFrames, 2 * kFrames}) {
    SCOPED_TRACE(frames);
    dirty_every_frame(kFrames, std::byte{0xa5});
    {
      mem::PhysicalMemory pm(frames);
      for (std::size_t i = 0; i < frames; ++i) {
        const auto f = pm.alloc();
        ASSERT_TRUE(all_zero(pm.data(f))) << "frame " << f;
      }
    }
    dirty_every_frame(kFrames, std::byte{0x5a});
    mem::PhysicalMemory pm(frames);
    mem::AddressSpace as(pm);
    const std::size_t len = frames * mem::kPageSize;
    const auto a = as.mmap(len);
    std::vector<std::byte> out(len, std::byte{0x7f});
    as.read(a, out);  // faults every frame in
    EXPECT_EQ(pm.free_frames(), 0u);
    for (std::size_t i = 0; i < len; i += mem::kPageSize) {
      ASSERT_TRUE(all_zero(std::span(out).subspan(i, mem::kPageSize)))
          << "page " << i / mem::kPageSize;
    }
  }
}

TEST(ZeroOnce, LivePoolsNeverShareFrames) {
  constexpr std::size_t kFrames = 2048;
  dirty_every_frame(kFrames, std::byte{0x3c});  // leaves an arena that fits
  mem::PhysicalMemory a(kFrames);
  mem::PhysicalMemory b(kFrames);
  std::vector<mem::FrameId> fa, fb;
  for (std::size_t i = 0; i < kFrames; ++i) {
    fa.push_back(a.alloc());
    fb.push_back(b.alloc());
  }
  for (auto f : fa) {
    auto page = a.data(f);
    std::fill(page.begin(), page.end(), std::byte{0xc3});
  }
  for (auto f : fb) ASSERT_TRUE(all_zero(b.data(f))) << "frame " << f;
}

TEST(ZeroOnce, SmallPoolKeepsDirtPastItsRangeMarked) {
  // A small pool that writes nothing must not forget that an earlier, larger
  // pool dirtied frames beyond its own range. The cache starts empty, so the
  // large pool's arena is the only one the small pool can take.
  constexpr std::size_t kLarge = 4096;
  constexpr std::size_t kSmall = 8;
  EmptyArenaCache empty;
  dirty_every_frame(kLarge, std::byte{0x99});
  { mem::PhysicalMemory small(kSmall); }
  mem::PhysicalMemory pm(kLarge);
  for (std::size_t i = 0; i < kLarge; ++i) {
    const auto f = pm.alloc();
    ASSERT_TRUE(all_zero(pm.data(f))) << "frame " << f;
  }
}

// Set-up splits a pool's populate, and an arena's dirty-prefix clear, into
// page-aligned slices run on several threads. 1,031 frames split unevenly
// (4 slices of 257 or 258 frames on four cores), so a slice boundary off by
// one frame would leave a frame unpopulated or dirty.
constexpr std::size_t kUnevenFrames = 1031;

TEST(ZeroOnce, FreshPoolOfUnevenSlicesIsPopulatedAndZeroToItsLastFrame) {
  EmptyArenaCache empty;
  mem::PhysicalMemory pm(kUnevenFrames);
  std::vector<mem::FrameId> frames;
  for (std::size_t i = 0; i < kUnevenFrames; ++i) frames.push_back(pm.alloc());
  EXPECT_EQ(pm.free_frames(), 0u);
#if defined(__linux__)
  // alloc() touches no pristine frame, so only set-up can have faulted the
  // pages in: every one must be resident before anything reads it.
  std::vector<unsigned char> resident(kUnevenFrames);
  ASSERT_EQ(::mincore(pm.data(frames.front()).data(),
                      kUnevenFrames * mem::kPageSize, resident.data()),
            0);
  for (std::size_t i = 0; i < kUnevenFrames; ++i) {
    ASSERT_TRUE(resident[i] & 1) << "frame " << i << " was not populated";
  }
#endif
  for (auto f : frames) ASSERT_TRUE(all_zero(pm.data(f))) << "frame " << f;
}

TEST(ZeroOnce, DirtyPrefixEndingMidSliceIsClearedWhole) {
  // 1,000 dirty frames end inside the last populate slice of the
  // 1,031-frame pool, and the clear splits them into slices of its own
  // (333, 333 and 334 frames on four cores).
  constexpr std::size_t kDirty = 1000;
  EmptyArenaCache empty;
  std::uintptr_t first = 0;
  {
    mem::PhysicalMemory pm(kUnevenFrames);
    for (std::size_t i = 0; i < kDirty; ++i) {
      auto page = pm.data(pm.alloc());
      std::fill(page.begin(), page.end(), std::byte{0xd1});
      if (i == 0) first = reinterpret_cast<std::uintptr_t>(page.data());
    }
  }
  mem::PhysicalMemory pm(kUnevenFrames);
  for (std::size_t i = 0; i < kUnevenFrames; ++i) {
    const auto f = pm.alloc();
    if (i == 0) {  // the only cached arena: the one just dirtied
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(pm.data(f).data()), first);
    }
    ASSERT_TRUE(all_zero(pm.data(f))) << "frame " << f;
  }
}

TEST(ZeroOnce, PoolsPopulatedInParallelSlicesNeverShareAFrame) {
  EmptyArenaCache empty;
  mem::PhysicalMemory a(kUnevenFrames);
  mem::PhysicalMemory b(2 * kUnevenFrames);
  std::vector<mem::FrameId> fa, fb;
  for (std::size_t i = 0; i < a.total_frames(); ++i) fa.push_back(a.alloc());
  for (std::size_t i = 0; i < b.total_frames(); ++i) fb.push_back(b.alloc());
  for (auto f : fa) {
    auto page = a.data(f);
    std::fill(page.begin(), page.end(), std::byte{0xa7});
  }
  for (auto f : fb) ASSERT_TRUE(all_zero(b.data(f))) << "frame " << f;
  for (auto f : fb) {
    auto page = b.data(f);
    std::fill(page.begin(), page.end(), std::byte{0x7a});
  }
  for (auto f : fa) {
    const auto page = a.data(f);
    ASSERT_TRUE(std::all_of(page.begin(), page.end(),
                            [](std::byte x) { return x == std::byte{0xa7}; }))
        << "frame " << f;
  }
}

TEST(MemExtra, IsMappedAcrossAdjacentVmas) {
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  const auto a = as.mmap(4096);
  const auto b = as.mmap(4096);
  ASSERT_EQ(b, a + 4096);  // adjacent by first-fit
  EXPECT_TRUE(as.is_mapped(a, 2 * 4096));  // spans both VMAs
  EXPECT_TRUE(as.is_mapped(a + 100, 4096));
  EXPECT_FALSE(as.is_mapped(a, 3 * 4096));
  EXPECT_TRUE(as.is_mapped(a, 0));  // empty range is trivially mapped
}

}  // namespace
}  // namespace pinsim
