#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/malloc_sim.hpp"
#include "mem/mmu_notifier.hpp"
#include "mem/physical_memory.hpp"
#include "mem/swap_daemon.hpp"
#include "sim/engine.hpp"

namespace pinsim::mem {
namespace {

class CountingNotifier : public MmuNotifier {
 public:
  void invalidate_range(VirtAddr start, VirtAddr end) override {
    ++count;
    last_start = start;
    last_end = end;
  }
  int count = 0;
  VirtAddr last_start = 0;
  VirtAddr last_end = 0;
};

class MallocSimTest : public ::testing::Test {
 protected:
  PhysicalMemory pm_{4096};
  AddressSpace as_{pm_};
  MallocSim heap_{as_};
};

TEST_F(MallocSimTest, LargeAllocationGetsOwnMapping) {
  const VirtAddr p = heap_.malloc(256 * 1024);
  EXPECT_TRUE(as_.is_mapped(p, 256 * 1024));
  EXPECT_EQ(heap_.stats().mmap_allocs, 1u);
  EXPECT_EQ(heap_.usable_size(p), 256 * 1024u);
}

TEST_F(MallocSimTest, FreeOfLargeBlockMunmapsAndNotifies) {
  CountingNotifier notifier;
  as_.register_notifier(&notifier);
  const VirtAddr p = heap_.malloc(256 * 1024);
  as_.touch(p, 256 * 1024);
  heap_.free(p);
  EXPECT_FALSE(as_.is_mapped(p, 4096));
  EXPECT_EQ(notifier.count, 1);
  EXPECT_EQ(notifier.last_start, p);
  EXPECT_EQ(notifier.last_end, p + 256 * 1024);
  as_.unregister_notifier(&notifier);
}

TEST_F(MallocSimTest, LargeFreeThenMallocReusesAddress) {
  const VirtAddr p = heap_.malloc(512 * 1024);
  heap_.free(p);
  const VirtAddr q = heap_.malloc(512 * 1024);
  EXPECT_EQ(p, q);  // the repin-after-free pattern from the paper's Figure 3
}

TEST_F(MallocSimTest, SmallAllocationsComeFromArenaWithoutNotifier) {
  CountingNotifier notifier;
  as_.register_notifier(&notifier);
  const VirtAddr p = heap_.malloc(1000);
  const VirtAddr q = heap_.malloc(1000);
  EXPECT_NE(p, q);
  heap_.free(p);
  heap_.free(q);
  // Small frees never reach the kernel: no notifier spam (paper §5 contrasts
  // this with malloc hooks firing on every tiny deallocation).
  EXPECT_EQ(notifier.count, 0);
  as_.unregister_notifier(&notifier);
}

TEST_F(MallocSimTest, SmallFreeListReusesSameAddress) {
  const VirtAddr p = heap_.malloc(2048);
  heap_.free(p);
  const VirtAddr q = heap_.malloc(2048);
  EXPECT_EQ(p, q);
  EXPECT_EQ(heap_.stats().reuse_hits, 1u);
}

TEST_F(MallocSimTest, DifferentSizeClassesDoNotShareFreeLists) {
  const VirtAddr p = heap_.malloc(1024);
  heap_.free(p);
  const VirtAddr q = heap_.malloc(4096);
  EXPECT_NE(p, q);
}

TEST_F(MallocSimTest, InvalidFreeThrows) {
  EXPECT_THROW(heap_.free(0xdeadbeef), std::invalid_argument);
  const VirtAddr p = heap_.malloc(64);
  heap_.free(p);
  EXPECT_THROW(heap_.free(p), std::invalid_argument);  // double free
}

TEST_F(MallocSimTest, MallocZeroThrows) {
  EXPECT_THROW((void)heap_.malloc(0), std::invalid_argument);
}

TEST_F(MallocSimTest, ManySmallAllocationsGrowArena) {
  std::vector<VirtAddr> ptrs;
  for (int i = 0; i < 3000; ++i) ptrs.push_back(heap_.malloc(512));
  for (VirtAddr p : ptrs) heap_.free(p);
  EXPECT_EQ(heap_.stats().arena_allocs, 3000u);
  EXPECT_EQ(heap_.stats().frees, 3000u);
}

TEST(SwapDaemonTest, ReclaimsDownToLowWatermarkSkippingPinned) {
  sim::Engine eng;
  PhysicalMemory pm(100);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.high_watermark = 0.80;
  cfg.low_watermark = 0.50;
  SwapDaemon daemon(eng, pm, cfg);
  daemon.watch(&as);

  const VirtAddr a = as.mmap(90 * 4096);
  as.touch(a, 90 * 4096);
  auto pinned = as.pin_range(a, 10 * 4096);  // first 10 pages protected
  ASSERT_EQ(pm.used_frames(), 90u);

  const std::size_t reclaimed = daemon.scan_once();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LE(pm.used_frames(), 50u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(as.is_present(a + static_cast<VirtAddr>(i) * 4096));
  }
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    as.unpin_page(a + static_cast<VirtAddr>(i) * 4096, pinned[i]);
  }
}

TEST(SwapDaemonTest, NoReclaimBelowHighWatermark) {
  sim::Engine eng;
  PhysicalMemory pm(100);
  AddressSpace as(pm);
  SwapDaemon daemon(eng, pm);
  daemon.watch(&as);
  const VirtAddr a = as.mmap(10 * 4096);
  as.touch(a, 10 * 4096);
  EXPECT_EQ(daemon.scan_once(), 0u);
  EXPECT_EQ(pm.used_frames(), 10u);
}

TEST(SwapDaemonTest, PeriodicTicksReclaimUnderPressure) {
  sim::Engine eng;
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.period = 10 * sim::kMicrosecond;
  cfg.high_watermark = 0.50;
  cfg.low_watermark = 0.25;
  SwapDaemon daemon(eng, pm, cfg);
  daemon.watch(&as);
  daemon.start();

  const VirtAddr a = as.mmap(60 * 4096);
  as.touch(a, 60 * 4096);
  eng.run_until(50 * sim::kMicrosecond);
  EXPECT_LE(pm.used_frames(), 16u);
  EXPECT_GT(daemon.total_reclaimed(), 0u);
  daemon.stop();
  eng.run();  // no further ticks pending
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(SwapDaemonTest, DestroyedWhileRunningLeavesNoTickBehind) {
  // The queued tick captures the daemon itself; destruction stops it, which
  // must cancel that tick before it can fire into freed memory.
  sim::Engine eng;
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.period = 10 * sim::kMicrosecond;
  cfg.high_watermark = 0.0;  // every tick would scan
  {
    SwapDaemon daemon(eng, pm, cfg);
    daemon.watch(&as);
    daemon.start();
    eng.run_until(25 * sim::kMicrosecond);  // two ticks ran and re-armed
    EXPECT_EQ(eng.pending(), 1u);
  }
  EXPECT_EQ(eng.pending(), 0u);
  eng.run();  // nothing left to fire
}

TEST(SwapDaemonTest, PinnedFramesAreNeverSelectedForEviction) {
  // The invariant the paper's pinning exists to guarantee: a DMA-visible
  // (pinned) frame must never change or vanish under the device, no matter
  // how hard reclaim runs.
  sim::Engine eng;
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.high_watermark = 0.01;  // pathologically aggressive: always reclaim
  cfg.low_watermark = 0.0;
  SwapDaemon daemon(eng, pm, cfg);
  daemon.watch(&as);

  const VirtAddr a = as.mmap(40 * 4096);
  std::vector<std::byte> pattern(40 * 4096);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>((i * 31) % 251);
  }
  as.write(a, pattern);
  auto pinned = as.pin_range(a, 10 * 4096);  // first 10 pages are DMA targets

  for (int round = 0; round < 5; ++round) {
    daemon.scan_once();
    // The application keeps faulting the unpinned tail back in, giving the
    // daemon fresh victims every round.
    as.touch(a + 10 * 4096, 30 * 4096);
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      const VirtAddr va = a + static_cast<VirtAddr>(i) * 4096;
      ASSERT_TRUE(as.is_present(va)) << "round " << round << " page " << i;
      ASSERT_TRUE(as.is_pinned(va));
      // Same frame as at pin time: the device's translation is still good.
      ASSERT_EQ(as.frame_of(va), pinned[i]);
      // And the frame still holds the application's bytes.
      auto frame = pm.data(pinned[i]);
      ASSERT_EQ(0, std::memcmp(frame.data(), pattern.data() + i * 4096, 4096))
          << "round " << round << " page " << i;
    }
  }
  EXPECT_GT(daemon.total_reclaimed(), 0u);  // the sweeps did reclaim others
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    as.unpin_page(a + static_cast<VirtAddr>(i) * 4096, pinned[i]);
  }
}

TEST(SwapDaemonTest, UnpinnedThenRepinnedRegionRoundTripsBytes) {
  // §3.1's unpin-under-pressure / repin-on-demand cycle at the VM level: a
  // region loses its pins, the daemon pages everything out, and the repin
  // must fault the same bytes back in (through swap) into live frames.
  sim::Engine eng;
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.high_watermark = 0.01;
  cfg.low_watermark = 0.0;
  SwapDaemon daemon(eng, pm, cfg);
  daemon.watch(&as);

  const VirtAddr a = as.mmap(20 * 4096);
  std::vector<std::byte> pattern(20 * 4096);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>((i * 131) % 255);
  }
  as.write(a, pattern);
  auto pins = as.pin_range(a, 20 * 4096);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    as.unpin_page(a + static_cast<VirtAddr>(i) * 4096, pins[i]);
  }

  // Everything is evictable now; the daemon pages the whole buffer out.
  daemon.scan_once();
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(as.is_present(a + static_cast<VirtAddr>(i) * 4096));
  }

  const auto faults_before = as.stats().major_faults;
  auto repinned = as.pin_range(a, 20 * 4096);  // repin: major-faults back in
  EXPECT_GT(as.stats().major_faults, faults_before);
  for (std::size_t i = 0; i < repinned.size(); ++i) {
    auto frame = pm.data(repinned[i]);
    EXPECT_EQ(0, std::memcmp(frame.data(), pattern.data() + i * 4096, 4096))
        << "page " << i;
  }
  std::vector<std::byte> out(pattern.size());
  as.read(a, out);
  EXPECT_EQ(out, pattern);
  for (std::size_t i = 0; i < repinned.size(); ++i) {
    as.unpin_page(a + static_cast<VirtAddr>(i) * 4096, repinned[i]);
  }
}

TEST(SwapDaemonTest, SwappedPagesComeBackIntact) {
  sim::Engine eng;
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  SwapDaemon::Config cfg;
  cfg.high_watermark = 0.50;
  cfg.low_watermark = 0.10;
  SwapDaemon daemon(eng, pm, cfg);
  daemon.watch(&as);

  const VirtAddr a = as.mmap(40 * 4096);
  std::vector<std::byte> pattern(40 * 4096);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>(i % 253);
  }
  as.write(a, pattern);
  daemon.scan_once();
  EXPECT_LT(pm.used_frames(), 40u);
  std::vector<std::byte> out(pattern.size());
  as.read(a, out);
  EXPECT_EQ(out, pattern);
}

}  // namespace
}  // namespace pinsim::mem
