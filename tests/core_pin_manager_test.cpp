#include "core/pin_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/physical_memory.hpp"
#include "mem/pressure.hpp"
#include "sim/engine.hpp"

namespace pinsim::core {
namespace {

class PinManagerTest : public ::testing::Test {
 protected:
  PinManagerTest() : pm_(4096), as_(pm_), core_(eng_, "cpu0") {}

  PinManager make(PinningConfig cfg) {
    return PinManager(eng_, core_, cpu::xeon_e5460(), cfg, counters_);
  }

  Region make_region(std::size_t bytes, RegionId id = 1) {
    const auto addr = as_.mmap(bytes);
    return Region(id, as_, {Segment{addr, bytes}});
  }

  sim::Engine eng_;
  mem::PhysicalMemory pm_;
  mem::AddressSpace as_;
  cpu::Core core_;
  Counters counters_;
};

TEST_F(PinManagerTest, SynchronousPinCompletesAfterTable1Cost) {
  PinningConfig cfg;  // on-demand, not overlapped
  auto mgr = make(cfg);
  Region r = make_region(64 * 4096);
  mgr.register_region(r);

  bool done = false;
  sim::Time done_at = 0;
  mgr.ensure_pinned(r, [&](bool ok) {
    EXPECT_TRUE(ok);
    done = true;
    done_at = eng_.now();
  });
  EXPECT_FALSE(done);  // cost must elapse first
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(pm_.pinned_pages(), 64u);
  // 60% of base + 64 pages * 60% of 150ns, quantized in one chunk.
  EXPECT_EQ(done_at, cpu::xeon_e5460().pin_cost(64));
  EXPECT_EQ(counters_.pin_ops, 1u);
  EXPECT_EQ(counters_.pages_pinned, 64u);
  mgr.unregister_region(r);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

TEST_F(PinManagerTest, AlreadyPinnedCompletesSynchronously) {
  auto mgr = make({});
  Region r = make_region(4 * 4096);
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  bool done = false;
  mgr.ensure_pinned(r, [&](bool ok) { done = ok; });
  EXPECT_TRUE(done);  // no waiting: the cache-hit fast path
  EXPECT_EQ(counters_.pin_ops, 1u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, OverlappedReleasesImmediatelyAndPinsInBackground) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 16;
  auto mgr = make(cfg);
  Region r = make_region(128 * 4096);
  mgr.register_region(r);

  bool released = false;
  mgr.ensure_pinned(r, [&](bool ok) { released = ok; });
  EXPECT_TRUE(released);          // communication may start now
  EXPECT_FALSE(r.fully_pinned());  // but pinning continues behind it
  eng_.run();
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(pm_.pinned_pages(), 128u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, OverlappedFrontierAdvancesInOrder) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 8;
  auto mgr = make(cfg);
  Region r = make_region(32 * 4096);
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});

  std::vector<std::size_t> frontier_history;
  while (eng_.step()) frontier_history.push_back(r.pinned_pages());
  for (std::size_t i = 1; i < frontier_history.size(); ++i) {
    EXPECT_GE(frontier_history[i], frontier_history[i - 1]);
  }
  EXPECT_TRUE(r.fully_pinned());
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, SyncPrepinPagesDelayEarlyRelease) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.sync_prepin_pages = 8;
  cfg.pin_chunk_pages = 8;
  auto mgr = make(cfg);
  Region r = make_region(64 * 4096);
  mgr.register_region(r);

  std::size_t pinned_at_release = 0;
  bool released = false;
  mgr.ensure_pinned(r, [&](bool) {
    released = true;
    pinned_at_release = r.pinned_pages();
  });
  EXPECT_FALSE(released);  // must wait for the first 8 pages
  eng_.run();
  EXPECT_TRUE(released);
  EXPECT_GE(pinned_at_release, 8u);
  EXPECT_LT(pinned_at_release, 64u);  // but did not wait for the whole region
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, ConcurrentWaitersShareOnePinPass) {
  auto mgr = make({});
  Region r = make_region(16 * 4096);
  mgr.register_region(r);
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    mgr.ensure_pinned(r, [&](bool ok) {
      EXPECT_TRUE(ok);
      ++completions;
    });
  }
  eng_.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(counters_.pin_ops, 1u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, InvalidSegmentFailsAtPinTimeNotDeclareTime) {
  auto mgr = make({});
  // Declare succeeds for a region the process never mapped (paper §3.1).
  Region r(1, as_, {Segment{0x900000000000ULL, 8 * 4096}});
  mgr.register_region(r);
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  EXPECT_EQ(counters_.pin_failures, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);  // partial pins rolled back
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, FailureHandlerFiresForOverlappedFailure) {
  PinningConfig cfg;
  cfg.overlapped = true;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(4 * 4096);
  as_.munmap(addr + 2 * 4096, 2 * 4096);  // second half invalid
  Region r(1, as_, {Segment{addr, 4 * 4096}});
  mgr.register_region(r);

  Region* failed = nullptr;
  mgr.set_failure_handler([&](Region& reg) { failed = &reg; });
  bool released = false;
  mgr.ensure_pinned(r, [&](bool ok) { released = ok; });
  EXPECT_TRUE(released);  // overlapped: released before the failure is known
  eng_.run();
  EXPECT_EQ(failed, &r);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, MmuInvalidationUnpinsAndRepinsOnNextUse) {
  auto mgr = make({});
  const auto addr = as_.mmap(8 * 4096);
  Region r(1, as_, {Segment{addr, 8 * 4096}});
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  ASSERT_TRUE(r.fully_pinned());

  // The application frees the buffer: the notifier path unpins.
  mgr.invalidate_range(addr, addr + 8 * 4096);
  EXPECT_EQ(r.pinned_pages(), 0u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  EXPECT_EQ(counters_.notifier_invalidations, 1u);

  // Same buffer reallocated: next use repins transparently.
  bool ok = false;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(counters_.repins, 1u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, InvalidationOutsideRegionIsIgnored) {
  auto mgr = make({});
  const auto addr = as_.mmap(4 * 4096);
  const auto other = as_.mmap(4 * 4096);
  Region r(1, as_, {Segment{addr, 4 * 4096}});
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  mgr.invalidate_range(other, other + 4 * 4096);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(counters_.notifier_invalidations, 0u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, InvalidationDuringAsyncPinRestartsIt) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(64 * 4096);
  Region r(1, as_, {Segment{addr, 64 * 4096}});
  mgr.register_region(r);
  bool done = false, ok = false;
  mgr.ensure_pinned(r, /*overlapped=*/false,
                    [&](bool o) { done = true, ok = o; });

  // Let a few chunks land, then invalidate mid-flight. The partial pins are
  // dropped on the spot (the translations are stale), but the job restarts
  // instead of failing its waiters: a storm of VM events must only delay a
  // transfer, never abort it.
  eng_.run_until(cpu::xeon_e5460().pin_cost(12));
  EXPECT_GT(r.pinned_pages(), 0u);
  EXPECT_LT(r.pinned_pages(), 64u);
  mgr.invalidate_range(addr, addr + 64 * 4096);
  EXPECT_EQ(r.pinned_pages(), 0u);  // no leaked pins from stale chunks
  EXPECT_FALSE(done);
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(pm_.pinned_pages(), r.pinned_pages());
  EXPECT_GE(counters_.pin_inval_restarts, 1u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, EndlessInvalidationStormFailsCleanlyAfterBudget) {
  // A job that never completes because every restart is invalidated again
  // must end in a clean ok=false once the restart budget runs out — the
  // bound that turns a notifier live-lock into an abortable failure.
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  cfg.pin_retry_budget = 5;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(16 * 4096);
  Region r(1, as_, {Segment{addr, 16 * 4096}});
  mgr.register_region(r);
  bool done = false, ok = true;
  mgr.ensure_pinned(r, /*overlapped=*/false,
                    [&](bool o) { done = true, ok = o; });

  int storms = 0;
  while (!done && eng_.step()) {
    if (r.pinned_pages() > 0) {
      mgr.invalidate_range(addr, addr + 16 * 4096);
      ++storms;
    }
    ASSERT_LT(storms, 1000) << "storm never bounded by the restart budget";
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  EXPECT_EQ(counters_.pin_inval_restarts, 5u);
  EXPECT_GE(counters_.pin_retry_exhausted, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  eng_.run();
  EXPECT_EQ(eng_.pending(), 0u);

  // And the failure is not sticky: with the storm gone the region repins.
  bool ok2 = false;
  mgr.ensure_pinned(r, /*overlapped=*/false, [&](bool o) { ok2 = o; });
  eng_.run();
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(r.fully_pinned());
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, MemoryPressureShedsLruIdleRegion) {
  PinningConfig cfg;
  cfg.max_pinned_pages = 20;
  auto mgr = make(cfg);
  Region a = make_region(8 * 4096, 1);
  Region b = make_region(8 * 4096, 2);
  Region c = make_region(8 * 4096, 3);
  mgr.register_region(a);
  mgr.register_region(b);
  mgr.register_region(c);

  mgr.ensure_pinned(a, [](bool) {});
  eng_.run();
  mgr.ensure_pinned(b, [](bool) {});
  eng_.run();
  EXPECT_EQ(pm_.pinned_pages(), 16u);
  // Pinning c (8 pages) would hit 24 > 20: the LRU idle region (a) is shed.
  mgr.ensure_pinned(c, [](bool) {});
  eng_.run();
  EXPECT_EQ(a.pinned_pages(), 0u);
  EXPECT_TRUE(b.fully_pinned());
  EXPECT_TRUE(c.fully_pinned());
  EXPECT_GE(counters_.pressure_unpins, 1u);
  EXPECT_LE(pm_.pinned_pages(), 20u);
  mgr.unregister_region(a);
  mgr.unregister_region(b);
  mgr.unregister_region(c);
}

TEST_F(PinManagerTest, PressureNeverEvictsRegionsInUse) {
  PinningConfig cfg;
  cfg.max_pinned_pages = 10;
  auto mgr = make(cfg);
  Region a = make_region(8 * 4096, 1);
  Region b = make_region(8 * 4096, 2);
  mgr.register_region(a);
  mgr.register_region(b);
  mgr.ensure_pinned(a, [](bool) {});
  eng_.run();
  a.add_use();  // active communication
  mgr.ensure_pinned(b, [](bool) {});
  eng_.run();
  EXPECT_TRUE(a.fully_pinned());  // was not shed despite the pressure
  EXPECT_TRUE(b.fully_pinned());
  a.drop_use();
  mgr.unregister_region(a);
  mgr.unregister_region(b);
}

TEST(PinManagerOom, FrameExhaustionFailsTheRequestGracefully) {
  sim::Engine eng;
  mem::PhysicalMemory pm(64);  // tiny pool
  mem::AddressSpace as(pm);
  cpu::Core core(eng, "cpu0");
  Counters counters;
  PinningConfig cfg;
  PinManager mgr(eng, core, cpu::xeon_e5460(), cfg, counters);

  const auto addr = as.mmap(128 * 4096);  // cannot possibly fit
  Region r(1, as, {Segment{addr, 128 * 4096}});
  mgr.register_region(r);
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng.run();  // must not throw out of the event loop
  EXPECT_FALSE(ok);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  EXPECT_EQ(pm.pinned_pages(), 0u);  // partial pins rolled back
  mgr.unregister_region(r);
}

TEST(PinManagerOom, ShedsIdleRegionToSatisfyNewPin) {
  sim::Engine eng;
  mem::PhysicalMemory pm(70);
  mem::AddressSpace as(pm);
  cpu::Core core(eng, "cpu0");
  Counters counters;
  PinningConfig cfg;
  PinManager mgr(eng, core, cpu::xeon_e5460(), cfg, counters);

  const auto a1 = as.mmap(40 * 4096);
  const auto a2 = as.mmap(40 * 4096);
  Region r1(1, as, {Segment{a1, 40 * 4096}});
  Region r2(2, as, {Segment{a2, 40 * 4096}});
  mgr.register_region(r1);
  mgr.register_region(r2);

  mgr.ensure_pinned(r1, [](bool) {});
  eng.run();
  ASSERT_TRUE(r1.fully_pinned());  // 40 of 70 frames pinned

  // Pinning r2 (another 40 pages) exhausts the pool mid-way; the idle r1
  // must be shed so r2 can finish.
  bool ok = false;
  mgr.ensure_pinned(r2, [&](bool o) { ok = o; });
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r2.fully_pinned());
  EXPECT_EQ(r1.pinned_pages(), 0u);
  EXPECT_GE(counters.pressure_unpins, 1u);
  mgr.unregister_region(r1);
  mgr.unregister_region(r2);
}

// --- kFailed is retryable, quotas, pressure injection ------------------------

TEST(PinManagerRecovery, FailedRegionResetsAndRepinsOnDemand) {
  // §3.1: a pin failure leaves the region *declared*; the next communication
  // must transparently retry instead of hitting a terminal kFailed.
  sim::Engine eng;
  mem::PhysicalMemory pm(64);
  mem::AddressSpace as(pm);
  cpu::Core core(eng, "cpu0");
  Counters counters;
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 6;
  PinManager mgr(eng, core, cpu::xeon_e5460(), cfg, counters);

  const auto hog_addr = as.mmap(50 * 4096);
  auto hog = as.pin_range(hog_addr, 50 * 4096);  // unreclaimable ballast
  const auto addr = as.mmap(30 * 4096);
  Region r(1, as, {Segment{addr, 30 * 4096}});
  mgr.register_region(r);

  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng.run();  // retries with backoff, then gives up — never hangs
  EXPECT_FALSE(ok);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  EXPECT_GE(counters.pin_retry_exhausted, 1u);

  // The hog goes away (application freed memory); the same declared region
  // must pin fine on the next use, with no manual reset.
  for (std::size_t i = 0; i < hog.size(); ++i) {
    as.unpin_page(hog_addr + static_cast<mem::VirtAddr>(i) * 4096, hog[i]);
  }
  bool ok2 = false;
  mgr.ensure_pinned(r, [&](bool o) { ok2 = o; });
  eng.run();
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_GE(counters.pin_fail_resets, 1u);
  mgr.unregister_region(r);
  EXPECT_EQ(pm.pinned_pages(), 0u);
}

TEST_F(PinManagerTest, QuotaZeroStarvationEndsGracefully) {
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 6;
  auto mgr = make(cfg);
  pm_.set_pin_quota(0);  // permanently starved: no pin can ever succeed
  Region r = make_region(8 * 4096);
  mgr.register_region(r);

  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_FALSE(ok);  // clean abort, not a hang
  EXPECT_EQ(eng_.pending(), 0u);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  EXPECT_GE(counters_.pins_denied, 1u);
  EXPECT_EQ(counters_.pin_retries, 6u);
  EXPECT_EQ(counters_.pin_retry_exhausted, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  EXPECT_GE(pm_.quota_denials(), 1u);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, QuotaEvictsLruIdleRegionLikeDriverLimit) {
  // The PhysicalMemory quota must trigger the same LRU shedding as the
  // driver's own max_pinned_pages policy.
  auto mgr = make({});
  pm_.set_pin_quota(20);
  Region a = make_region(8 * 4096, 1);
  Region b = make_region(8 * 4096, 2);
  Region c = make_region(8 * 4096, 3);
  mgr.register_region(a);
  mgr.register_region(b);
  mgr.register_region(c);

  mgr.ensure_pinned(a, [](bool) {});
  eng_.run();
  mgr.ensure_pinned(b, [](bool) {});
  eng_.run();
  EXPECT_EQ(pm_.pinned_pages(), 16u);
  mgr.ensure_pinned(c, [](bool) {});
  eng_.run();
  EXPECT_EQ(a.pinned_pages(), 0u);  // LRU victim
  EXPECT_TRUE(b.fully_pinned());
  EXPECT_TRUE(c.fully_pinned());
  EXPECT_GE(counters_.pressure_unpins, 1u);
  EXPECT_LE(pm_.pinned_pages(), 20u);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.unregister_region(a);
  mgr.unregister_region(b);
  mgr.unregister_region(c);
}

TEST_F(PinManagerTest, ChunkShrinksToQuotaHeadroomAndHealsWhenItFrees) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 16;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  pm_.set_pin_quota(20);
  Region busy = make_region(8 * 4096, 1);
  Region big = make_region(16 * 4096, 2);
  mgr.register_region(busy);
  mgr.register_region(big);

  mgr.ensure_pinned(busy, [](bool) {});
  eng_.run();
  busy.add_use();  // in a communication: not evictable

  // Headroom is 12 < the 16-page chunk: the chunk must shrink and pin what
  // fits, then stall at zero headroom and keep retrying with backoff.
  bool done = false, ok = false;
  mgr.ensure_pinned(big, [&](bool o) { done = true; ok = o; });
  while (eng_.step() && counters_.pin_retries < 3) {
  }
  EXPECT_GE(counters_.pin_chunk_shrinks, 1u);
  EXPECT_EQ(big.pinned_pages(), 12u);  // partial frontier, not a failure
  EXPECT_FALSE(done);

  // The squeeze is transient: the busy region finishes and unpins, and the
  // stalled frontier must complete without any new ensure_pinned call.
  busy.drop_use();
  mgr.unpin(busy);
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(big.fully_pinned());
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.unregister_region(busy);
  mgr.unregister_region(big);
}

TEST_F(PinManagerTest, InjectedDenialsRetryUntilPressureLifts) {
  mem::PressureInjector inj(42);
  mem::PressurePlan plan;
  plan.pin_fail = 1.0;  // deny everything, deterministically
  inj.set_plan(plan);
  pm_.set_pressure(&inj);

  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 64;
  auto mgr = make(cfg);
  Region r = make_region(8 * 4096);
  mgr.register_region(r);

  bool done = false, ok = false;
  mgr.ensure_pinned(r, [&](bool o) { done = true; ok = o; });
  while (eng_.step() && counters_.pin_retries < 4) {
  }
  EXPECT_FALSE(done);  // still backing off
  EXPECT_GE(counters_.pins_denied, 1u);
  EXPECT_GE(inj.stats().total_denied(), 1u);

  plan.pin_fail = 0.0;  // pressure lifts
  inj.set_plan(plan);
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.fully_pinned());
  pm_.set_pressure(nullptr);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, UnpinChargesKernelTimeToTheCore) {
  auto mgr = make({});
  Region r = make_region(32 * 4096);
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  const sim::Time busy_before = core_.stats().total_busy();
  mgr.unpin(r);
  eng_.run();
  EXPECT_EQ(core_.stats().total_busy() - busy_before,
            cpu::xeon_e5460().unpin_cost(32));
  mgr.unregister_region(r);
}

// --- frontier waiters (when_pinned) -----------------------------------------

TEST_F(PinManagerTest, FrontierWaitersWakeInTargetThenArrivalOrder) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region r = make_region(32 * 4096);
  mgr.register_region(r);

  // (name, frontier when it ran), in call order.
  std::vector<std::pair<char, std::size_t>> woke;
  const auto waiter = [&](char name) {
    return [&, name](bool ok) {
      EXPECT_TRUE(ok);
      woke.emplace_back(name, r.pinned_pages());
    };
  };
  mgr.when_pinned(r, 16, waiter('a'));
  mgr.when_pinned(r, 8, waiter('b'));
  mgr.when_pinned(r, 16, waiter('c'));
  mgr.when_pinned(r, 32, waiter('d'));
  mgr.ensure_pinned(r, /*overlapped=*/false, waiter('e'));  // target 32
  mgr.when_pinned(r, 8, waiter('f'));
  EXPECT_TRUE(woke.empty());
  eng_.run();

  const std::vector<std::pair<char, std::size_t>> want = {
      {'b', 8}, {'f', 8}, {'a', 16}, {'c', 16}, {'d', 32}, {'e', 32}};
  EXPECT_EQ(woke, want);
  EXPECT_EQ(counters_.pin_ops, 1u);  // one job served every target
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, CoveredFrontierTargetFiresInline) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region r = make_region(32 * 4096);
  mgr.register_region(r);
  mgr.ensure_pinned(r, [](bool) {});
  while (r.pinned_pages() < 8 && eng_.step()) {
  }
  ASSERT_LT(r.pinned_pages(), 32u);

  int fired = 0;
  mgr.when_pinned(r, 8, [&](bool ok) { fired += ok ? 1 : 100; });
  mgr.when_pinned(r, 0, [&](bool ok) { fired += ok ? 1 : 100; });
  EXPECT_EQ(fired, 2);  // no engine step in between
  bool whole = false;
  mgr.when_pinned(r, 1000, [&](bool ok) { whole = ok; });  // clamped to 32
  EXPECT_FALSE(whole);
  eng_.run();
  EXPECT_TRUE(whole);
  EXPECT_TRUE(r.fully_pinned());
  mgr.when_pinned(r, 32, [&](bool ok) { fired += ok ? 1 : 100; });
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(counters_.pin_ops, 1u);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, TruncatedFrontierMakesWaitersWaitAgain) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(32 * 4096);
  Region r(1, as_, {Segment{addr, 32 * 4096}});
  mgr.register_region(r);

  std::size_t fired_at = 0;
  mgr.when_pinned(r, 24, [&](bool ok) {
    EXPECT_TRUE(ok);
    fired_at = r.pinned_pages();
  });
  while (r.pinned_pages() < 16 && eng_.step()) {
  }
  ASSERT_EQ(r.pinned_pages(), 16u);
  // The notifier invalidates page 8: the frontier drops back to it and the
  // job restarts from there.
  mgr.invalidate_range(addr + 8 * 4096, addr + 9 * 4096);
  EXPECT_EQ(r.pinned_pages(), 8u);
  std::size_t low = r.pinned_pages();
  while (fired_at == 0 && eng_.step()) low = std::min(low, r.pinned_pages());
  EXPECT_EQ(low, 8u);
  EXPECT_EQ(fired_at, 24u);  // woken by the second pass, not the first
  EXPECT_EQ(counters_.pin_inval_restarts, 1u);
  eng_.run();
  EXPECT_TRUE(r.fully_pinned());
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, FailedJobFailsEachPendingWaiterOnce) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 1;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(4 * 4096);
  as_.munmap(addr + 2 * 4096, 2 * 4096);  // pages 2 and 3 are invalid
  Region r(1, as_, {Segment{addr, 4 * 4096}});
  mgr.register_region(r);
  int handler_calls = 0;
  mgr.set_failure_handler([&](Region&) { ++handler_calls; });

  std::vector<int> oks(4, 0), fails(4, 0);
  const auto waiter = [&](std::size_t i) {
    return [&, i](bool ok) {
      ++(ok ? oks : fails)[i];
      EXPECT_EQ(handler_calls, 0);  // waiters run before the abort path
    };
  };
  mgr.when_pinned(r, 1, waiter(0));  // reached before the failure
  mgr.when_pinned(r, 3, waiter(1));
  mgr.when_pinned(r, 4, waiter(2));
  mgr.ensure_pinned(r, /*overlapped=*/false, waiter(3));
  eng_.run();

  EXPECT_EQ(oks, (std::vector<int>{1, 0, 0, 0}));
  EXPECT_EQ(fails, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(r.state(), Region::PinState::kFailed);
  mgr.unregister_region(r);
}

TEST_F(PinManagerTest, UnregisterDropsPendingWaitersUncalled) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region r = make_region(32 * 4096);
  mgr.register_region(r);

  bool called = false;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> held = token;
  mgr.when_pinned(r, 32, [&called, token = std::move(token)](bool) {
    called = true;
  });
  while (r.pinned_pages() < 8 && eng_.step()) {
  }
  mgr.unregister_region(r);
  EXPECT_TRUE(held.expired());  // the waiter is gone with the region
  eng_.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

}  // namespace
}  // namespace pinsim::core
