#include "core/pin_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "capture_sink.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/physical_memory.hpp"
#include "mem/pressure.hpp"
#include "obs/bus.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"

namespace pinsim::core {
namespace {

class PinManagerTest : public ::testing::Test {
 protected:
  PinManagerTest() : pm_(4096), as_(pm_), core_(eng_, "cpu0") {}

  PinManager make(PinningConfig cfg) {
    return PinManager(eng_, core_, cpu::xeon_e5460(), cfg, counters_);
  }

  Region& make_region(PinManager& mgr, std::size_t bytes) {
    const auto addr = as_.mmap(bytes);
    return mgr.declare(as_, {Segment{addr, bytes}});
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
  Region& r = make_region(mgr, 64 * 4096);

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
  mgr.undeclare(r.id());
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

TEST_F(PinManagerTest, AlreadyPinnedCompletesSynchronously) {
  auto mgr = make({});
  Region& r = make_region(mgr, 4 * 4096);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  bool done = false;
  mgr.ensure_pinned(r, [&](bool ok) { done = ok; });
  EXPECT_TRUE(done);  // no waiting: the cache-hit fast path
  EXPECT_EQ(counters_.pin_ops, 1u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, OverlappedReleasesImmediatelyAndPinsInBackground) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 16;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 128 * 4096);

  bool released = false;
  mgr.ensure_pinned(r, [&](bool ok) { released = ok; });
  EXPECT_TRUE(released);          // communication may start now
  EXPECT_FALSE(r.fully_pinned());  // but pinning continues behind it
  eng_.run();
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(pm_.pinned_pages(), 128u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, OverlappedFrontierAdvancesInOrder) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 8;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);
  mgr.ensure_pinned(r, [](bool) {});

  std::vector<std::size_t> frontier_history;
  while (eng_.step()) frontier_history.push_back(r.pinned_pages());
  for (std::size_t i = 1; i < frontier_history.size(); ++i) {
    EXPECT_GE(frontier_history[i], frontier_history[i - 1]);
  }
  EXPECT_TRUE(r.fully_pinned());
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, SyncPrepinPagesDelayEarlyRelease) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.sync_prepin_pages = 8;
  cfg.pin_chunk_pages = 8;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 64 * 4096);

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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, ConcurrentWaitersShareOnePinPass) {
  auto mgr = make({});
  Region& r = make_region(mgr, 16 * 4096);
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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, InvalidSegmentFailsAtPinTimeNotDeclareTime) {
  auto mgr = make({});
  // Declare succeeds for a region the process never mapped (paper §3.1).
  Region& r = mgr.declare(as_, {Segment{0x900000000000ULL, 8 * 4096}});
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(counters_.pin_failures, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);  // partial pins rolled back
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, FailureHandlerFiresForOverlappedFailure) {
  PinningConfig cfg;
  cfg.overlapped = true;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(4 * 4096);
  as_.munmap(addr + 2 * 4096, 2 * 4096);  // second half invalid
  Region& r = mgr.declare(as_, {Segment{addr, 4 * 4096}});

  Region* failed = nullptr;
  mgr.set_failure_handler([&](Region& reg) { failed = &reg; });
  bool released = false;
  mgr.ensure_pinned(r, [&](bool ok) { released = ok; });
  EXPECT_TRUE(released);  // overlapped: released before the failure is known
  eng_.run();
  EXPECT_EQ(failed, &r);
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(r.pinned_pages(), 0u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, MmuInvalidationUnpinsAndRepinsOnNextUse) {
  auto mgr = make({});
  const auto addr = as_.mmap(8 * 4096);
  Region& r = mgr.declare(as_, {Segment{addr, 8 * 4096}});
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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, InvalidationOutsideRegionIsIgnored) {
  auto mgr = make({});
  const auto addr = as_.mmap(4 * 4096);
  const auto other = as_.mmap(4 * 4096);
  Region& r = mgr.declare(as_, {Segment{addr, 4 * 4096}});
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  mgr.invalidate_range(other, other + 4 * 4096);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(counters_.notifier_invalidations, 0u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, InvalidationDuringAsyncPinRestartsIt) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(64 * 4096);
  Region& r = mgr.declare(as_, {Segment{addr, 64 * 4096}});
  bool done = false, ok = false;
  mgr.when_pinned(r, r.page_count(), [&](bool o) { done = true, ok = o; });

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
  mgr.undeclare(r.id());
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
  Region& r = mgr.declare(as_, {Segment{addr, 16 * 4096}});
  bool done = false, ok = true;
  mgr.when_pinned(r, r.page_count(), [&](bool o) { done = true, ok = o; });

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
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(counters_.pin_inval_restarts, 5u);
  EXPECT_GE(counters_.pin_retry_exhausted, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  eng_.run();
  EXPECT_EQ(eng_.pending(), 0u);

  // And the failure is not sticky: with the storm gone the region repins.
  bool ok2 = false;
  mgr.when_pinned(r, r.page_count(), [&](bool o) { ok2 = o; });
  eng_.run();
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(r.fully_pinned());
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, MemoryPressureShedsLruIdleRegion) {
  // Too many pinned pages for the host quota: the least recently *used*
  // idle region is shed, not the lowest id or the oldest pin.
  auto mgr = make({});
  pm_.set_pin_quota(20);
  Region& a = make_region(mgr, 8 * 4096);
  Region& b = make_region(mgr, 8 * 4096);
  Region& c = make_region(mgr, 8 * 4096);

  mgr.ensure_pinned(a, [](bool) {});
  eng_.run();
  mgr.ensure_pinned(b, [](bool) {});
  eng_.run();
  EXPECT_EQ(pm_.pinned_pages(), 16u);
  mgr.touch(a);  // a is used again after b: b is now the LRU region
  // Pinning c (8 pages) would hit 24 > 20: the LRU idle region (b) is shed.
  mgr.ensure_pinned(c, [](bool) {});
  eng_.run();
  EXPECT_TRUE(a.fully_pinned());
  EXPECT_EQ(b.pinned_pages(), 0u);
  EXPECT_TRUE(c.fully_pinned());
  EXPECT_EQ(counters_.pressure_unpins, 1u);
  EXPECT_LE(pm_.pinned_pages(), 20u);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.undeclare(a.id());
  mgr.undeclare(b.id());
  mgr.undeclare(c.id());
}

TEST_F(PinManagerTest, PressureNeverEvictsRegionsInUse) {
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  pm_.set_pin_quota(10);
  Region& a = make_region(mgr, 8 * 4096);
  Region& b = make_region(mgr, 8 * 4096);
  mgr.ensure_pinned(a, [](bool) {});
  eng_.run();
  a.add_use();  // active communication
  bool done = false, ok = false;
  mgr.ensure_pinned(b, [&](bool o) {
    done = true;
    ok = o;
  });
  // The quota is a hard ceiling: b pins the 2 pages that fit and waits,
  // and a is not shed despite the pressure.
  eng_.run_until(eng_.now() + 200 * sim::kMicrosecond);
  EXPECT_FALSE(done);
  EXPECT_TRUE(a.fully_pinned());
  EXPECT_EQ(b.pinned_pages(), 2u);
  EXPECT_EQ(counters_.pressure_unpins, 0u);

  // Once a's use drops, b's next retry sheds it and completes.
  a.drop_use();
  eng_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(a.pinned_pages(), 0u);
  EXPECT_TRUE(b.fully_pinned());
  EXPECT_LE(pm_.pinned_pages(), 10u);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.undeclare(a.id());
  mgr.undeclare(b.id());
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
  Region& r = mgr.declare(as, {Segment{addr, 128 * 4096}});
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng.run();  // must not throw out of the event loop
  EXPECT_FALSE(ok);
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(pm.pinned_pages(), 0u);  // partial pins rolled back
  mgr.undeclare(r.id());
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
  Region& r1 = mgr.declare(as, {Segment{a1, 40 * 4096}});
  Region& r2 = mgr.declare(as, {Segment{a2, 40 * 4096}});

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
  mgr.undeclare(r1.id());
  mgr.undeclare(r2.id());
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
  Region& r = mgr.declare(as, {Segment{addr, 30 * 4096}});

  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng.run();  // retries with backoff, then gives up — never hangs
  EXPECT_FALSE(ok);
  EXPECT_FALSE(mgr.pinning(r));
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
  mgr.undeclare(r.id());
  EXPECT_EQ(pm.pinned_pages(), 0u);
}

TEST_F(PinManagerTest, QuotaZeroStarvationEndsGracefully) {
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 6;
  auto mgr = make(cfg);
  pm_.set_pin_quota(0);  // permanently starved: no pin can ever succeed
  Region& r = make_region(mgr, 8 * 4096);

  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_FALSE(ok);  // clean abort, not a hang
  EXPECT_EQ(eng_.pending(), 0u);
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_GE(counters_.pins_denied, 1u);
  EXPECT_EQ(counters_.pin_retries, 6u);
  EXPECT_EQ(counters_.pin_retry_exhausted, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  EXPECT_GE(pm_.quota_denials(), 1u);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, QuotaEvictsLruIdleRegionLikeDriverLimit) {
  // The PhysicalMemory quota sheds the LRU idle region before pinning
  // past it.
  auto mgr = make({});
  pm_.set_pin_quota(20);
  Region& a = make_region(mgr, 8 * 4096);
  Region& b = make_region(mgr, 8 * 4096);
  Region& c = make_region(mgr, 8 * 4096);

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
  mgr.undeclare(a.id());
  mgr.undeclare(b.id());
  mgr.undeclare(c.id());
}

TEST_F(PinManagerTest, ChunkShrinksToQuotaHeadroomAndHealsWhenItFrees) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 16;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  pm_.set_pin_quota(20);
  Region& busy = make_region(mgr, 8 * 4096);
  Region& big = make_region(mgr, 16 * 4096);

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
  mgr.undeclare(busy.id());
  mgr.undeclare(big.id());
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
  Region& r = make_region(mgr, 8 * 4096);

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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, UnpinChargesKernelTimeToTheCore) {
  auto mgr = make({});
  Region& r = make_region(mgr, 32 * 4096);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  const sim::Time busy_before = core_.stats().total_busy();
  mgr.unpin(r);
  eng_.run();
  EXPECT_EQ(core_.stats().total_busy() - busy_before,
            cpu::xeon_e5460().unpin_cost(32));
  mgr.undeclare(r.id());
}

// --- frontier waiters (when_pinned) -----------------------------------------

TEST_F(PinManagerTest, FrontierWaitersWakeInTargetThenArrivalOrder) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);

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
  mgr.when_pinned(r, r.page_count(), waiter('e'));  // target 32
  mgr.when_pinned(r, 8, waiter('f'));
  EXPECT_TRUE(woke.empty());
  eng_.run();

  const std::vector<std::pair<char, std::size_t>> want = {
      {'b', 8}, {'f', 8}, {'a', 16}, {'c', 16}, {'d', 32}, {'e', 32}};
  EXPECT_EQ(woke, want);
  EXPECT_EQ(counters_.pin_ops, 1u);  // one job served every target
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, CoveredFrontierTargetFiresInline) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);
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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, TruncatedFrontierMakesWaitersWaitAgain) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(32 * 4096);
  Region& r = mgr.declare(as_, {Segment{addr, 32 * 4096}});

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
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, FailedJobFailsEachPendingWaiterOnce) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 1;
  auto mgr = make(cfg);
  const auto addr = as_.mmap(4 * 4096);
  as_.munmap(addr + 2 * 4096, 2 * 4096);  // pages 2 and 3 are invalid
  Region& r = mgr.declare(as_, {Segment{addr, 4 * 4096}});
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
  mgr.when_pinned(r, r.page_count(), waiter(3));
  eng_.run();

  EXPECT_EQ(oks, (std::vector<int>{1, 0, 0, 0}));
  EXPECT_EQ(fails, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_EQ(handler_calls, 1);
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(r.pinned_pages(), 0u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, UnregisterDropsPendingWaitersUncalled) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);

  bool called = false;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> held = token;
  mgr.when_pinned(r, 32, [&called, token = std::move(token)](bool) {
    called = true;
  });
  while (r.pinned_pages() < 8 && eng_.step()) {
  }
  mgr.undeclare(r.id());
  EXPECT_TRUE(held.expired());  // the waiter is gone with the region
  eng_.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

// --- declared regions ---------------------------------------------------------

TEST_F(PinManagerTest, DeclareHandsOutAscendingIdsNeverReused) {
  auto mgr = make({});
  const RegionId a = make_region(mgr, 4096).id();
  const RegionId b = make_region(mgr, 4096).id();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  mgr.undeclare(b);
  EXPECT_EQ(mgr.find(b), nullptr);
  EXPECT_THROW(mgr.undeclare(b), std::invalid_argument);
  EXPECT_EQ(make_region(mgr, 4096).id(), 3u);
  EXPECT_EQ(mgr.find(a)->id(), a);
}

TEST_F(PinManagerTest, DestructorUnpinsWhatIsStillDeclared) {
  {
    PinningConfig cfg;
    cfg.pin_chunk_pages = 4;
    auto mgr = make(cfg);
    Region& idle = make_region(mgr, 8 * 4096);
    Region& busy = make_region(mgr, 32 * 4096);
    mgr.ensure_pinned(idle, [](bool) {});
    eng_.run();
    mgr.ensure_pinned(busy, [](bool) {});
    while (busy.pinned_pages() < 8 && eng_.step()) {
    }
    ASSERT_GT(pm_.pinned_pages(), 8u);
  }
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  eng_.run();  // the cancelled job's pending chunk must not touch anything
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

TEST_F(PinManagerTest, RestartBackoffOfAnUndeclaredRegionSkipsTheNextOne) {
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);
  const mem::VirtAddr addr = r.segments().front().addr;
  mgr.ensure_pinned(r, [](bool) {});
  while (r.pinned_pages() < 8 && eng_.step()) {
  }
  // Invalidated mid-pin: the job restarts after a backoff. The region is
  // undeclared before the backoff fires, and the next declaration must not
  // inherit the restart.
  mgr.invalidate_range(addr, addr + 32 * 4096);
  ASSERT_EQ(counters_.pin_inval_restarts, 1u);
  const RegionId gone = r.id();
  mgr.undeclare(gone);
  Region& next = make_region(mgr, 32 * 4096);
  EXPECT_NE(next.id(), gone);
  eng_.run();
  EXPECT_EQ(next.pinned_pages(), 0u);
  EXPECT_FALSE(mgr.pinning(next));
  EXPECT_EQ(counters_.pin_ops, 1u);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
  mgr.undeclare(next.id());
}

// --- one close per pin job ---------------------------------------------------

/// Pin events a manager emits, captured through a relay.
struct PinEvents {
  explicit PinEvents(sim::Engine& eng) : bus(eng) {
    bus.attach(&sink);
    relay.set_bus(&bus);
  }
  [[nodiscard]] std::size_t count(obs::EventKind kind) const {
    return static_cast<std::size_t>(
        std::ranges::count(sink.events, kind, &obs::Event::kind));
  }
  obs::Bus bus;
  test::CaptureSink sink;
  obs::Relay relay;
};

TEST_F(PinManagerTest, RetryBudgetEndsTheJobWithOnePinFail) {
  PinEvents events(eng_);
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 3;
  auto mgr = make(cfg);
  mgr.set_relay(&events.relay);
  pm_.set_pin_quota(0);
  Region& r = make_region(mgr, 8 * 4096);
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(counters_.pin_retry_exhausted, 1u);
  EXPECT_EQ(events.count(obs::EventKind::kPinStart), 1u);
  EXPECT_EQ(events.count(obs::EventKind::kPinFail), 1u);
  const auto fail = events.sink.find_first(obs::EventKind::kPinFail,
                                           "retry budget exhausted");
  EXPECT_NE(fail, test::CaptureSink::npos);
  pm_.set_pin_quota(std::numeric_limits<std::size_t>::max());
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, RestartBudgetEndsTheJobWithOnePinFail) {
  PinEvents events(eng_);
  PinningConfig cfg;
  cfg.pin_chunk_pages = 4;
  cfg.pin_retry_budget = 2;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  auto mgr = make(cfg);
  mgr.set_relay(&events.relay);
  Region& r = make_region(mgr, 16 * 4096);
  const mem::VirtAddr addr = r.segments().front().addr;
  bool done = false, ok = true;
  mgr.when_pinned(r, r.page_count(), [&](bool o) { done = true, ok = o; });
  while (!done && eng_.step()) {
    if (r.pinned_pages() > 0) mgr.invalidate_range(addr, addr + 16 * 4096);
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(counters_.pin_inval_restarts, 2u);
  EXPECT_EQ(events.count(obs::EventKind::kPinStart), 1u);
  EXPECT_EQ(events.count(obs::EventKind::kPinFail), 1u);
  const auto fail = events.sink.find_first(
      obs::EventKind::kPinFail, "invalidation restart budget exhausted");
  EXPECT_NE(fail, test::CaptureSink::npos);
  mgr.undeclare(r.id());
}

// --- a failed region retries on its next use --------------------------------

/// Makes `r`'s pin job fail for want of quota, then lifts the quota.
void fail_for_quota(PinManager& mgr, Region& r, sim::Engine& eng,
                    mem::PhysicalMemory& pm) {
  pm.set_pin_quota(0);
  bool ok = true;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng.run();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(mgr.pinning(r));
  pm.set_pin_quota(std::numeric_limits<std::size_t>::max());
}

TEST_F(PinManagerTest, FailedRegionRetriedOnNextUseEmitsOnePinReset) {
  PinEvents events(eng_);
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 2;
  auto mgr = make(cfg);
  mgr.set_relay(&events.relay);
  Region& r = make_region(mgr, 8 * 4096);
  fail_for_quota(mgr, r, eng_, pm_);
  EXPECT_EQ(events.count(obs::EventKind::kPinReset), 0u);

  bool ok = false;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  EXPECT_TRUE(mgr.pinning(r));
  eng_.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.fully_pinned());
  // Later uses of the repinned region reset nothing.
  mgr.unpin(r);
  mgr.ensure_pinned(r, [](bool) {});
  eng_.run();
  EXPECT_EQ(events.count(obs::EventKind::kPinReset), 1u);
  EXPECT_EQ(counters_.pin_fail_resets, 1u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, FailedRegionUnpinnedFirstEmitsNoPinReset) {
  // unpin() releases whatever the region held and clears the failure with
  // it: the next use is a plain repin.
  PinEvents events(eng_);
  PinningConfig cfg;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 2;
  auto mgr = make(cfg);
  mgr.set_relay(&events.relay);
  Region& r = make_region(mgr, 8 * 4096);
  fail_for_quota(mgr, r, eng_, pm_);
  mgr.unpin(r);

  bool ok = false;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  eng_.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(events.count(obs::EventKind::kPinReset), 0u);
  EXPECT_EQ(counters_.pin_fail_resets, 0u);
  mgr.undeclare(r.id());
}

// --- the config decides what declare makes and what ensure_pinned waits for --

TEST_F(PinManagerTest, NoPinModeDeclaresPagedRegionsThatNeverPin) {
  PinningConfig cfg;
  cfg.mode = PinMode::kNone;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 8 * 4096);
  EXPECT_TRUE(r.paged());
  bool ok = false;
  mgr.ensure_pinned(r, [&](bool o) { ok = o; });
  EXPECT_TRUE(ok);  // nothing to pin: fires inline
  EXPECT_FALSE(mgr.pinning(r));
  eng_.run();
  EXPECT_EQ(r.pinned_pages(), 0u);
  EXPECT_EQ(counters_.pin_ops, 0u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, PermanentModePinsAtDeclaration) {
  PinningConfig cfg;
  cfg.mode = PinMode::kPermanent;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 8 * 4096);
  EXPECT_FALSE(r.paged());
  EXPECT_TRUE(mgr.pinning(r));
  eng_.run();
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_FALSE(mgr.pinning(r));
  EXPECT_EQ(counters_.pin_ops, 1u);
  mgr.undeclare(r.id());
}

TEST_F(PinManagerTest, NonblockingRequestsPinWholeWhenOverlapIsForBlockingOnly) {
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.overlap_blocking_only = true;
  auto mgr = make(cfg);
  Region& r = make_region(mgr, 32 * 4096);
  bool blocking = false, nonblocking = false;
  mgr.ensure_pinned(r, [&](bool o) { blocking = o; });
  EXPECT_TRUE(blocking);  // overlapped: released at once
  mgr.ensure_pinned(r, [&](bool o) { nonblocking = o; },
                    /*blocking_hint=*/false);
  EXPECT_FALSE(nonblocking);  // waits for the whole region
  eng_.run();
  EXPECT_TRUE(nonblocking);
  EXPECT_TRUE(r.fully_pinned());
  mgr.undeclare(r.id());
}

}  // namespace
}  // namespace pinsim::core
