// Deterministic interleaving torture: pin-frontier advance vs. MMU-notifier
// invalidation vs. packet arrival, scheduled in adversarial orders.
//
// The fuzz tests sample random schedules; these tests *enumerate* them. By
// stepping the engine an exact number of events before injecting the hostile
// VM event, the invalidation (or quota collapse, or storm) is swept across
// every point of the pinning timeline, so every interleaving the discrete-
// event simulator can produce is exercised — including the ones where the
// notifier lands between two chunks of the same pin job, or between a pin
// completion and the packet that wanted the page.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/pin_manager.hpp"
#include "core/region.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/mmu_notifier.hpp"
#include "mem/physical_memory.hpp"
#include "mem/pressure.hpp"
#include "obs/bus.hpp"
#include "obs/invariants.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"

namespace pinsim::core {
namespace {

constexpr std::size_t kPages = 24;
constexpr std::size_t kBytes = kPages * mem::kPageSize;

/// The EndpointNotifier analogue: VM invalidations reach the pin manager
/// exactly as they do in the full stack.
struct ForwardingNotifier final : mem::MmuNotifier {
  explicit ForwardingNotifier(PinManager& m) : mgr(&m) {}
  void invalidate_range(mem::VirtAddr start, mem::VirtAddr end) override {
    mgr->invalidate_range(start, end);
  }
  PinManager* mgr;
};

/// One self-contained pinning world, rebuilt for every enumerated schedule.
struct Torture {
  Torture()
      : pm(256),
        as(pm),
        core(eng, "cpu0"),
        mgr(eng, core, cpu::xeon_e5460(), fast_cfg(), counters),
        notifier(mgr),
        addr(as.mmap(kBytes)),
        region(mgr.declare(as, {Segment{addr, kBytes}})),
        expect(kBytes) {
    as.register_notifier(&notifier);
    // Every enumerated schedule also streams through the online invariant
    // checker: no interleaving may make pins survive an invalidation or the
    // frontier retreat without cause.
    bus.attach(&checker);
    relay.set_bus(&bus);
    mgr.set_relay(&relay);
    for (std::size_t i = 0; i < kBytes; ++i) {
      expect[i] = static_cast<std::byte>((i * 37) % 239);
    }
    as.write(addr, expect);
  }

  ~Torture() { as.unregister_notifier(&notifier); }

  static PinningConfig fast_cfg() {
    PinningConfig cfg;
    cfg.overlapped = true;
    cfg.pin_chunk_pages = 4;  // many chunks => many interleaving points
    cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
    cfg.pin_retry_budget = 8;
    return cfg;
  }

  /// Simulated packet arrival: the NIC bottom half writes `data` at `off`
  /// if the page is pinned, else drops the packet (an overlap miss the
  /// retransmission layer would recover). Returns true if it landed.
  bool packet_arrival(std::size_t off, std::span<const std::byte> data) {
    if (region.copy_in(off, data) != Region::AccessResult::kOk) return false;
    std::memcpy(expect.data() + off, data.data(), data.size());
    return true;
  }

  /// Drains the engine and requires the region to end fully pinned with the
  /// exact expected bytes and clean global accounting.
  void assert_converged() {
    bool ok = false;
    mgr.when_pinned(region, region.page_count(), [&](bool o) { ok = o; });
    eng.run();
    ASSERT_TRUE(ok);
    ASSERT_TRUE(region.fully_pinned());
    ASSERT_EQ(eng.pending(), 0u);  // no orphaned timers: no way to hang
    std::vector<std::byte> out(kBytes);
    ASSERT_EQ(region.copy_out(0, out), Region::AccessResult::kOk);
    ASSERT_EQ(out, expect);
    ASSERT_EQ(pm.pinned_pages(), region.pinned_pages());
    mgr.undeclare(region.id());
    ASSERT_EQ(pm.pinned_pages(), 0u);
    checker.finalize();
    ASSERT_TRUE(checker.ok()) << checker.report();
  }

  sim::Engine eng;
  mem::PhysicalMemory pm;
  mem::AddressSpace as;
  cpu::Core core;
  Counters counters;
  // The sinks outlive the manager, which unpins what is still declared.
  obs::Bus bus{eng};
  obs::InvariantChecker checker{mem::kPageSize};
  obs::Relay relay;
  PinManager mgr;
  ForwardingNotifier notifier;
  mem::VirtAddr addr;
  Region& region;
  std::vector<std::byte> expect;
};

std::vector<std::byte> payload(std::size_t n, int salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i + static_cast<std::size_t>(salt)) % 229);
  }
  return v;
}

TEST(PressureTorture, InvalidationSweptAcrossEveryPinStep) {
  // For every prefix length k of the pinning timeline: advance exactly k
  // events, invalidate the middle of the region, deliver a packet, and
  // demand full recovery. k sweeps past the end of the timeline so the
  // "invalidate after fully pinned" orders are covered too.
  for (int k = 0; k < 40; ++k) {
    Torture t;
    t.mgr.ensure_pinned(t.region, [](bool) {});
    for (int s = 0; s < k && t.eng.step(); ++s) {
    }
    t.mgr.invalidate_range(t.addr + 8 * mem::kPageSize,
                           t.addr + 16 * mem::kPageSize);
    // Packet aimed at the invalidated middle: must either land on pinned
    // pages or be dropped — never write through a stale translation.
    const auto data = payload(3 * mem::kPageSize, k);
    t.packet_arrival(9 * mem::kPageSize, data);
    t.assert_converged();
  }
}

TEST(PressureTorture, PacketRacesTheAdvancingFrontier) {
  // Sweep a packet arrival (at the region's tail, the last pages to pin)
  // across every point of the pin timeline. Early arrivals must drop
  // cleanly; late ones must land; recovery must be bit-exact either way.
  int landed = 0, dropped = 0;
  for (int k = 0; k < 40; ++k) {
    Torture t;
    t.mgr.ensure_pinned(t.region, [](bool) {});
    for (int s = 0; s < k && t.eng.step(); ++s) {
    }
    const auto data = payload(2 * mem::kPageSize, 1000 + k);
    if (t.packet_arrival((kPages - 2) * mem::kPageSize, data)) {
      ++landed;
    } else {
      ++dropped;
    }
    t.assert_converged();
  }
  // The sweep must actually produce both interleavings, or it proves nothing.
  EXPECT_GT(landed, 0);
  EXPECT_GT(dropped, 0);
}

TEST(PressureTorture, QuotaCollapseSweptAcrossThePinTimeline) {
  // The quota collapses to a handful of pages at every possible moment of
  // the pin job, stalls the frontier, then recovers. The job parked in
  // backoff must finish on its own once headroom returns.
  for (int k = 0; k < 40; ++k) {
    Torture t;
    bool done = false, ok = false;
    t.mgr.ensure_pinned(t.region, [&](bool o) { done = true, ok = o; });
    for (int s = 0; s < k && t.eng.step(); ++s) {
    }
    t.pm.set_pin_quota(4);  // collapse
    for (int s = 0; s < 6 && t.eng.step(); ++s) {
    }
    t.pm.set_pin_quota(std::numeric_limits<std::size_t>::max());  // recover
    t.eng.run();
    // The original completion must have fired by now (overlapped mode
    // releases early; what matters is that nothing hung or leaked).
    ASSERT_TRUE(done);
    ASSERT_TRUE(ok);
    t.assert_converged();
  }
}

TEST(PressureTorture, StormAfterEveryEngineStep) {
  // The harshest deterministic order: a full notifier storm (sweep +
  // migrate + COW) fires between every pair of engine events while packets
  // stream into the region. A bounded step budget turns any live-lock into
  // a test failure instead of a hang.
  Torture t;
  mem::PressureInjector inj(0x70a7);
  mem::PressurePlan plan;
  plan.sweep = 1.0;
  plan.sweep_pages = 8;
  plan.migrate = 1.0;
  plan.migrate_pages = 2;
  plan.cow = 1.0;
  plan.cow_pages = 2;
  inj.set_plan(plan);
  inj.watch(&t.as);

  t.mgr.ensure_pinned(t.region, [](bool) {});
  int steps = 0;
  int packet = 0;
  while (t.eng.step()) {
    ASSERT_LT(++steps, 20000) << "live-lock: engine never drains";
    inj.storm_once();
    if (steps % 3 == 0) {
      const std::size_t off =
          (static_cast<std::size_t>(packet) * 5 % kPages) * mem::kPageSize;
      t.packet_arrival(off, payload(mem::kPageSize, packet));
      ++packet;
    }
    // Keep the pin demand alive the way retransmitted packets would.
    if (steps % 7 == 0) t.mgr.ensure_pinned(t.region, [](bool) {});
  }
  EXPECT_GT(inj.stats().swept_pages + inj.stats().migrated_pages +
                inj.stats().cow_breaks,
            0u);
  t.assert_converged();
}

TEST(PressureTorture, PermanentStarvationAbortsThenRecovers) {
  // Quota 0 forever: the pin must end in a clean ok=false after the retry
  // budget — never a hang — and the very same region must pin fine once the
  // quota returns (kFailed is retryable).
  Torture t;
  t.pm.set_pin_quota(0);
  bool done = false, ok = true;
  t.mgr.when_pinned(t.region, t.region.page_count(),
                    [&](bool o) { done = true, ok = o; });
  t.eng.run();  // terminates: backoff is bounded by the budget
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(t.eng.pending(), 0u);
  EXPECT_FALSE(t.mgr.pinning(t.region));
  EXPECT_GE(t.counters.pins_denied, 1u);
  EXPECT_EQ(t.counters.pin_retry_exhausted, 1u);
  EXPECT_EQ(t.pm.pinned_pages(), 0u);

  t.pm.set_pin_quota(std::numeric_limits<std::size_t>::max());
  t.assert_converged();
  EXPECT_GE(t.counters.pin_fail_resets, 1u);
}

}  // namespace
}  // namespace pinsim::core
