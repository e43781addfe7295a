// Host-wide idle-pin reclaim (PinManager::reclaim_quota) on real pin
// managers: the tenants are the processes of one Host with pin arbitration
// enabled, each pinning regions straight through its endpoint's manager.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/report.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

/// One host whose `procs` processes share a `quota`-page pin quota.
struct Tenants {
  Tenants(std::size_t quota, std::size_t procs)
      : host(eng, fabric, host_config(), pinning_cache_config()) {
    host.enable_pin_arbitration();
    host.memory().set_pin_quota(quota);
    for (std::size_t p = 0; p < procs; ++p) host.spawn_process();
  }

  Tenants(const Tenants&) = delete;
  Tenants& operator=(const Tenants&) = delete;

  ~Tenants() {
    for (Pinned& x : regions_) release(x);
  }

  /// Declares a fresh `pages`-page region of process `p` and starts pinning
  /// it whole; `done` (optional) receives the pin job's verdict.
  Region& start_pin(std::size_t p, std::size_t pages, bool* done = nullptr) {
    auto& as = host.process(p).as;
    Region& r = manager(p).declare(
        as, {Segment{as.mmap(pages * mem::kPageSize), pages * mem::kPageSize}});
    regions_.push_back({p, r.id()});
    manager(p).when_pinned(r, r.page_count(), [done](bool ok) {
      if (done != nullptr) *done = ok;
    });
    return r;
  }

  /// start_pin, run to completion, and expect the region fully pinned.
  Region& pin(std::size_t p, std::size_t pages) {
    bool ok = false;
    Region& r = start_pin(p, pages, &ok);
    eng.run();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(r.fully_pinned());
    return r;
  }

  /// Undeclares every region of process `p` (before it is killed).
  void release_all(std::size_t p) {
    for (Pinned& x : regions_) {
      if (x.proc == p) release(x);
    }
  }

  PinManager& manager(std::size_t p) {
    return host.process(p).ep.pin_manager();
  }
  Counters& counters(std::size_t p) { return host.process(p).ep.counters(); }
  std::vector<PinManager*>& list() { return host.driver().pin_tenants(); }

  sim::Engine eng;
  net::Fabric fabric{eng};
  Host host;

 private:
  struct Pinned {
    std::size_t proc = 0;
    RegionId region = kInvalidRegion;
  };

  static Host::Config host_config() {
    Host::Config hc;
    hc.memory_frames = 1024;
    return hc;
  }

  void release(Pinned& x) {
    if (x.region == kInvalidRegion) return;
    manager(x.proc).undeclare(x.region);
    x.region = kInvalidRegion;
  }

  std::vector<Pinned> regions_;
};

// The tenant holding the most pinned pages sheds first, whatever the join
// order.
TEST(PinArbiter, ShedsTheMostOverFloorTenantFirst) {
  Tenants t(120, 3);
  t.pin(1, 45);
  t.pin(2, 75);
  t.pin(0, 16);  // the quota denies it: reclaim runs
  EXPECT_EQ(t.counters(2).tenant_sheds_suffered, 1u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 0u);
  EXPECT_EQ(t.counters(0).tenant_arb_requests, 1u);
  EXPECT_EQ(t.counters(0).tenant_arb_grants, 1u);
}

// On equal pinned pages the tenant that joined first (first scheduled a
// pin chunk) sheds first.
TEST(PinArbiter, EqualOverageBreaksTiesByRegistrationOrder) {
  Tenants t(90, 3);
  t.pin(2, 45);  // joins first
  t.pin(1, 45);
  ASSERT_EQ(t.list().size(), 2u);
  EXPECT_EQ(t.list()[0], &t.manager(2));
  t.pin(0, 8);
  EXPECT_EQ(t.counters(2).tenant_sheds_suffered, 1u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 0u);
}

// A tenant whose regions are all busy yields nothing; the next one in the
// ranking sheds instead.
TEST(PinArbiter, KeepsSheddingDownTheRankingWhenVictimsCannotYield) {
  Tenants t(100, 3);
  Region& busy = t.pin(1, 60);
  busy.add_use();  // in a communication
  Region& idle = t.pin(2, 40);
  t.pin(0, 8);
  EXPECT_TRUE(busy.fully_pinned());
  EXPECT_EQ(idle.pinned_pages(), 0u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 0u);
  EXPECT_EQ(t.counters(2).tenant_sheds_suffered, 1u);
  busy.drop_use();
}

// Headroom that already exists is used without taking anything from
// anyone: no reclaim request, no shed.
TEST(PinArbiter, GrantsImmediatelyWhenHeadroomAlreadyExists) {
  Tenants t(100, 2);
  Region& other = t.pin(1, 40);
  t.pin(0, 40);
  EXPECT_TRUE(other.fully_pinned());
  EXPECT_EQ(t.counters(0).tenant_arb_requests, 0u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 0u);
  EXPECT_EQ(t.host.memory().pinned_pages(), 80u);
}

// Idle pins are a cache, not an entitlement: a requester already holding
// most of the quota still reclaims another tenant's idle region.
TEST(PinArbiter, RequesterAtOrAboveFloorReclaimsIdlePins) {
  Tenants t(100, 2);
  Region& mine = t.pin(0, 60);
  mine.add_use();  // its own pins are busy: it cannot shed them
  Region& other = t.pin(1, 40);
  t.pin(0, 8);
  EXPECT_TRUE(mine.fully_pinned());
  EXPECT_EQ(other.pinned_pages(), 0u);
  EXPECT_EQ(t.counters(0).tenant_arb_grants, 1u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 1u);
  mine.drop_use();
}

// Busy pins are never shed: with every other region in use the request
// gets no grant and the pin waits; once a region goes idle, the next retry
// reclaims it.
TEST(PinArbiter, FloorOrdersVictimsButOnlyBusyPinsAreProtected) {
  Tenants t(100, 3);
  Region& a = t.pin(1, 70);
  Region& b = t.pin(2, 30);
  a.add_use();
  b.add_use();
  bool ok = false;
  Region& want = t.start_pin(0, 8, &ok);
  t.eng.run_until(t.eng.now() + sim::kMillisecond);
  EXPECT_FALSE(ok);
  EXPECT_EQ(want.pinned_pages(), 0u);
  EXPECT_TRUE(a.fully_pinned());
  EXPECT_TRUE(b.fully_pinned());
  EXPECT_GE(t.counters(0).tenant_arb_requests, 1u);
  EXPECT_EQ(t.counters(0).tenant_arb_grants, 0u);

  b.drop_use();
  t.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(want.fully_pinned());
  EXPECT_TRUE(a.fully_pinned());
  EXPECT_EQ(b.pinned_pages(), 0u);
  EXPECT_EQ(t.counters(0).tenant_arb_grants, 1u);
  EXPECT_EQ(t.counters(2).tenant_sheds_suffered, 1u);
  a.drop_use();
}

// A destroyed manager leaves the host's list; the restarted process's new
// manager joins at the end, so it ranks last on ties.
TEST(PinArbiter, RestartedTenantRanksLastOnTies) {
  Tenants t(80, 3);
  t.pin(1, 40);
  t.pin(2, 40);
  EXPECT_EQ(t.list(),
            (std::vector<PinManager*>{&t.manager(1), &t.manager(2)}));

  t.release_all(1);
  t.host.kill_process(1);
  EXPECT_EQ(t.list(), std::vector<PinManager*>{&t.manager(2)});

  t.host.restart_process(1);
  t.pin(1, 40);
  EXPECT_EQ(t.list(),
            (std::vector<PinManager*>{&t.manager(2), &t.manager(1)}));

  t.pin(0, 8);
  EXPECT_EQ(t.counters(2).tenant_sheds_suffered, 1u);
  EXPECT_EQ(t.counters(1).tenant_sheds_suffered, 0u);
}

// --- Host/Library integration ----------------------------------------------

TEST(PinArbiterIntegration, StarvedTenantRecoversHeadroomFromIdleHog) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.memory_frames = 16384;
  Host a(eng, fabric, hc, pinning_cache_config());
  Host b(eng, fabric, hc, pinning_cache_config());
  a.enable_pin_arbitration();
  a.memory().set_pin_quota(300);

  auto& hog = a.spawn_process();
  auto& starved = a.spawn_process();
  auto& rx0 = b.spawn_process();
  auto& rx1 = b.spawn_process();

  const std::size_t len = 1024 * 1024;  // 256 pages, most of the 300 quota
  const auto send_one = [&](Host::Process& src, Host::Process& dst) {
    const auto buf = src.heap.malloc(len);
    const auto sink = dst.heap.malloc(len);
    sim::spawn(eng, [](Library& lib, EndpointAddr to, mem::VirtAddr p,
                       std::size_t n) -> sim::Task<> {
      (void)co_await lib.send(to, 1, p, n);
    }(src.lib, dst.addr(), buf, len));
    sim::spawn(eng, [](Library& lib, mem::VirtAddr p,
                       std::size_t n) -> sim::Task<> {
      (void)co_await lib.recv(1, ~std::uint64_t{0}, p, n);
    }(dst.lib, sink, len));
    eng.run();
    eng.rethrow_task_failures();
  };

  // The hog transfers first and (on-demand pinning) keeps its 256 pages
  // pinned but idle afterwards.
  send_one(hog, rx0);
  ASSERT_GT(a.memory().pinned_pages(), 200u);

  // The starved tenant now needs pages: the quota denies it, the hog's
  // idle region is shed, and the transfer completes.
  send_one(starved, rx1);

  const Counters& sc = starved.lib.counters();
  const Counters& hc2 = hog.lib.counters();
  EXPECT_GT(sc.tenant_arb_requests, 0u);
  EXPECT_GT(sc.tenant_arb_grants, 0u);
  EXPECT_GT(hc2.tenant_sheds_suffered, 0u);
  EXPECT_EQ(sc.aborts, 0u);

  const std::string report = format_report(starved, a);
  EXPECT_NE(report.find("tenant: arb_requests="), std::string::npos) << report;
  const std::string json = format_json_report(starved, a);
  EXPECT_NE(json.find("\"tenant_arb_grants\""), std::string::npos) << json;
  const std::string host_json = format_json_host(a);
  EXPECT_NE(host_json.find("\"quota_denials\""), std::string::npos)
      << host_json;
  const std::string fabric_json = format_json_fabric(fabric);
  EXPECT_NE(fabric_json.find("\"congestion_dropped\""), std::string::npos)
      << fabric_json;
}

}  // namespace
}  // namespace pinsim::core
