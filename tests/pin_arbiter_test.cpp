#include "mem/pin_arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/report.hpp"
#include "mem/physical_memory.hpp"
#include "sim/task.hpp"

namespace pinsim::mem {
namespace {

/// Scripted tenant: pinned pages are mirrored into the PhysicalMemory
/// accounting so the arbiter's headroom checks see real numbers.
struct MockTenant final : PinArbiter::TenantOps {
  explicit MockTenant(PhysicalMemory& pm) : pm_(&pm) {}

  void pin(std::size_t pages) {
    pinned_ += pages;
    pm_->account_pin(static_cast<std::int64_t>(pages));
  }

  [[nodiscard]] std::size_t arb_pinned_pages() const override {
    return pinned_;
  }
  bool arb_shed_idle() override {
    if (!can_shed || pinned_ == 0) return false;
    const std::size_t delta = std::min(shed_amount, pinned_);
    pinned_ -= delta;
    pm_->account_pin(-static_cast<std::int64_t>(delta));
    ++sheds;
    return true;
  }

  PhysicalMemory* pm_;
  std::size_t pinned_ = 0;
  std::size_t shed_amount = 10;
  bool can_shed = true;
  int sheds = 0;
};

TEST(PinArbiter, FairFloorIsWeightProportional) {
  PhysicalMemory pm(64);
  pm.set_pin_quota(100);
  PinArbiter arb(pm);
  MockTenant a(pm), b(pm), c(pm);
  const auto ia = arb.register_tenant(&a, 1);
  const auto ib = arb.register_tenant(&b, 1);
  const auto ic = arb.register_tenant(&c, 2);
  EXPECT_EQ(arb.fair_floor(ia), 25u);
  EXPECT_EQ(arb.fair_floor(ib), 25u);
  EXPECT_EQ(arb.fair_floor(ic), 50u);
  // Unregistering redistributes the entitlement.
  arb.unregister_tenant(ib);
  EXPECT_EQ(arb.fair_floor(ia), 33u);
  EXPECT_EQ(arb.fair_floor(ic), 66u);
  EXPECT_EQ(arb.tenant_count(), 2u);
}

// Idle pins are a cache, not an entitlement: a requester already over its
// fair share still reclaims another tenant's idle region, even one under
// its own floor.
TEST(PinArbiter, RequesterAtOrAboveFloorReclaimsIdlePins) {
  PhysicalMemory pm(64);
  pm.set_pin_quota(100);
  PinArbiter arb(pm);
  MockTenant greedy(pm), other(pm);
  const auto ig = arb.register_tenant(&greedy, 1);
  const auto io = arb.register_tenant(&other, 1);
  greedy.pin(60);  // over its 50-page floor
  other.pin(40);   // under its floor, but idle
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&greedy));
  EXPECT_EQ(other.sheds, 1);
  EXPECT_EQ(arb.stats(io).sheds_suffered, 1u);
  EXPECT_EQ(arb.stats(ig).grants, 1u);
  EXPECT_GT(pm.pin_headroom(), 0u);
}

TEST(PinArbiter, ShedsTheMostOverFloorTenantFirst) {
  PhysicalMemory pm(128);
  pm.set_pin_quota(120);
  PinArbiter arb(pm);
  MockTenant starved(pm), mild(pm), hog(pm);
  arb.register_tenant(&starved, 1);  // floor 40
  arb.register_tenant(&mild, 1);     // floor 40
  const auto ih = arb.register_tenant(&hog, 1);  // floor 40
  mild.pin(45);  // overage 5
  hog.pin(75);   // overage 35 -> shed first
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(hog.sheds, 1);
  EXPECT_EQ(mild.sheds, 0);
  EXPECT_EQ(arb.stats(ih).sheds_suffered, 1u);
  EXPECT_GT(pm.pin_headroom(), 0u);
  EXPECT_EQ(arb.total_requests(), 1u);
  EXPECT_EQ(arb.total_grants(), 1u);
  EXPECT_EQ(arb.total_sheds(), 1u);
}

TEST(PinArbiter, WeightNormalizesTheOverageRanking) {
  PhysicalMemory pm(256);
  pm.set_pin_quota(200);
  PinArbiter arb(pm);
  MockTenant starved(pm), light(pm), heavy(pm);
  arb.register_tenant(&starved, 2);  // floor 80
  arb.register_tenant(&light, 1);    // floor 40
  arb.register_tenant(&heavy, 2);    // floor 80
  light.pin(60);   // overage 20, weight 1 -> normalized 20
  heavy.pin(140);  // overage 60, weight 2 -> normalized 30 -> first victim
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(heavy.sheds, 1);
  EXPECT_EQ(light.sheds, 0);
}

// The floor orders the victims and protects nothing by itself: over-floor
// tenants are shed first, a tenant under its floor yields its idle pins
// next, and only busy pins are never shed.
TEST(PinArbiter, FloorOrdersVictimsButOnlyBusyPinsAreProtected) {
  PhysicalMemory pm(128);
  pm.set_pin_quota(100);
  PinArbiter arb(pm);
  MockTenant starved(pm), modest(pm), hog(pm);
  arb.register_tenant(&starved, 1);  // floor 33
  arb.register_tenant(&modest, 1);   // floor 33
  arb.register_tenant(&hog, 1);      // floor 33
  modest.pin(30);  // below floor: ranked after the hog
  hog.pin(70);
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(modest.sheds, 0);
  EXPECT_EQ(hog.sheds, 1);

  // Refill the quota with the hog's regions all in use: the under-floor
  // tenant's idle region is reclaimed instead.
  hog.pin(pm.pin_headroom());
  hog.can_shed = false;
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(modest.sheds, 1);
  EXPECT_EQ(hog.sheds, 1);

  // Everything busy: nothing is shed and the request fails.
  modest.pin(pm.pin_headroom());
  modest.can_shed = false;
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_FALSE(arb.request_headroom(&starved));
  EXPECT_EQ(modest.sheds, 1);
  EXPECT_EQ(hog.sheds, 1);
}

TEST(PinArbiter, EqualOverageBreaksTiesByRegistrationOrder) {
  PhysicalMemory pm(128);
  pm.set_pin_quota(90);
  PinArbiter arb(pm);
  MockTenant starved(pm), first(pm), second(pm);
  arb.register_tenant(&starved, 1);  // floor 30
  const auto i1 = arb.register_tenant(&first, 1);
  arb.register_tenant(&second, 1);
  first.pin(45);   // overage 15
  second.pin(45);  // overage 15 -> tie, earlier id wins
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(first.sheds, 1);
  EXPECT_EQ(second.sheds, 0);
  EXPECT_EQ(arb.stats(i1).sheds_suffered, 1u);
}

TEST(PinArbiter, KeepsSheddingDownTheRankingWhenVictimsCannotYield) {
  PhysicalMemory pm(128);
  pm.set_pin_quota(100);
  PinArbiter arb(pm);
  MockTenant starved(pm), busy(pm), idle(pm);
  arb.register_tenant(&starved, 1);
  arb.register_tenant(&busy, 1);
  arb.register_tenant(&idle, 1);
  busy.pin(60);
  busy.can_shed = false;  // every region in use
  idle.pin(40);           // overage 7 over its 33 floor
  ASSERT_EQ(pm.pin_headroom(), 0u);
  EXPECT_TRUE(arb.request_headroom(&starved));
  EXPECT_EQ(busy.sheds, 0);
  EXPECT_EQ(idle.sheds, 1);
}

TEST(PinArbiter, GrantsImmediatelyWhenHeadroomAlreadyExists) {
  PhysicalMemory pm(64);
  pm.set_pin_quota(100);
  PinArbiter arb(pm);
  MockTenant t(pm), other(pm);
  const auto it = arb.register_tenant(&t, 1);
  arb.register_tenant(&other, 1);
  t.pin(10);
  EXPECT_TRUE(arb.request_headroom(&t));
  EXPECT_EQ(other.sheds, 0);
  EXPECT_EQ(arb.stats(it).grants, 1u);
}

TEST(PinArbiter, RejectsInvalidRegistrations) {
  PhysicalMemory pm(64);
  PinArbiter arb(pm);
  MockTenant t(pm);
  EXPECT_THROW(arb.register_tenant(nullptr, 1), std::invalid_argument);
  EXPECT_THROW(arb.register_tenant(&t, 0), std::invalid_argument);
}

// --- Host/PinManager integration -------------------------------------------

TEST(PinArbiterIntegration, StarvedTenantRecoversHeadroomFromIdleHog) {
  using namespace pinsim::core;
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
  // pinned but idle afterwards — well over its 150-page fair floor.
  send_one(hog, rx0);
  ASSERT_GT(a.memory().pinned_pages(), 200u);

  // The starved tenant now needs pages: the quota denies it, the arbiter
  // sheds the hog's idle region, and the transfer completes.
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
}  // namespace pinsim::mem
