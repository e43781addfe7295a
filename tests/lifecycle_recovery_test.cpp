// Crash/restart lifecycle: the MMU-notifier teardown path reclaims every
// pinned page back to the non-tenant baseline, the watchdog turns node
// silence into peer_dead failures and PeerDeadError fast-fails, epoch
// fencing drops frames addressed to (or sent by) a dead incarnation, and a
// restarted process re-establishes traffic once the new epoch is announced.
// Plus: the seeded crash schedule itself is bit-deterministic.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "net/fabric.hpp"
#include "net/watchdog.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/lifecycle.hpp"

namespace pinsim {
namespace {

core::StackConfig test_stack() {
  core::StackConfig stack = core::overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 1 * sim::kMillisecond;
  stack.protocol.retry_budget = 4;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  return stack;
}

std::vector<std::byte> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 2654435761u + salt) >> 13);
  }
  return v;
}

/// Two hosts on one fabric; hostB carries the victim (slot 0) and a
/// bystander whose cached pinned region keeps the reclaim baseline nonzero.
struct Rig {
  explicit Rig(core::StackConfig stack = test_stack()) {
    fabric = std::make_unique<net::Fabric>(eng);
    core::Host::Config hc;
    hc.name = "hostA";
    hostA = std::make_unique<core::Host>(eng, *fabric, hc, stack);
    hc.name = "hostB";
    hostB = std::make_unique<core::Host>(eng, *fabric, hc, stack);
    surv = &hostA->spawn_process();
    hostB->spawn_process();  // victim: hostB slot 0
    byst = &hostB->spawn_process();
  }

  /// One bystander rendezvous send; its region stays pinned in the cache.
  void warm_bystander() {
    const std::size_t n = 256 * 1024;
    const mem::VirtAddr src = byst->heap.malloc(n);
    const mem::VirtAddr dst = surv->heap.malloc(n);
    byst->as.write(src, pattern(n, 0xb5));
    auto r = surv->lib.irecv(0xb00, ~0ull, dst, n);
    auto s = byst->lib.isend(surv->addr(), 0xb00, src, n);
    run_for(20 * sim::kMillisecond);
    ASSERT_TRUE(r->completed() && s->completed());
    ASSERT_TRUE(r->status().ok && s->status().ok);
  }

  /// One survivor<->victim eager exchange so both drivers learn the other
  /// side's endpoint epochs from data frames.
  void warm_victim(std::uint64_t match) {
    core::Host::Process& vict = hostB->process(0);
    const std::size_t n = 2048;
    const mem::VirtAddr src = surv->heap.malloc(n);
    const mem::VirtAddr dst = vict.heap.malloc(n);
    surv->as.write(src, pattern(n, 0x77));
    auto r = vict.lib.irecv(match, ~0ull, dst, n);
    auto s = surv->lib.isend(vict.addr(), match, src, n);
    run_for(20 * sim::kMillisecond);
    ASSERT_TRUE(r->completed() && s->completed());
    ASSERT_TRUE(r->status().ok && s->status().ok);
  }

  void enable_watchdogs(bool start) {
    net::Watchdog::Config wc;
    hostA->enable_watchdog(wc).add_peer(hostB->nic().node_id());
    hostB->enable_watchdog(wc).add_peer(hostA->nic().node_id());
    if (start) {
      hostA->watchdog()->start();
      hostB->watchdog()->start();
    }
  }

  void run_for(sim::Time dt) { eng.run_until(eng.now() + dt); }

  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<core::Host> hostA, hostB;
  core::Host::Process* surv = nullptr;
  core::Host::Process* byst = nullptr;
};

TEST(CrashRecovery, KillMidTransferReclaimsPinnedPagesToBaseline) {
  Rig rig;
  rig.warm_bystander();
  const std::uint64_t baseline = rig.hostB->memory().pinned_pages();
  ASSERT_GT(baseline, 0u);  // the proof must not pass vacuously

  // Victim starts a rendezvous send; run until its pins materialize.
  core::Host::Process& vict = rig.hostB->process(0);
  const std::size_t n = 512 * 1024;
  const mem::VirtAddr src = vict.heap.malloc(n);
  const mem::VirtAddr dst = rig.surv->heap.malloc(n);
  vict.as.write(src, pattern(n, 0x1234));
  auto r = rig.surv->lib.irecv(0xd0, ~0ull, dst, n);
  auto s = vict.lib.isend(rig.surv->addr(), 0xd0, src, n);
  bool pinned = false;
  for (int i = 0; i < 500 && !pinned; ++i) {
    rig.run_for(20 * sim::kMicrosecond);
    pinned = rig.hostB->memory().pinned_pages() > baseline;
  }
  ASSERT_TRUE(pinned) << "victim never pinned anything";

  // SIGKILL. The victim's request handle completes locally (no wire
  // traffic) and every one of its pinned pages is reclaimed through the
  // MMU-notifier sweep — the host is back at the bystander-only baseline.
  rig.hostB->kill_process(0);
  EXPECT_TRUE(s->completed());
  EXPECT_EQ(rig.hostB->memory().pinned_pages(), baseline);
  EXPECT_FALSE(rig.hostB->process_alive(0));

  // The survivor's receive must resolve too (pull retries abort) — a dead
  // sender may cost time, never a hang.
  for (int i = 0; i < 2000 && !r->completed(); ++i) {
    rig.run_for(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(r->completed());
  EXPECT_FALSE(r->status().ok);
}

TEST(CrashRecovery, KillDuringFirstPinChunkClosesThePinJobBeforeTheCrash) {
  Rig rig;
  obs::Bus bus(rig.eng);
  test::CaptureSink capture;
  obs::MetricsSampler sampler;
  bus.attach(&capture);
  bus.attach(&sampler);
  rig.hostB->driver().set_bus(&bus);
  struct Detach {
    core::Host& host;
    ~Detach() { host.driver().set_bus(nullptr); }
  } detach{*rig.hostB};

  // The victim posts a rendezvous send: its region's pin job starts and the
  // first chunk's cost is queued on the core. Kill before it lands.
  core::Host::Process& vict = rig.hostB->process(0);
  const std::size_t n = 512 * 1024;
  const mem::VirtAddr src = vict.heap.malloc(n);
  const mem::VirtAddr dst = rig.surv->heap.malloc(n);
  auto r = rig.surv->lib.irecv(0xd1, ~0ull, dst, n);
  auto s = vict.lib.isend(rig.surv->addr(), 0xd1, src, n);
  std::size_t start = test::CaptureSink::npos;
  for (int i = 0; i < 1000 && start == test::CaptureSink::npos; ++i) {
    rig.run_for(100);
    start = capture.find_first(obs::EventKind::kPinStart);
  }
  ASSERT_NE(start, test::CaptureSink::npos);
  ASSERT_EQ(capture.find_first(obs::EventKind::kPinPages),
            test::CaptureSink::npos);
  rig.hostB->kill_process(0);
  rig.run_for(5 * sim::kMillisecond);

  // The cancelled job closes in the stream, before the crash that ends its
  // incarnation, so no sink carries it into the next one.
  const std::size_t cancel =
      capture.find_first(obs::EventKind::kPinFail, "cancelled");
  const std::size_t crash = capture.find_first(obs::EventKind::kLifeCrash);
  ASSERT_NE(cancel, test::CaptureSink::npos);
  ASSERT_NE(crash, test::CaptureSink::npos);
  EXPECT_LT(cancel, crash);
  EXPECT_EQ(capture.events[cancel].region, capture.events[start].region);
  EXPECT_EQ(capture.events[cancel].ep, capture.events[start].ep);

  bus.finalize();
  ASSERT_FALSE(sampler.samples().empty());
  EXPECT_EQ(sampler.samples().back().inflight_pin_jobs, 0u);
}

TEST(CrashRecovery, RestartReusesSlotWithBumpedEpochAndHistory) {
  Rig rig;
  rig.warm_bystander();
  const std::uint8_t ep_id = rig.hostB->process(0).ep.id();
  const std::uint8_t epoch0 = rig.hostB->driver().slot_epoch(ep_id);

  rig.hostB->kill_process(0);
  core::Host::Process& fresh = rig.hostB->restart_process(0);
  EXPECT_EQ(fresh.ep.id(), ep_id);  // same slot
  EXPECT_EQ(rig.hostB->driver().slot_epoch(ep_id),
            static_cast<std::uint8_t>(epoch0 + 1));
  // Crash history survives the incarnation change via the slot.
  EXPECT_EQ(fresh.lib.counters().lifecycle_crashes, 1u);
  EXPECT_EQ(fresh.lib.counters().lifecycle_restarts, 1u);
}

TEST(CrashRecovery, WatchdogSilenceFailsInflightAndThrowsPeerDead) {
  Rig rig;
  rig.enable_watchdogs(/*start=*/true);
  rig.warm_bystander();
  rig.warm_victim(0x10);
  core::Host::Process& vict = rig.hostB->process(0);

  // Cut hostB's port, then post a rendezvous send into the silence.
  const std::size_t n = 512 * 1024;
  const mem::VirtAddr src = rig.surv->heap.malloc(n);
  rig.surv->as.write(src, pattern(n, 0x9));
  rig.fabric->set_port_up(rig.hostB->nic().node_id(), false);
  auto s = rig.surv->lib.isend(vict.addr(), 0x11, src, n);
  rig.run_for(1 * sim::kMillisecond);  // >> miss_threshold * period

  ASSERT_TRUE(rig.hostA->driver().peer_dead(rig.hostB->nic().node_id()));
  ASSERT_TRUE(s->completed());
  EXPECT_FALSE(s->status().ok);
  EXPECT_EQ(s->status().cause, core::AbortCause::kPeerDead);
  EXPECT_GT(rig.surv->lib.counters().heartbeat_timeouts, 0u);

  // New sends fail fast in the caller's context.
  EXPECT_THROW(
      { auto t = rig.surv->lib.isend(vict.addr(), 0x12, src, 2048); },
      core::PeerDeadError);

  // Link back: the next heartbeat revives the peer and traffic flows again.
  rig.fabric->set_port_up(rig.hostB->nic().node_id(), true);
  rig.run_for(1 * sim::kMillisecond);
  EXPECT_FALSE(rig.hostA->driver().peer_dead(rig.hostB->nic().node_id()));
  EXPECT_GT(rig.hostA->watchdog()->stats().deaths, 0u);
  EXPECT_GT(rig.hostA->watchdog()->stats().revivals, 0u);
  rig.warm_victim(0x13);  // completes bit-exact or the ASSERT inside fires
}

TEST(CrashRecovery, StaleEpochFramesAreFencedThenNewEpochReestablishes) {
  Rig rig;
  // Attached but not started: epoch learning comes from data frames only,
  // so the survivor cannot learn the post-restart epoch until we say so.
  rig.enable_watchdogs(/*start=*/false);
  rig.warm_bystander();
  rig.warm_victim(0x20);

  rig.hostB->kill_process(0);
  core::Host::Process& fresh = rig.hostB->restart_process(0);

  // The survivor still addresses the dead incarnation: every frame carries
  // the stale dst_epoch and the new incarnation fences it. The send burns
  // its retry budget and fails — it never corrupts the fresh endpoint.
  const mem::VirtAddr src = rig.surv->heap.malloc(2048);
  rig.surv->as.write(src, pattern(2048, 0x21));
  auto s = rig.surv->lib.isend(fresh.addr(), 0x22, src, 2048);
  rig.run_for(20 * sim::kMillisecond);
  ASSERT_TRUE(s->completed());
  EXPECT_FALSE(s->status().ok);
  EXPECT_GT(fresh.lib.counters().fenced_stale_frames, 0u);
  EXPECT_GT(rig.surv->lib.counters().retry_exhausted, 0u);

  // Heartbeat announcements teach the survivor the new incarnation; the
  // same destination now accepts traffic.
  rig.hostA->watchdog()->start();
  rig.hostB->watchdog()->start();
  rig.run_for(1 * sim::kMillisecond);
  rig.warm_victim(0x23);
}

TEST(CrashRecovery, BothEndsRestartedLearnEachOthersEpochFromFencedFrames) {
  Rig rig;
  // Attached but not started: each side learns the other's epoch from data
  // frames only, as between hosts that exchange no heartbeats.
  rig.enable_watchdogs(/*start=*/false);
  rig.warm_victim(0x30);

  rig.hostA->kill_process(0);
  rig.hostB->kill_process(0);
  core::Host::Process& a = rig.hostA->restart_process(0);
  core::Host::Process& b = rig.hostB->restart_process(0);
  const auto send = [](core::Host::Process& from, core::Host::Process& to,
                       std::uint64_t match) {
    const std::size_t n = 2048;
    const mem::VirtAddr src = from.heap.malloc(n);
    from.as.write(src, pattern(n, static_cast<std::uint32_t>(match)));
    return from.lib.isend(to.addr(), match, src, n);
  };

  // Both new incarnations address each other's dead one, so every frame
  // either sends is fenced. The fenced frame still names its sender's new
  // epoch: each side learns it and fails its own send to the old
  // incarnation (peer_restarted), instead of both burning their retry
  // budgets against a fence neither can see past.
  auto to_b = send(a, b, 0x31);
  auto to_a = send(b, a, 0x32);
  rig.run_for(20 * sim::kMillisecond);
  ASSERT_TRUE(to_b->completed() && to_a->completed());
  EXPECT_EQ(to_b->status().cause, core::AbortCause::kPeerRestarted);
  EXPECT_EQ(to_a->status().cause, core::AbortCause::kPeerRestarted);
  EXPECT_GT(a.lib.counters().fenced_stale_frames, 0u);
  EXPECT_GT(b.lib.counters().fenced_stale_frames, 0u);
  EXPECT_EQ(a.lib.counters().retry_exhausted, 0u);
  EXPECT_EQ(b.lib.counters().retry_exhausted, 0u);

  // Each side now knows the other's incarnation: traffic lands both ways.
  const mem::VirtAddr at_b = b.heap.malloc(2048);
  const mem::VirtAddr at_a = a.heap.malloc(2048);
  auto rb = b.lib.irecv(0x33, ~0ull, at_b, 2048);
  auto ra = a.lib.irecv(0x34, ~0ull, at_a, 2048);
  auto sb = send(a, b, 0x33);
  auto sa = send(b, a, 0x34);
  rig.run_for(20 * sim::kMillisecond);
  for (const auto* r : {&rb, &ra, &sb, &sa}) {
    ASSERT_TRUE((*r)->completed());
    EXPECT_TRUE((*r)->status().ok);
  }
}

TEST(CrashRecovery, SeededCrashScheduleIsDeterministic) {
  struct Outcome {
    std::uint64_t crashes = 0, restarts = 0, reclaimed = 0;
    std::uint64_t processed = 0, beats = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [] {
    Rig rig;
    rig.enable_watchdogs(/*start=*/true);
    rig.warm_bystander();
    sim::LifecycleInjector::Plan lp;
    lp.seed = 0xfeed;
    lp.uptime_min = 100 * sim::kMicrosecond;
    lp.uptime_max = 300 * sim::kMicrosecond;
    lp.downtime_min = 60 * sim::kMicrosecond;
    lp.downtime_max = 150 * sim::kMicrosecond;
    lp.max_crashes = 5;
    sim::LifecycleInjector inj(rig.eng, lp);
    sim::LifecycleInjector::Hooks hooks;
    hooks.crash = [&rig](std::size_t) {
      if (rig.hostB->process_alive(0)) rig.hostB->kill_process(0);
    };
    hooks.restart = [&rig](std::size_t) {
      if (!rig.hostB->process_alive(0)) rig.hostB->restart_process(0);
    };
    inj.set_hooks(hooks);
    inj.start();
    rig.run_for(5 * sim::kMillisecond);
    EXPECT_TRUE(inj.quiescent());
    Outcome o;
    o.crashes = inj.stats().crashes;
    o.restarts = inj.stats().restarts;
    o.reclaimed =
        rig.hostB->process(0).lib.counters().lifecycle_reclaimed_pages;
    o.processed = rig.eng.processed();
    o.beats = rig.hostA->watchdog()->stats().beats_heard;
    return o;
  };
  const Outcome a = run_once();
  const Outcome b = run_once();
  EXPECT_EQ(a.crashes, 5u);
  EXPECT_EQ(a.restarts, 5u);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace pinsim
