// The abort-cause table, walked row by row: every cause is triggered
// through the endpoint API or an injected packet, and each abort must name
// its cause in the Status, move exactly its own per-cause counter (the
// causes summing to `aborts`) and carry the cause in its abort event.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "net/watchdog.hpp"
#include "obs/bus.hpp"
#include "obs/invariants.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr std::size_t kRndv = 64 * 1024;
constexpr mem::VirtAddr kUnmapped = 0x7000'0000'0000;  // outside any VMA

/// Short timers so every budget runs out within milliseconds.
StackConfig tight_stack() {
  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = 100 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 400 * sim::kMicrosecond;
  stack.protocol.retry_budget = 3;
  stack.protocol.pull_retry_timeout = 100 * sim::kMicrosecond;
  stack.protocol.pull_stall_budget = 5;
  return stack;
}

/// Two hosts on one fabric, every event captured and checked online. The
/// sinks and the bus outlive the hosts (teardown emits).
struct Rig {
  explicit Rig(StackConfig stack = tight_stack()) {
    bus.attach(&events);
    bus.attach(&checker);
    fabric = std::make_unique<net::Fabric>(eng);
    Host::Config hc;
    hc.memory_frames = 16384;
    a = std::make_unique<Host>(eng, *fabric, hc, stack);
    b = std::make_unique<Host>(eng, *fabric, hc, stack);
    pa = &a->spawn_process();
    pb = &b->spawn_process();
    a->driver().set_bus(&bus);
    b->driver().set_bus(&bus);
  }

  /// Injects a raw frame into host B's NIC as if A's endpoint 0 sent it.
  void inject_to_b(PacketBody body) {
    Packet p;
    p.header.type = packet_type(body);
    p.body = std::move(body);
    net::Frame f;
    f.src = a->nic().node_id();
    f.dst = b->nic().node_id();
    f.payload = encode(p);
    b->nic().deliver(std::move(f));
  }

  /// A rendezvous that host A never serves, matched by a posted receive on
  /// B backed by a declared region: B's pull can only stall or be aborted.
  void unserved_rendezvous(Completion done) {
    const mem::VirtAddr dst = pb->heap.malloc(kRndv);
    const RegionId region = pb->ep.declare_region({Segment{dst, kRndv}});
    (void)pb->ep.irecv(3, kAll, dst, kRndv, region, std::move(done));
    RndvBody rndv;
    rndv.match = 3;
    rndv.msg_len = kRndv;
    rndv.region = 12345;  // no such region on A: its pulls go unanswered
    rndv.seq = 77;
    inject_to_b(rndv);
  }

  void watchdogs() {
    a->enable_watchdog({}).add_peer(b->nic().node_id());
    b->enable_watchdog({}).add_peer(a->nic().node_id());
    a->watchdog()->start();
    b->watchdog()->start();
    eng.run_until(eng.now() + sim::kMillisecond);  // epochs learned
  }

  void run_for(sim::Time dt) { eng.run_until(eng.now() + dt); }

  test::CaptureSink events;
  obs::InvariantChecker checker;
  sim::Engine eng;
  obs::Bus bus{eng};
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Host> a, b;
  Host::Process* pa = nullptr;
  Host::Process* pb = nullptr;
};

/// The one request a scenario fails, observed at its completion: the
/// endpoint's counters are read there, so a crashed endpoint still counts.
struct Probe {
  Completion watch(Endpoint& e) {
    ep = &e;
    node = e.addr().node;
    ep_id = e.id();
    before = e.counters();
    return [this](Status s) {
      done = true;
      st = s;
      at = ep->counters();
    };
  }

  Endpoint* ep = nullptr;
  net::NodeId node = 0;
  std::uint8_t ep_id = 0;
  Counters before, at;
  bool done = false;
  Status st;
};

/// Fails one request with `cause`; false when the cause has no scenario.
bool trigger(AbortCause cause, Rig& rig, Probe& probe) {
  Endpoint& a = rig.pa->ep;
  const EndpointAddr to_b = rig.pb->addr();
  const mem::VirtAddr buf = rig.pa->heap.malloc(kRndv);
  switch (cause) {
    case AbortCause::kNone:
      return false;
    case AbortCause::kRetryBudget:  // every frame lost
      rig.fabric->faults().set_plan({.loss = 1.0});
      (void)a.isend_eager(to_b, 1, buf, 1024, probe.watch(a));
      break;
    case AbortCause::kPinFailed: {  // declared fine, fails to pin (§3.1)
      const RegionId r = a.declare_region({Segment{kUnmapped, kRndv}});
      (void)a.isend_rndv(to_b, 2, r, kRndv, probe.watch(a));
      break;
    }
    case AbortCause::kPullStall:
      rig.unserved_rendezvous(probe.watch(rig.pb->ep));
      break;
    case AbortCause::kPinStarved:  // the landing region cannot pin at all
      rig.b->memory().set_pin_quota(0);
      rig.unserved_rendezvous(probe.watch(rig.pb->ep));
      break;
    case AbortCause::kNoRegion: {  // rendezvous into an eager-sized buffer
      const mem::VirtAddr dst = rig.pb->heap.malloc(128);
      (void)rig.pb->ep.irecv(4, kAll, dst, 128, kInvalidRegion,
                             probe.watch(rig.pb->ep));
      RndvBody rndv;
      rndv.match = 4;
      rndv.msg_len = kRndv;
      rndv.region = 2;
      rndv.seq = 8;
      rig.inject_to_b(rndv);
      break;
    }
    case AbortCause::kBadAddress:
      (void)a.isend_eager(to_b, 5, kUnmapped, 1024, probe.watch(a));
      break;
    case AbortCause::kRemoteAbort:
      rig.unserved_rendezvous(probe.watch(rig.pb->ep));
      rig.run_for(50 * sim::kMicrosecond);  // the pull is running
      rig.inject_to_b(AbortBody{77});
      break;
    case AbortCause::kPeerDead:  // B's node falls silent
      rig.watchdogs();
      rig.fabric->set_port_up(rig.b->nic().node_id(), false);
      (void)a.isend_eager(to_b, 6, buf, 1024, probe.watch(a));
      break;
    case AbortCause::kPeerRestarted:  // B's slot closes under a waiting send
      rig.watchdogs();
      (void)a.isend_rndv(to_b, 7, a.declare_region({Segment{buf, kRndv}}),
                         kRndv, probe.watch(a));
      rig.run_for(100 * sim::kMicrosecond);
      rig.b->kill_process(0);
      break;
    case AbortCause::kCrash: {  // B dies with a send in flight
      Endpoint& b = rig.pb->ep;
      const mem::VirtAddr src = rig.pb->heap.malloc(kRndv);
      (void)b.isend_rndv(rig.pa->addr(), 8,
                         b.declare_region({Segment{src, kRndv}}), kRndv,
                         probe.watch(b));
      rig.run_for(100 * sim::kMicrosecond);
      rig.b->kill_process(0);
      break;
    }
    case AbortCause::kCancelled:  // before the submission copy ran
      EXPECT_TRUE(a.cancel_send(a.isend_eager(to_b, 9, buf, 1024,
                                              probe.watch(a))));
      break;
  }
  for (int i = 0; i < 1000 && !probe.done; ++i) {
    rig.run_for(100 * sim::kMicrosecond);
  }
  return true;
}

std::vector<AbortCause> every_cause() {
  std::vector<AbortCause> out;
  for (std::size_t c = 1; c < std::size(kAbortCauseRows); ++c) {
    out.push_back(static_cast<AbortCause>(c));
  }
  return out;
}

class EveryCause : public ::testing::TestWithParam<AbortCause> {};

TEST_P(EveryCause, NamedCountedAndEmitted) {
  const AbortCause cause = GetParam();
  const auto code = static_cast<std::size_t>(cause);
  Rig rig(cause == AbortCause::kPeerDead ||
                  cause == AbortCause::kPeerRestarted
              ? overlapped_cache_config()  // no budget beats the watchdog
              : tight_stack());
  Probe probe;
  ASSERT_TRUE(trigger(cause, rig, probe)) << "no scenario for this cause";
  ASSERT_TRUE(probe.done) << "the request never completed";

  EXPECT_FALSE(probe.st.ok);
  EXPECT_EQ(probe.st.cause, cause);
  EXPECT_EQ(probe.st.truncated, cause == AbortCause::kNoRegion);

  // Exactly this cause's counter moved, once, and the causes sum to aborts.
  EXPECT_EQ(probe.at.aborts - probe.before.aborts, 1u);
  std::uint64_t by_cause = 0;
  for (std::size_t k = 1; k < std::size(kAbortCauseRows); ++k) {
    const AbortCauseRow& row = kAbortCauseRows[k];
    EXPECT_EQ(probe.at.*row.counter - probe.before.*row.counter,
              k == code ? 1u : 0u)
        << row.name;
    by_cause += probe.at.*row.counter;
  }
  EXPECT_EQ(by_cause, probe.at.aborts);

  // The abort event names the cause; a receive that never became a pull
  // has none (kRecvAbort closes a pull).
  std::vector<obs::Event> aborts;
  for (const obs::Event& e : rig.events.events) {
    if ((e.kind == obs::EventKind::kSendAbort ||
         e.kind == obs::EventKind::kRecvAbort) &&
        e.node == probe.node && e.ep == probe.ep_id) {
      aborts.push_back(e);
    }
  }
  if (cause == AbortCause::kNoRegion) {
    EXPECT_TRUE(aborts.empty());
  } else {
    ASSERT_EQ(aborts.size(), 1u);
    EXPECT_EQ(aborts[0].len, code);
    ASSERT_NE(aborts[0].label, nullptr);
    EXPECT_STREQ(aborts[0].label, abort_cause_name(cause));
  }
  EXPECT_EQ(rig.checker.violation_count(), 0u) << rig.checker.report();
}

INSTANTIATE_TEST_SUITE_P(
    AbortCauseTable, EveryCause, ::testing::ValuesIn(every_cause()),
    [](const ::testing::TestParamInfo<AbortCause>& info) {
      return std::string(abort_cause_name(info.param));
    });

}  // namespace
}  // namespace pinsim::core
