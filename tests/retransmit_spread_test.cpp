// Retransmit timers spread instead of stampede. N endpoints that lose their
// frames at one instant must not retry in lockstep: each of the send (eager
// and RNDV), NOTIFY and pull-tick timers waits its nominal timeout t plus a
// seeded draw from [0, t/2), so the N retries land at N distinct delays,
// none before t and all before 1.5 t, and a second run of the same seeds
// reproduces every delay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "core/wire.hpp"
#include "obs/bus.hpp"

namespace pinsim::core {
namespace {

constexpr std::size_t kPairs = 8;
constexpr sim::Time kTimeout = 300 * sim::kMicrosecond;
constexpr std::size_t kRndv = 64 * 1024;

/// A switch that loses every frame of the packet types in `drop`, so the
/// test picks which timer has to recover.
struct DroppingFabric final : net::Fabric {
  explicit DroppingFabric(sim::Engine& eng) : net::Fabric(eng) {}
  void transmit(net::Frame frame) override {
    const PacketType type = decode(frame.payload).header.type;
    if (std::find(drop.begin(), drop.end(), type) != drop.end()) return;
    net::Fabric::transmit(std::move(frame));
  }
  std::vector<PacketType> drop;
};

StackConfig spread_stack() {
  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = kTimeout;
  stack.protocol.retransmit_backoff_max = 8 * kTimeout;
  stack.protocol.pull_retry_timeout = kTimeout;
  return stack;
}

/// kPairs processes on host A, each sending one message to its partner on
/// host B; every typed event is captured with its timestamp.
struct Rig {
  explicit Rig(std::vector<PacketType> drop) {
    bus.attach(&events);
    auto f = std::make_unique<DroppingFabric>(eng);
    f->drop = std::move(drop);
    fabric = std::move(f);
    Host::Config hc;
    hc.cores = kPairs + 1;  // one core per process: they post in lockstep
    hc.memory_frames = 16384;
    a = std::make_unique<Host>(eng, *fabric, hc, spread_stack());
    b = std::make_unique<Host>(eng, *fabric, hc, spread_stack());
    a->driver().set_bus(&bus);
    b->driver().set_bus(&bus);
    for (std::size_t i = 0; i < kPairs; ++i) {
      senders.push_back(&a->spawn_process());
      receivers.push_back(&b->spawn_process());
    }
  }

  /// Posts one `len`-byte message on every pair at the same instant and
  /// runs past the first retries.
  void exchange(std::size_t len, bool post_receives) {
    for (std::size_t i = 0; i < kPairs; ++i) {
      const mem::VirtAddr src = senders[i]->heap.malloc(len);
      reqs.push_back(senders[i]->lib.isend(receivers[i]->addr(), 7, src,
                                           len));
      if (!post_receives) continue;
      const mem::VirtAddr dst = receivers[i]->heap.malloc(len);
      reqs.push_back(
          receivers[i]->lib.irecv(7, ~std::uint64_t{0}, dst, len));
    }
    eng.run_until(eng.now() + 6 * kTimeout);
  }

  test::CaptureSink events;
  sim::Engine eng;
  obs::Bus bus{eng};
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Host> a, b;
  std::vector<Host::Process*> senders, receivers;
  std::vector<RequestPtr> reqs;
};

using EndpointKey = std::pair<std::uint32_t, std::uint8_t>;  // (node, ep)

/// Per endpoint, the time from its first `arm` event to its first `fire`
/// event after it: how long its first retransmit timer waited.
std::vector<sim::Time> first_waits(
    const Rig& rig, bool (*arm)(const obs::Event&),
    bool (*fire)(const obs::Event&)) {
  std::map<EndpointKey, sim::Time> armed;
  std::map<EndpointKey, sim::Time> waits;
  for (const obs::Event& e : rig.events.events) {
    const EndpointKey k{e.node, e.ep};
    if (waits.count(k) != 0) continue;
    if (armed.count(k) == 0) {
      if (arm(e)) armed.emplace(k, e.time);
    } else if (fire(e)) {
      waits.emplace(k, e.time - armed[k]);
    }
  }
  std::vector<sim::Time> out;
  for (const auto& [k, w] : waits) out.push_back(w);
  return out;
}

bool is_tx(const obs::Event& e, PacketType t) {
  return e.kind == obs::EventKind::kPktTx &&
         e.pkt == static_cast<std::uint8_t>(t);
}

/// One retransmit timer, the frames lost to make it fire, the traffic that
/// arms it, and the events that bracket its first wait.
struct Scenario {
  const char* name;
  std::vector<PacketType> drop;
  std::size_t len;
  bool post_receives;
  bool (*arm)(const obs::Event&);
  bool (*fire)(const obs::Event&);
};

const Scenario kScenarios[] = {
    {"eager_send", {PacketType::kEager}, 1024, false,
     [](const obs::Event& e) { return is_tx(e, PacketType::kEager); },
     [](const obs::Event& e) {
       return e.kind == obs::EventKind::kRetransmit;
     }},
    {"rndv_send", {PacketType::kRndv}, kRndv, true,
     [](const obs::Event& e) { return is_tx(e, PacketType::kRndv); },
     [](const obs::Event& e) {
       return e.kind == obs::EventKind::kRetransmit;
     }},
    // The NOTIFY timer re-sends the NOTIFY itself: its wait runs from the
    // first NOTIFY to the second.
    {"notify", {PacketType::kNotify}, kRndv, true,
     [](const obs::Event& e) { return is_tx(e, PacketType::kNotify); },
     [](const obs::Event& e) { return is_tx(e, PacketType::kNotify); }},
    {"pull_tick", {PacketType::kPullReply}, kRndv, true,
     [](const obs::Event& e) {
       return e.kind == obs::EventKind::kPullStart;
     },
     [](const obs::Event& e) {
       return e.kind == obs::EventKind::kPullRetry;
     }},
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class TimerSpread : public ::testing::TestWithParam<Scenario> {
 protected:
  std::vector<sim::Time> run() {
    const Scenario& s = GetParam();
    Rig rig(s.drop);
    rig.exchange(s.len, s.post_receives);
    return first_waits(rig, s.arm, s.fire);
  }
};

TEST_P(TimerSpread, SimultaneousLossesRetryAtDistinctSeededInstants) {
  const std::vector<sim::Time> waits = run();
  ASSERT_EQ(waits.size(), kPairs) << "every endpoint's timer must fire";
  for (const sim::Time w : waits) {
    EXPECT_GE(w, kTimeout) << "a retry fired before its nominal timeout";
    EXPECT_LT(w, kTimeout + kTimeout / 2) << "a retry waited past 1.5 t";
  }
  const std::set<sim::Time> distinct(waits.begin(), waits.end());
  EXPECT_EQ(distinct.size(), kPairs) << "retries collided in lockstep";
  EXPECT_EQ(run(), waits) << "the same seeds must give the same instants";
}

INSTANTIATE_TEST_SUITE_P(
    EveryTimer, TimerSpread, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pinsim::core
