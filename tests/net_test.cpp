#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "capture_sink.hpp"
#include "cpu/core.hpp"
#include "net/fabric.hpp"
#include "net/frame.hpp"
#include "net/nic.hpp"
#include "net/switch_port.hpp"
#include "obs/bus.hpp"
#include "obs/lifecycle.hpp"
#include "sim/engine.hpp"

namespace pinsim::net {
namespace {

Frame make_frame(NodeId dst, const std::string& body) {
  Frame f;
  f.dst = dst;
  f.payload.resize(body.size());
  std::memcpy(f.payload.data(), body.data(), body.size());
  return f;
}

Frame make_frame(NodeId dst, std::size_t size) {
  Frame f;
  f.dst = dst;
  f.payload.assign(size, std::byte{0xab});
  return f;
}

struct TwoNodeFixture : ::testing::Test {
  TwoNodeFixture()
      : fabric(eng, fabric_cfg()),
        core_a(eng, "a0"),
        core_b(eng, "b0"),
        nic_a(eng, fabric, core_a),
        nic_b(eng, fabric, core_b) {}

  static Fabric::Config fabric_cfg() {
    Fabric::Config cfg;
    cfg.latency = 2 * sim::kMicrosecond;
    return cfg;
  }

  sim::Engine eng;
  Fabric fabric;
  cpu::Core core_a, core_b;
  Nic nic_a, nic_b;
};

TEST_F(TwoNodeFixture, NodeIdsAreSequential) {
  EXPECT_EQ(nic_a.node_id(), 0u);
  EXPECT_EQ(nic_b.node_id(), 1u);
}

TEST_F(TwoNodeFixture, FrameArrivesIntactAfterLatencyAndSerialization) {
  std::string received;
  sim::Time arrival = 0;
  nic_b.set_rx_handler([&](Frame&& f) {
    received.assign(reinterpret_cast<const char*>(f.payload.data()),
                    f.payload.size());
    arrival = eng.now();
  });
  ASSERT_TRUE(nic_a.send(make_frame(nic_b.node_id(), "over the wire")));
  eng.run();
  EXPECT_EQ(received, "over the wire");
  // Egress serialization + latency + ingress serialization + rx BH overhead.
  const sim::Time wire =
      fabric.serialization_time(Frame{0, 0, std::vector<std::byte>(46)}
                                    .wire_bytes());
  const sim::Time expected = 2 * wire + fabric.latency() + 1000;
  EXPECT_EQ(arrival, expected);
}

TEST_F(TwoNodeFixture, SerializationTimeMatchesLineRate) {
  // 10 Gb/s == 1.25 bytes/ns: 1250 wire bytes take exactly 1 µs.
  EXPECT_EQ(fabric.serialization_time(1250), sim::kMicrosecond);
  // A full 9000-byte jumbo frame: (9000+38)/1.25 = 7230.4 ns.
  Frame f = make_frame(0, std::size_t{9000});
  EXPECT_EQ(fabric.serialization_time(f.wire_bytes()), 7230u);
}

TEST_F(TwoNodeFixture, SmallFramesArePaddedToMinimum) {
  Frame tiny = make_frame(0, "x");
  EXPECT_EQ(tiny.wire_bytes(), kMinPayload + kEthernetOverhead);
}

TEST_F(TwoNodeFixture, FramesFromOneSenderArriveInOrder) {
  std::vector<int> order;
  nic_b.set_rx_handler([&](Frame&& f) {
    order.push_back(static_cast<int>(f.payload[0]));
  });
  for (int i = 0; i < 16; ++i) {
    Frame f;
    f.dst = nic_b.node_id();
    f.payload.assign(4096, static_cast<std::byte>(i));
    ASSERT_TRUE(nic_a.send(std::move(f)));
  }
  eng.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(TwoNodeFixture, BackToBackFramesRespectLineRate) {
  // N jumbo frames can't arrive faster than the wire can carry them.
  sim::Time last_arrival = 0;
  int count = 0;
  nic_b.set_rx_handler([&](Frame&&) {
    last_arrival = eng.now();
    ++count;
  });
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(nic_a.send(make_frame(nic_b.node_id(), std::size_t{8192})));
  }
  eng.run();
  EXPECT_EQ(count, kFrames);
  const double goodput =
      static_cast<double>(kFrames * 8192) / sim::to_seconds(last_arrival);
  // Must be below the 1.25 GB/s line rate but reasonably close (overheads).
  EXPECT_LT(goodput, 1.25e9);
  EXPECT_GT(goodput, 1.1e9);
}

TEST_F(TwoNodeFixture, TxRingOverflowDropsFrames) {
  Nic::Config cfg;
  cfg.tx_ring = 4;
  cpu::Core core_c(eng, "c0");
  Nic small(eng, fabric, core_c, cfg);
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    if (small.send(make_frame(nic_b.node_id(), std::size_t{8192}))) ++sent;
  }
  // One serializing + 4 queued = 5 accepted.
  EXPECT_EQ(sent, 5);
  EXPECT_EQ(small.stats().tx_ring_drops, 5u);
  eng.run();
}

TEST_F(TwoNodeFixture, RxOverflowDropsWhenCoreCannotDrain) {
  // Block receiver BH processing with an endless higher-load: rx ring of 2.
  Nic::Config cfg;
  cfg.rx_ring = 2;
  cpu::Core core_c(eng, "c0");
  Nic tiny_rx(eng, fabric, core_c, cfg);
  // Occupy the core so BH jobs queue but never start.
  core_c.consume(cpu::Priority::kBottomHalf, 10 * sim::kSecond);
  int processed = 0;
  tiny_rx.set_rx_handler([&](Frame&&) { ++processed; });
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(nic_a.send(make_frame(tiny_rx.node_id(), std::size_t{1024})));
  }
  eng.run_until(sim::kMillisecond);
  EXPECT_EQ(processed, 0);
  EXPECT_EQ(tiny_rx.stats().rx_ring_drops, 6u);  // 2 held, 6 dropped
}

TEST_F(TwoNodeFixture, ConcurrentSendersShareReceiverIngress) {
  cpu::Core core_c(eng, "c0");
  Nic nic_c(eng, fabric, core_c);
  sim::Time finish = 0;
  std::size_t received_bytes = 0;
  nic_b.set_rx_handler([&](Frame&& f) {
    received_bytes += f.payload.size();
    finish = eng.now();
  });
  constexpr int kEach = 32;
  for (int i = 0; i < kEach; ++i) {
    ASSERT_TRUE(nic_a.send(make_frame(nic_b.node_id(), std::size_t{8192})));
    ASSERT_TRUE(nic_c.send(make_frame(nic_b.node_id(), std::size_t{8192})));
  }
  eng.run();
  EXPECT_EQ(received_bytes, 2u * kEach * 8192);
  const double goodput =
      static_cast<double>(received_bytes) / sim::to_seconds(finish);
  // Two 10G senders into one 10G port: aggregate capped by the port.
  EXPECT_LT(goodput, 1.25e9);
}

// Bursts of growing size, each sent while the previous one is still
// serializing: the tx ring wraps with its head mid-buffer and grows there.
TEST_F(TwoNodeFixture, TxRingStaysFifoAcrossWrapAndGrowth) {
  std::vector<int> got;
  nic_b.set_rx_handler(
      [&](Frame&& f) { got.push_back(static_cast<int>(f.payload[0])); });
  std::vector<int> sent;
  for (int burst = 1; burst <= 6; ++burst) {
    for (int i = 0; i < 3 * burst; ++i) {
      Frame f = make_frame(1, 1000);
      f.payload[0] = static_cast<std::byte>(sent.size());
      sent.push_back(static_cast<int>(sent.size()));
      ASSERT_TRUE(nic_a.send(std::move(f)));
    }
    eng.run_until(eng.now() + 2 * sim::kMicrosecond);  // ~2 frames leave
  }
  eng.run();
  EXPECT_EQ(got, sent);
}

TEST(SwitchPortQueue, StaysFifoAcrossWrapAndGrowth) {
  sim::Engine eng;
  SwitchPort port(eng, SwitchPort::Config{10.0, 1000});
  std::vector<int> got;
  port.set_drain_handler([&](Frame&& f, sim::Time) {
    got.push_back(static_cast<int>(f.payload[0]));
  });
  std::vector<int> sent;
  for (int burst = 1; burst <= 6; ++burst) {
    for (int i = 0; i < 3 * burst; ++i) {
      Frame f = make_frame(1, 1000);
      f.payload[0] = static_cast<std::byte>(sent.size());
      sent.push_back(static_cast<int>(sent.size()));
      ASSERT_TRUE(port.offer(std::move(f)));
    }
    eng.run_until(eng.now() + 2 * sim::kMicrosecond);  // ~2 frames drain
    EXPECT_LT(got.size(), sent.size());  // a backlog carries over
  }
  eng.run();
  EXPECT_EQ(got, sent);
}

TEST(FabricLoss, RandomDropsAreApplied) {
  sim::Engine eng;
  Fabric::Config cfg;
  cfg.seed = 7;
  Fabric fabric(eng, cfg);
  fabric.faults().set_plan({.loss = 0.5});
  cpu::Core core_a(eng, "a"), core_b(eng, "b");
  Nic nic_a(eng, fabric, core_a), nic_b(eng, fabric, core_b);
  int received = 0;
  nic_b.set_rx_handler([&](Frame&&) { ++received; });
  constexpr int kFrames = 400;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(nic_a.send(make_frame(nic_b.node_id(), std::size_t{1024})));
  }
  eng.run();
  EXPECT_GT(received, kFrames / 3);
  EXPECT_LT(received, 2 * kFrames / 3);
  EXPECT_EQ(fabric.frames_dropped() + fabric.frames_delivered(),
            static_cast<std::uint64_t>(kFrames));
}

// A NIC reset is a lifecycle event: the recorder counts it, and its `len`
// is the number of TX frames the reset dropped.
TEST(NicReset, EmitsOneLifecycleEventWithTheDroppedTxFrames) {
  sim::Engine eng;
  obs::LifecycleRecorder life;
  test::CaptureSink capture;
  obs::Bus bus(eng);  // outlives the fabric, which unregisters from it
  bus.attach(&life);
  bus.attach(&capture);
  Fabric fabric(eng);
  fabric.set_bus(&bus);
  cpu::Core core_a(eng, "a"), core_b(eng, "b");
  Nic nic_a(eng, fabric, core_a), nic_b(eng, fabric, core_b);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nic_a.send(make_frame(nic_b.node_id(), std::size_t{1024})));
  }
  const std::size_t lost = nic_a.reset();
  EXPECT_EQ(lost, 3u);  // two queued, one mid-serialization
  EXPECT_EQ(life.totals().nic_resets, 1u);
  const std::size_t at = capture.find_first(obs::EventKind::kLifeNicReset);
  ASSERT_NE(at, test::CaptureSink::npos);
  EXPECT_EQ(capture.events[at].node, nic_a.node_id());
  EXPECT_EQ(capture.events[at].len, lost);
  eng.run();
}

TEST(IngressSharing, SimultaneousSendersSerializeAtPortLineRate) {
  // Several senders blasting one receiver share its ingress port: the
  // frames clock in one at a time at line rate, in deterministic
  // (attach-order) sequence — the incast primitive the cluster topology's
  // bounded queues build on.
  sim::Engine eng;
  Fabric fabric(eng);
  cpu::Core rx_core(eng, "rx");
  cpu::Core tx_core0(eng, "s0"), tx_core1(eng, "s1"), tx_core2(eng, "s2");
  Nic rx(eng, fabric, rx_core);
  Nic tx0(eng, fabric, tx_core0), tx1(eng, fabric, tx_core1),
      tx2(eng, fabric, tx_core2);
  std::vector<std::pair<sim::Time, int>> arrivals;
  rx.set_rx_handler([&](Frame&& f) {
    arrivals.emplace_back(eng.now(), static_cast<int>(f.payload[0]));
  });
  Nic* senders[] = {&tx0, &tx1, &tx2};
  for (int s = 0; s < 3; ++s) {
    Frame f;
    f.dst = rx.node_id();
    f.payload.assign(8192, static_cast<std::byte>(s));
    ASSERT_TRUE(senders[static_cast<std::size_t>(s)]->send(std::move(f)));
  }
  eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const sim::Time wire = fabric.serialization_time(
      Frame{0, 0, std::vector<std::byte>(8192)}.wire_bytes());
  // All three finish egress together; the shared ingress then serializes
  // them back to back — consecutive arrivals exactly one wire time apart.
  const sim::Time first = 2 * wire + fabric.latency() + 1000;
  for (int s = 0; s < 3; ++s) {
    const auto& [t, who] = arrivals[static_cast<std::size_t>(s)];
    EXPECT_EQ(who, s) << "ingress order must follow attach order";
    EXPECT_EQ(t, first + static_cast<sim::Time>(s) * wire);
  }
}

TEST(FabricErrors, UnknownDestinationThrows) {
  sim::Engine eng;
  Fabric fabric(eng);
  Frame f;
  f.dst = 42;
  EXPECT_THROW(fabric.transmit(std::move(f)), std::invalid_argument);
}

TEST(FabricErrors, NonPositiveBandwidthRejected) {
  sim::Engine eng;
  Fabric::Config cfg;
  cfg.bandwidth_gbps = 0.0;
  EXPECT_THROW(Fabric(eng, cfg), std::invalid_argument);
}

TEST(FramePool, FramesDroppedOnSwitchOverflowReturnToThePool) {
  // Empty the pool first, so its retained-buffer cap cannot mask a release.
  mem::BufferPool& pool = frame_buffers();
  std::vector<std::vector<std::byte>> held;
  while (pool.retained() > 0) held.push_back(pool.acquire_for_overwrite(0));

  sim::Engine eng;
  SwitchPort port(eng, SwitchPort::Config{10.0, 2});
  constexpr int kOffers = 7;
  for (int i = 0; i < kOffers; ++i) {
    (void)port.offer(Frame{0, 1, std::vector<std::byte>(1500)});
  }
  const std::uint64_t dropped = port.stats().overflow_drops;
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(kOffers) - port.capacity());
  EXPECT_EQ(pool.retained(), dropped);

  // The frames that got through recycle when their consumer lets them go.
  eng.run();
  EXPECT_EQ(pool.retained(), static_cast<std::size_t>(kOffers));
  for (auto& buf : held) pool.release(std::move(buf));
}

}  // namespace
}  // namespace pinsim::net
