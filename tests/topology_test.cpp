#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "cpu/core.hpp"
#include "net/frame.hpp"
#include "net/nic.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace pinsim::net {
namespace {

Frame make_frame(NodeId dst, std::size_t size, std::uint8_t marker = 0xab) {
  Frame f;
  f.dst = dst;
  f.payload.assign(size, static_cast<std::byte>(marker));
  return f;
}

/// N nodes on a rack topology, one core + NIC per node.
struct Rig {
  Rig(Topology::Config cfg, std::size_t nodes) : topo(eng, cfg) {
    for (std::size_t i = 0; i < nodes; ++i) {
      cores.push_back(
          std::make_unique<cpu::Core>(eng, "c" + std::to_string(i)));
      nics.push_back(std::make_unique<Nic>(eng, topo, *cores.back()));
    }
  }

  sim::Engine eng;
  Topology topo;
  std::vector<std::unique_ptr<cpu::Core>> cores;
  std::vector<std::unique_ptr<Nic>> nics;
};

Topology::Config small_cfg(std::size_t nodes_per_rack = 4) {
  Topology::Config cfg;
  cfg.nodes_per_rack = nodes_per_rack;
  cfg.uplinks_per_rack = 2;
  return cfg;
}

sim::Time wire_time(const Topology& t, std::size_t payload) {
  return t.serialization_time(
      Frame{0, 0, std::vector<std::byte>(payload)}.wire_bytes());
}

TEST(Topology, IntraRackPathChargesHopAndDownlinkQueue) {
  Rig rig(small_cfg(), 4);
  sim::Time arrival = 0;
  rig.nics[1]->set_rx_handler([&](Frame&&) { arrival = rig.eng.now(); });
  ASSERT_TRUE(rig.nics[0]->send(make_frame(1, 8192)));
  rig.eng.run();
  const sim::Time wire = wire_time(rig.topo, 8192);
  // Sender egress + switch hop + downlink serialization + link propagation
  // + the NIC's 1000 ns receive bottom half.
  const sim::Time expected = wire + rig.topo.topology_config().switch_hop_latency +
                             wire + rig.topo.latency() + 1000;
  EXPECT_EQ(arrival, expected);
  EXPECT_EQ(rig.topo.rack_count(), 1u);
  EXPECT_EQ(rig.topo.downlink(1).stats().drained, 1u);
}

TEST(Topology, CrossRackPathAddsUplinkQueueAndSecondHop) {
  Rig rig(small_cfg(), 8);  // 2 racks of 4
  sim::Time arrival = 0;
  rig.nics[5]->set_rx_handler([&](Frame&&) { arrival = rig.eng.now(); });
  ASSERT_TRUE(rig.nics[0]->send(make_frame(5, 8192)));
  rig.eng.run();
  const sim::Time wire = wire_time(rig.topo, 8192);
  const sim::Time hop = rig.topo.topology_config().switch_hop_latency;
  // Egress + hop + uplink wire + hop + downlink wire + link + rx BH.
  const sim::Time expected = wire + hop + wire + hop + wire +
                             rig.topo.latency() + 1000;
  EXPECT_EQ(arrival, expected);
  EXPECT_EQ(rig.topo.rack_count(), 2u);
  // Node 0 is index 0 of rack 0, so it leaves on uplink 0 % 2 == 0.
  EXPECT_EQ(rig.topo.uplink(0, 0).stats().drained, 1u);
  EXPECT_EQ(rig.topo.uplink(0, 1).stats().drained, 0u);
}

TEST(Topology, SourcesSplitAcrossSharedUplinksDeterministically) {
  Topology::Config cfg = small_cfg(2);  // 2 nodes per rack, 2 uplinks
  Rig rig(cfg, 4);
  for (auto& nic : rig.nics) {
    nic->set_rx_handler([](Frame&&) {});
  }
  // Rack 0 -> rack 1: node 0 rides uplink 0 and node 1 uplink 1, whatever
  // the destination.
  ASSERT_TRUE(rig.nics[0]->send(make_frame(2, 1024)));
  ASSERT_TRUE(rig.nics[0]->send(make_frame(3, 1024)));
  ASSERT_TRUE(rig.nics[1]->send(make_frame(2, 1024)));
  ASSERT_TRUE(rig.nics[1]->send(make_frame(3, 1024)));
  rig.eng.run();
  EXPECT_EQ(rig.topo.uplink(0, 0).stats().enqueued, 2u);
  EXPECT_EQ(rig.topo.uplink(0, 1).stats().enqueued, 2u);
  EXPECT_EQ(rig.topo.uplink_index(0), 0u);
  EXPECT_EQ(rig.topo.uplink_index(3), 1u);
  EXPECT_GT(rig.topo.uplink_busy_time(), 0);
  EXPECT_EQ(rig.topo.congestion_dropped(), 0u);
}

TEST(Topology, XorPermutationsUseEveryUplink) {
  // Pairwise exchange: in round `mask` host h sends to h ^ mask. Every
  // cross-rack pair then has src ^ dst == mask, so a flow hash of (src, dst)
  // would put a whole rack on one uplink. Split by source, each of a rack's
  // two uplinks carries exactly half of its 8 hosts.
  Rig rig(small_cfg(8), 16);
  for (auto& nic : rig.nics) {
    nic->set_rx_handler([](Frame&&) {});
  }
  std::uint64_t before[2][2] = {};
  for (std::size_t mask = 8; mask < 16; ++mask) {
    for (std::size_t h = 0; h < 16; ++h) {
      ASSERT_TRUE(rig.nics[h]->send(make_frame(static_cast<NodeId>(h ^ mask),
                                               2048)));
    }
    rig.eng.run();
    for (std::size_t rack = 0; rack < 2; ++rack) {
      for (std::size_t i = 0; i < 2; ++i) {
        const std::uint64_t now = rig.topo.uplink(rack, i).stats().enqueued;
        EXPECT_EQ(now - before[rack][i], 4u)
            << "mask " << mask << " rack " << rack << " uplink " << i;
        before[rack][i] = now;
      }
    }
  }
  EXPECT_EQ(rig.topo.congestion_dropped(), 0u);
}

TEST(Topology, HostEgressKeepsOneUplinkInOrder) {
  Rig rig(small_cfg(), 8);  // 2 racks of 4
  std::vector<std::uint8_t> arrivals;
  for (NodeId dst = 4; dst < 8; ++dst) {
    rig.nics[dst]->set_rx_handler([&arrivals](Frame&& f) {
      arrivals.push_back(static_cast<std::uint8_t>(f.payload[0]));
    });
  }
  // Node 2 sends to every host of rack 1, twice round, markers in send order.
  std::vector<std::uint8_t> sent;
  for (std::uint8_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(rig.nics[2]->send(make_frame(4 + k % 4, 4096, k)));
    sent.push_back(k);
  }
  rig.eng.run();
  EXPECT_EQ(rig.topo.uplink(0, 0).stats().enqueued, 8u);
  EXPECT_EQ(rig.topo.uplink(0, 1).stats().enqueued, 0u);
  EXPECT_EQ(arrivals, sent);
}

TEST(Topology, UplinkStrandedCountsQueueingBesideAnIdleSibling) {
  const auto stranded = [](NodeId a, NodeId b) {
    Rig rig(small_cfg(), 8);  // 2 racks of 4, 2 uplinks each
    for (auto& nic : rig.nics) {
      nic->set_rx_handler([](Frame&&) {});
    }
    // One frame from each sender into rack 1, posted at the same instant.
    EXPECT_TRUE(rig.nics[a]->send(make_frame(4, 4096)));
    EXPECT_TRUE(rig.nics[b]->send(make_frame(5, 4096)));
    rig.eng.run();
    EXPECT_EQ(rig.topo.frames_delivered(), 2u);
    return rig.topo.uplink_stranded();
  };
  // Nodes 0 and 2 share uplink 0: the second frame waits while uplink 1
  // idles.
  EXPECT_EQ(stranded(0, 2), 1u);
  // Nodes 0 and 1 take one uplink each: neither queues beside an idle one.
  EXPECT_EQ(stranded(0, 1), 0u);
}

TEST(Topology, IncastOverflowCountsCongestionNotFault) {
  Topology::Config cfg = small_cfg();
  cfg.downlink_queue_frames = 4;
  Rig rig(cfg, 4);
  int received = 0;
  rig.nics[0]->set_rx_handler([&](Frame&&) { ++received; });
  constexpr int kPerSender = 16;
  for (int s = 1; s < 4; ++s) {
    for (int i = 0; i < kPerSender; ++i) {
      ASSERT_TRUE(rig.nics[static_cast<std::size_t>(s)]->send(
          make_frame(0, 8192)));
    }
  }
  rig.eng.run();
  const auto total = static_cast<std::uint64_t>(3 * kPerSender);
  // Three senders at line rate into one line-rate downlink: the bounded
  // queue must overflow, and every loss is congestion-attributed.
  EXPECT_GT(rig.topo.congestion_dropped(), 0u);
  EXPECT_EQ(rig.topo.fault_dropped(), 0u);
  EXPECT_EQ(rig.topo.frames_dropped(), rig.topo.congestion_dropped());
  EXPECT_EQ(rig.topo.congestion_dropped(),
            rig.topo.downlink(0).stats().overflow_drops);
  EXPECT_EQ(rig.topo.frames_delivered() + rig.topo.congestion_dropped(),
            total);
  EXPECT_EQ(static_cast<std::uint64_t>(received),
            rig.topo.frames_delivered());
  // The queue respected its bound the whole time.
  EXPECT_LE(rig.topo.downlink(0).stats().max_depth, 4u);
}

TEST(Topology, QueueEventsSatisfyInvariantsAndFeedMetrics) {
  Topology::Config cfg = small_cfg();
  cfg.downlink_queue_frames = 4;
  Rig rig(cfg, 4);
  obs::Bus bus(rig.eng);
  obs::InvariantChecker checker;
  obs::MetricsSampler metrics;
  bus.attach(&checker);
  bus.attach(&metrics);
  rig.topo.set_bus(&bus);
  rig.nics[0]->set_rx_handler([](Frame&&) {});
  for (int s = 1; s < 4; ++s) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(rig.nics[static_cast<std::size_t>(s)]->send(
          make_frame(0, 8192)));
    }
  }
  rig.eng.run();
  bus.finalize();
  ASSERT_GT(rig.topo.congestion_dropped(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  std::uint64_t sampled_drops = 0;
  for (const auto& s : metrics.samples()) sampled_drops += s.congestion_drops;
  EXPECT_EQ(sampled_drops, rig.topo.congestion_dropped());
  rig.topo.set_bus(nullptr);
}

TEST(Topology, DownedPortLossIsFaultAttributed) {
  Rig rig(small_cfg(), 4);
  rig.nics[1]->set_rx_handler([](Frame&&) {});
  rig.topo.set_port_up(1, false);
  ASSERT_TRUE(rig.nics[0]->send(make_frame(1, 4096)));
  rig.eng.run();
  EXPECT_EQ(rig.topo.fault_dropped(), 1u);
  EXPECT_EQ(rig.topo.link_down_drops(), 1u);
  EXPECT_EQ(rig.topo.congestion_dropped(), 0u);
}

TEST(Topology, RunsAreDeterministic) {
  using Arrival = std::tuple<sim::Time, std::uint32_t, int>;
  const auto run_once = [] {
    Topology::Config cfg;
    cfg.nodes_per_rack = 4;
    cfg.uplinks_per_rack = 2;
    cfg.downlink_queue_frames = 8;
    cfg.link.seed = 0x5eed;
    Rig rig(cfg, 8);
    rig.topo.faults().set_plan({.loss = 0.1});
    std::vector<Arrival> arrivals;
    for (std::size_t n = 0; n < 8; ++n) {
      rig.nics[n]->set_rx_handler([&arrivals, n, &rig](Frame&& f) {
        arrivals.emplace_back(rig.eng.now(), static_cast<std::uint32_t>(n),
                              static_cast<int>(f.payload[0]));
      });
    }
    for (int round = 0; round < 24; ++round) {
      for (std::size_t n = 0; n < 8; ++n) {
        const NodeId dst = static_cast<NodeId>((n + 3) % 8);
        rig.nics[n]->send(
            make_frame(dst, 4096, static_cast<std::uint8_t>(round)));
      }
    }
    rig.eng.run();
    EXPECT_TRUE(rig.eng.self_check());
    return arrivals;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Topology, ConfigValidation) {
  sim::Engine eng;
  Topology::Config bad = small_cfg();
  bad.nodes_per_rack = 0;
  EXPECT_THROW(Topology(eng, bad), std::invalid_argument);
  bad = small_cfg();
  bad.uplinks_per_rack = 0;
  EXPECT_THROW(Topology(eng, bad), std::invalid_argument);
  bad = small_cfg();
  bad.downlink_queue_frames = 0;
  Topology t(eng, bad);  // validated lazily by the port at attach
  cpu::Core core(eng, "c");
  EXPECT_THROW(Nic(eng, t, core), std::invalid_argument);
}

}  // namespace
}  // namespace pinsim::net
