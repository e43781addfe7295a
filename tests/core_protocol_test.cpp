// End-to-end tests of the Open-MX-like stack: two hosts on a simulated 10G
// fabric, real bytes through the full eager and rendezvous/pull paths.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kMatchAll = ~std::uint64_t{0};

class ProtocolTest : public ::testing::Test {
 protected:
  void build(StackConfig stack, net::Fabric::Config net_cfg = {},
             Host::Config host_cfg = Host::Config{}) {
    fabric_ = std::make_unique<net::Fabric>(eng_, net_cfg);
    a_ = std::make_unique<Host>(eng_, *fabric_, host_cfg, stack);
    b_ = std::make_unique<Host>(eng_, *fabric_, host_cfg, stack);
    pa_ = &a_->spawn_process();
    pb_ = &b_->spawn_process();
  }

  /// Fills [addr, addr+len) with a deterministic pattern.
  static void fill_pattern(Host::Process& p, mem::VirtAddr addr,
                           std::size_t len, std::uint8_t salt) {
    std::vector<std::byte> data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::byte>((i * 131 + salt) % 251);
    }
    p.as.write(addr, data);
  }

  static bool check_pattern(Host::Process& p, mem::VirtAddr addr,
                            std::size_t len, std::uint8_t salt) {
    std::vector<std::byte> data(len);
    p.as.read(addr, data);
    for (std::size_t i = 0; i < len; ++i) {
      if (data[i] != static_cast<std::byte>((i * 131 + salt) % 251)) {
        return false;
      }
    }
    return true;
  }

  /// One message sender -> receiver; returns completion statuses.
  struct XferResult {
    Status send;
    Status recv;
    sim::Time elapsed = 0;
  };

  XferResult transfer(std::size_t len, std::uint8_t salt = 7) {
    const auto src = pa_->heap.malloc(std::max<std::size_t>(len, 1));
    const auto dst = pb_->heap.malloc(std::max<std::size_t>(len, 1));
    fill_pattern(*pa_, src, len, salt);

    XferResult result;
    bool done_s = false;
    bool done_r = false;
    sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                        std::size_t n, Status& out, bool& flag) -> sim::Task<> {
      out = co_await p.lib.send(to, 0x42, buf, n);
      flag = true;
    }(*pa_, pb_->addr(), src, len, result.send, done_s));
    sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf, std::size_t n,
                        Status& out, bool& flag) -> sim::Task<> {
      out = co_await p.lib.recv(0x42, kMatchAll, buf, n);
      flag = true;
    }(*pb_, dst, len, result.recv, done_r));

    const sim::Time t0 = eng_.now();
    eng_.run();
    eng_.rethrow_task_failures();
    result.elapsed = eng_.now() - t0;
    EXPECT_TRUE(done_s);
    EXPECT_TRUE(done_r);
    if (result.recv.ok && len > 0) {
      EXPECT_TRUE(check_pattern(*pb_, dst, result.recv.len, salt))
          << "payload corrupted for len=" << len;
    }
    return result;
  }

  sim::Engine eng_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<Host> a_, b_;
  Host::Process* pa_ = nullptr;
  Host::Process* pb_ = nullptr;
};

TEST_F(ProtocolTest, TinyEagerMessage) {
  build(pinning_cache_config());
  auto r = transfer(64);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  EXPECT_EQ(r.recv.len, 64u);
  EXPECT_EQ(pa_->lib.counters().eager_sent, 1u);
  EXPECT_EQ(pa_->lib.counters().rndv_sent, 0u);
}

TEST_F(ProtocolTest, ZeroByteMessage) {
  build(pinning_cache_config());
  auto r = transfer(0);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  EXPECT_EQ(r.recv.len, 0u);
}

TEST_F(ProtocolTest, MultiFragmentEagerMessage) {
  build(pinning_cache_config());
  auto r = transfer(30000);  // < 32k threshold, 4 fragments of 8k
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  EXPECT_EQ(pa_->lib.counters().eager_sent, 1u);
}

TEST_F(ProtocolTest, LargeMessageUsesRendezvous) {
  build(pinning_cache_config());
  auto r = transfer(1024 * 1024);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  EXPECT_EQ(r.recv.len, 1024u * 1024);
  const auto& cs = pa_->lib.counters();
  EXPECT_EQ(cs.rndv_sent, 1u);
  EXPECT_GT(cs.pull_replies_sent, 0u);
  const auto& cr = pb_->lib.counters();
  EXPECT_GT(cr.pulls_sent, 0u);
  EXPECT_EQ(cr.notifies_sent, 1u);
  // Everything drained.
  EXPECT_EQ(pa_->ep.inflight(), 0u);
  EXPECT_EQ(pb_->ep.inflight(), 0u);
}

class ProtocolConfigSweep : public ProtocolTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(ProtocolConfigSweep, RendezvousWorksUnderThisPinningConfig) {
  const StackConfig cfgs[] = {regular_pinning_config(),
                              overlapped_pinning_config(),
                              pinning_cache_config(),
                              overlapped_cache_config(),
                              permanent_pinning_config()};
  build(cfgs[GetParam()]);
  auto r = transfer(512 * 1024, 99);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ProtocolConfigSweep,
                         ::testing::Range(0, 5));

TEST_F(ProtocolTest, SixteenMegabyteTransfer) {
  Host::Config hc;
  hc.memory_frames = 16384;  // 64 MiB
  build(pinning_cache_config(), {}, hc);
  auto r = transfer(16 * 1024 * 1024, 3);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  // Throughput sanity: between 0.5 and 1.25 GB/s on the 10G fabric.
  const double gbps = static_cast<double>(r.recv.len) /
                      static_cast<double>(r.elapsed);
  EXPECT_GT(gbps, 0.5);
  EXPECT_LT(gbps, 1.25);
}

TEST_F(ProtocolTest, UnexpectedEagerIsBufferedAndDelivered) {
  build(pinning_cache_config());
  const std::size_t len = 10000;
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);
  fill_pattern(*pa_, src, len, 5);

  Status recv_st;
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    (void)co_await p.lib.send(to, 0x1, buf, n);
  }(*pa_, pb_->addr(), src, len));
  // Post the receive long after the message arrived.
  sim::spawn(eng_, [](sim::Engine& eng, Host::Process& p, mem::VirtAddr buf,
                      std::size_t n, Status& out) -> sim::Task<> {
    co_await sim::delay(eng, 5 * sim::kMillisecond);
    out = co_await p.lib.recv(0x1, kMatchAll, buf, n);
  }(eng_, *pb_, dst, len, recv_st));
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_TRUE(recv_st.ok);
  EXPECT_TRUE(check_pattern(*pb_, dst, len, 5));
}

TEST_F(ProtocolTest, UnexpectedRendezvousMatchesLater) {
  build(pinning_cache_config());
  const std::size_t len = 256 * 1024;
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);
  fill_pattern(*pa_, src, len, 11);

  Status send_st, recv_st;
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n, Status& out) -> sim::Task<> {
    out = co_await p.lib.send(to, 0x2, buf, n);
  }(*pa_, pb_->addr(), src, len, send_st));
  sim::spawn(eng_, [](sim::Engine& eng, Host::Process& p, mem::VirtAddr buf,
                      std::size_t n, Status& out) -> sim::Task<> {
    co_await sim::delay(eng, 2 * sim::kMillisecond);
    out = co_await p.lib.recv(0x2, kMatchAll, buf, n);
  }(eng_, *pb_, dst, len, recv_st));
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_TRUE(send_st.ok);
  EXPECT_TRUE(recv_st.ok);
  EXPECT_TRUE(check_pattern(*pb_, dst, len, 11));
}

// Regression test: an irecv that binds a multi-fragment eager message while
// its fragments are still arriving must still deliver intact data (early
// fragments staged in the kernel buffer, late ones must not be lost).
TEST_F(ProtocolTest, EagerBindingMidReassemblyKeepsDataIntact) {
  build(pinning_cache_config());
  const std::size_t len = 30000;  // 4 fragments of 8 kB
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);

  for (int delay_us = 0; delay_us <= 40; delay_us += 2) {
    const auto salt = static_cast<std::uint8_t>(delay_us + 1);
    fill_pattern(*pa_, src, len, salt);
    pb_->as.fill(dst, len, std::byte{0xee});
    const auto tag = static_cast<std::uint64_t>(0x100 + delay_us);
    Status recv_st;
    sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                        std::size_t n, std::uint64_t t) -> sim::Task<> {
      (void)co_await p.lib.send(to, t, buf, n);
    }(*pa_, pb_->addr(), src, len, tag));
    sim::spawn(eng_, [](sim::Engine& eng, Host::Process& p, mem::VirtAddr buf,
                        std::size_t n, std::uint64_t t, int d,
                        Status& out) -> sim::Task<> {
      co_await sim::delay(eng, static_cast<sim::Time>(d) * sim::kMicrosecond);
      out = co_await p.lib.recv(t, kMatchAll, buf, n);
    }(eng_, *pb_, dst, len, tag, delay_us, recv_st));
    eng_.run();
    eng_.rethrow_task_failures();
    ASSERT_TRUE(recv_st.ok) << "delay " << delay_us;
    ASSERT_TRUE(check_pattern(*pb_, dst, len, salt))
        << "payload corrupted at post delay " << delay_us << "us";
  }
}

TEST_F(ProtocolTest, MatchingMaskSelectsTheRightMessage) {
  build(pinning_cache_config());
  const auto src1 = pa_->heap.malloc(4096);
  const auto src2 = pa_->heap.malloc(4096);
  const auto dst1 = pb_->heap.malloc(4096);
  const auto dst2 = pb_->heap.malloc(4096);
  fill_pattern(*pa_, src1, 4096, 1);
  fill_pattern(*pa_, src2, 4096, 2);

  Status r1, r2;
  // Receiver posts tag 0x20 first, then tag 0x10; sender sends 0x10, 0x20.
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr d1, mem::VirtAddr d2,
                      Status& s1, Status& s2) -> sim::Task<> {
    auto req2 = p.lib.irecv(0x20, kMatchAll, d2, 4096);
    auto req1 = p.lib.irecv(0x10, kMatchAll, d1, 4096);
    co_await req2->wait();
    s2 = req2->status();
    co_await req1->wait();
    s1 = req1->status();
  }(*pb_, dst1, dst2, r1, r2));
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr b1,
                      mem::VirtAddr b2) -> sim::Task<> {
    (void)co_await p.lib.send(to, 0x10, b1, 4096);
    (void)co_await p.lib.send(to, 0x20, b2, 4096);
  }(*pa_, pb_->addr(), src1, src2));
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_TRUE(r1.ok);
  EXPECT_TRUE(r2.ok);
  EXPECT_TRUE(check_pattern(*pb_, dst1, 4096, 1));
  EXPECT_TRUE(check_pattern(*pb_, dst2, 4096, 2));
}

TEST_F(ProtocolTest, ManyBackToBackLargeMessagesReuseTheCachedRegion) {
  build(pinning_cache_config());
  const std::size_t len = 128 * 1024;
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);

  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await p.lib.send(to, 0x3, buf, n);
    }
  }(*pa_, pb_->addr(), src, len));
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      (void)co_await p.lib.recv(0x3, kMatchAll, buf, n);
    }
  }(*pb_, dst, len));
  eng_.run();
  eng_.rethrow_task_failures();

  // One miss then nine hits on each side; one pin pass each.
  EXPECT_EQ(pa_->lib.cache().stats().misses, 1u);
  EXPECT_EQ(pa_->lib.cache().stats().hits, 9u);
  EXPECT_EQ(pa_->lib.counters().pin_ops, 1u);
  EXPECT_EQ(pb_->lib.counters().pin_ops, 1u);
}

TEST_F(ProtocolTest, DisabledCachePinsEveryCommunication) {
  build(regular_pinning_config());
  const std::size_t len = 128 * 1024;
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);

  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) (void)co_await p.lib.send(to, 0x3, buf, n);
  }(*pa_, pb_->addr(), src, len));
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await p.lib.recv(0x3, kMatchAll, buf, n);
    }
  }(*pb_, dst, len));
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_EQ(pa_->lib.counters().pin_ops, 5u);
  EXPECT_EQ(pa_->lib.counters().unpin_ops, 5u);
  EXPECT_EQ(pa_->as.stats().pins, pa_->as.stats().unpins);
  EXPECT_EQ(a_->memory().pinned_pages(), 0u);
}

TEST_F(ProtocolTest, FreeDuringIdleUnpinsViaNotifierAndRepins) {
  build(pinning_cache_config());
  const std::size_t len = 256 * 1024;
  auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);

  // Round 1.
  fill_pattern(*pa_, src, len, 21);
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    (void)co_await p.lib.send(to, 0x4, buf, n);
  }(*pa_, pb_->addr(), src, len));
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    (void)co_await p.lib.recv(0x4, kMatchAll, buf, n);
  }(*pb_, dst, len));
  eng_.run();
  eng_.rethrow_task_failures();
  const auto pinned_before = a_->memory().pinned_pages();
  EXPECT_GT(pinned_before, 0u);  // region stays pinned in the cache

  // Free the buffer: the MMU notifier must unpin even though the library's
  // cache still remembers the declaration.
  pa_->heap.free(src);
  EXPECT_EQ(pa_->lib.counters().notifier_invalidations, 1u);
  EXPECT_LT(a_->memory().pinned_pages(), pinned_before);

  // Reallocate (same VA by first-fit) and send again: repin, data correct.
  const auto src2 = pa_->heap.malloc(len);
  ASSERT_EQ(src2, src);
  fill_pattern(*pa_, src2, len, 22);
  Status st;
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n) -> sim::Task<> {
    (void)co_await p.lib.send(to, 0x5, buf, n);
  }(*pa_, pb_->addr(), src2, len));
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf, std::size_t n,
                      Status& out) -> sim::Task<> {
    out = co_await p.lib.recv(0x5, kMatchAll, buf, n);
  }(*pb_, dst, len, st));
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_TRUE(st.ok);
  EXPECT_TRUE(check_pattern(*pb_, dst, len, 22));  // fresh data, not stale
  EXPECT_GE(pa_->lib.counters().repins, 1u);
}

TEST_F(ProtocolTest, RandomFrameLossIsRecoveredByRetransmission) {
  StackConfig cfg = overlapped_cache_config();
  cfg.protocol.retransmit_timeout = 500 * sim::kMicrosecond;  // speed up test
  cfg.protocol.pull_retry_timeout = 500 * sim::kMicrosecond;
  net::Fabric::Config net_cfg;
  net_cfg.seed = 1717;
  build(cfg, net_cfg);
  fabric_->faults().set_plan({.loss = 0.05});
  auto r = transfer(512 * 1024, 31);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
  const auto& c = pb_->lib.counters();
  EXPECT_GT(c.pull_rerequests + c.retransmit_timeouts, 0u);
}

TEST_F(ProtocolTest, HeavyLossStillDeliversCorrectData) {
  StackConfig cfg = pinning_cache_config();
  cfg.protocol.retransmit_timeout = 200 * sim::kMicrosecond;
  cfg.protocol.pull_retry_timeout = 200 * sim::kMicrosecond;
  net::Fabric::Config net_cfg;
  net_cfg.seed = 4242;
  build(cfg, net_cfg);
  fabric_->faults().set_plan({.loss = 0.25});
  auto r = transfer(128 * 1024, 77);
  EXPECT_TRUE(r.send.ok);
  EXPECT_TRUE(r.recv.ok);
}

TEST_F(ProtocolTest, InvalidSendBufferAbortsBothSides) {
  build(pinning_cache_config());
  const std::size_t len = 128 * 1024;
  const auto dst = pb_->heap.malloc(len);
  // Unmapped source address: declaration succeeds, pinning fails at
  // communication time (paper §3.1) and both requests error out.
  const mem::VirtAddr bogus = 0x7000'0000'0000ULL;

  Status send_st;
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n, Status& out) -> sim::Task<> {
    out = co_await p.lib.send(to, 0x6, buf, n);
  }(*pa_, pb_->addr(), bogus, len, send_st));
  auto recv = pb_->lib.irecv(0x6, kMatchAll, dst, len);
  eng_.run();
  eng_.rethrow_task_failures();
  EXPECT_FALSE(send_st.ok);
  EXPECT_GE(pa_->lib.counters().pin_failures, 1u);
  EXPECT_EQ(pa_->ep.inflight(), 0u);
  // With synchronous pinning the RNDV never leaves, so the receiver is
  // still waiting; that is MPI semantics (the recv would hang forever).
  // mx_cancel it so no request outlives the test.
  ASSERT_FALSE(recv->completed());
  EXPECT_TRUE(pb_->lib.cancel(*recv));
  eng_.run();
  ASSERT_TRUE(recv->completed());
  EXPECT_FALSE(recv->status().ok);
  EXPECT_EQ(pb_->ep.inflight(), 0u);
}

TEST_F(ProtocolTest, OverlappedInvalidBufferAbortsReceiverToo) {
  build(overlapped_pinning_config());
  const std::size_t len = 128 * 1024;
  const auto dst = pb_->heap.malloc(len);
  const mem::VirtAddr bogus = 0x7000'0000'0000ULL;

  Status send_st, recv_st;
  bool recv_done = false;
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to, mem::VirtAddr buf,
                      std::size_t n, Status& out) -> sim::Task<> {
    out = co_await p.lib.send(to, 0x6, buf, n);
  }(*pa_, pb_->addr(), bogus, len, send_st));
  sim::spawn(eng_, [](Host::Process& p, mem::VirtAddr buf, std::size_t n,
                      Status& out, bool& flag) -> sim::Task<> {
    out = co_await p.lib.recv(0x6, kMatchAll, buf, n);
    flag = true;
  }(*pb_, dst, len, recv_st, recv_done));
  eng_.run();
  eng_.rethrow_task_failures();
  // Overlapped: the RNDV went out before pinning failed, so an ABORT must
  // reach the receiver and complete its request with an error.
  EXPECT_FALSE(send_st.ok);
  EXPECT_TRUE(recv_done);
  EXPECT_FALSE(recv_st.ok);
  EXPECT_EQ(pa_->ep.inflight(), 0u);
  EXPECT_EQ(pb_->ep.inflight(), 0u);
}

TEST_F(ProtocolTest, OverlapMissesAreRareUnderNormalLoad) {
  build(overlapped_cache_config());
  // Rotate through several buffers so every send needs a fresh pin.
  constexpr int kIters = 20;
  const std::size_t len = 1024 * 1024;
  std::vector<mem::VirtAddr> srcs, dsts;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(pa_->heap.malloc(len));
    dsts.push_back(pb_->heap.malloc(len));
  }
  sim::spawn(eng_, [](Host::Process& p, EndpointAddr to,
                      std::vector<mem::VirtAddr> bufs,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < kIters; ++i) {
      (void)co_await p.lib.send(to, 0x7, bufs[static_cast<size_t>(i) % 4], n);
    }
  }(*pa_, pb_->addr(), srcs, len));
  sim::spawn(eng_, [](Host::Process& p, std::vector<mem::VirtAddr> bufs,
                      std::size_t n) -> sim::Task<> {
    for (int i = 0; i < kIters; ++i) {
      (void)co_await p.lib.recv(0x7, kMatchAll, bufs[static_cast<size_t>(i) % 4], n);
    }
  }(*pb_, dsts, len));
  eng_.run();
  eng_.rethrow_task_failures();

  const auto& cs = pa_->lib.counters();
  const auto& cr = pb_->lib.counters();
  // §4.3: under regular load less than 1 packet in 10^4 misses. Our model
  // should be comfortably below 1% here.
  EXPECT_GT(cs.region_accesses + cr.region_accesses, 1000u);
  EXPECT_LT(cs.overlap_miss_rate(), 0.01);
  EXPECT_LT(cr.overlap_miss_rate(), 0.01);
}

TEST_F(ProtocolTest, CopyInRaceIsRepulledWhenTheRegionRepins) {
  // Cache config: the receive region is fully pinned before the pull starts.
  build(pinning_cache_config());
  const std::size_t len = 64 * 1024;  // two pull blocks of four frames
  const std::size_t frames = len / 8192;
  const auto src = pa_->heap.malloc(len);
  const auto dst = pb_->heap.malloc(len);
  fill_pattern(*pa_, src, len, 9);
  auto recv = pb_->lib.irecv(0x9, kMatchAll, dst, len);
  auto send = pa_->lib.isend(pb_->addr(), 0x9, src, len);

  // Step until B has checked the last frame against its pin frontier: the
  // copy into the region is queued behind the bottom half, not done yet.
  while (pb_->lib.counters().region_accesses < frames && eng_.step()) {
  }
  ASSERT_EQ(pb_->lib.counters().region_accesses, frames);
  ASSERT_FALSE(recv->completed());
  // The MMU notifier invalidates the page under that frame before the copy
  // runs: the copy misses, the frame is dropped, the frontier must repin.
  const mem::VirtAddr last = mem::page_floor(dst + len - 1);
  pb_->ep.pin_manager().invalidate_range(last, last + mem::kPageSize);
  const sim::Time t0 = eng_.now();
  while (!recv->completed() && eng_.step()) {
  }
  ASSERT_TRUE(recv->completed());

  // Re-pulled as soon as the region repinned, long before the pull retry
  // timer (10 ms) would have noticed the missing frame.
  EXPECT_LT(eng_.now() - t0, sim::kMillisecond);
  const auto& c = pb_->lib.counters();
  EXPECT_EQ(c.frames_dropped_on_miss, 1u);
  EXPECT_EQ(c.repins, 1u);
  EXPECT_EQ(c.pull_rerequests, 1u);
  EXPECT_EQ(c.retransmit_timeouts, 0u);
  eng_.run();
  ASSERT_TRUE(send->completed());
  EXPECT_TRUE(send->status().ok);
  EXPECT_TRUE(recv->status().ok);
  EXPECT_TRUE(check_pattern(*pb_, dst, len, 9));
}

}  // namespace
}  // namespace pinsim::core
