// The FaultInjector itself (determinism, loss rates, Gilbert-Elliott bursts,
// corruption, duplication, reorder, per-link plans) and its integration with
// the frame checksum: corrupted and duplicated frames must never reach user
// buffers, and every transfer must still complete bit-exact.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "net/fault.hpp"
#include "obs/bus.hpp"
#include "sim/task.hpp"

namespace pinsim::net {
namespace {

Frame test_frame(NodeId src, NodeId dst, std::size_t bytes = 128) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload.assign(bytes, std::byte{0});
  return f;
}

TEST(FaultInjector, InactiveByDefault) {
  FaultInjector fi;
  EXPECT_FALSE(fi.enabled());
  Frame f = test_frame(0, 1);
  const auto v = fi.inspect(f);
  EXPECT_FALSE(v.drop);
  EXPECT_FALSE(v.duplicate);
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.extra_latency, 0);
}

TEST(FaultInjector, SameSeedSameVerdicts) {
  FaultPlan plan;
  plan.loss = 0.3;
  plan.corrupt = 0.2;
  plan.duplicate = 0.2;
  plan.reorder = 0.2;
  FaultInjector a(42), b(42);
  a.set_plan(plan);
  b.set_plan(plan);
  for (int i = 0; i < 500; ++i) {
    Frame fa = test_frame(0, 1);
    Frame fb = test_frame(0, 1);
    const auto va = a.inspect(fa);
    const auto vb = b.inspect(fb);
    ASSERT_EQ(va.drop, vb.drop) << i;
    ASSERT_EQ(va.duplicate, vb.duplicate) << i;
    ASSERT_EQ(va.corrupted, vb.corrupted) << i;
    ASSERT_EQ(va.extra_latency, vb.extra_latency) << i;
    ASSERT_EQ(fa.payload, fb.payload) << i;
  }
}

TEST(FaultInjector, IndependentLossTracksConfiguredRate) {
  FaultPlan plan;
  plan.loss = 0.25;
  FaultInjector fi(7);
  fi.set_plan(plan);
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    Frame f = test_frame(0, 1);
    (void)fi.inspect(f);
  }
  const double rate =
      static_cast<double>(fi.stats().drops) / static_cast<double>(kFrames);
  EXPECT_NEAR(rate, 0.25, 0.05);
  EXPECT_EQ(fi.stats().frames_seen, static_cast<std::uint64_t>(kFrames));
}

TEST(FaultInjector, GilbertElliottDropsComeInBursts) {
  FaultPlan plan;
  plan.burst_enter = 0.05;
  plan.burst_exit = 0.3;
  plan.burst_loss = 1.0;
  FaultInjector fi(11);
  fi.set_plan(plan);

  // Count runs of consecutive drops: with burst_loss=1 every bad-state frame
  // drops, so mean run length should approximate 1/burst_exit (~3.3), far
  // above what independent loss at the same overall rate would produce.
  int runs = 0;
  std::uint64_t dropped = 0;
  bool in_run = false;
  for (int i = 0; i < 4000; ++i) {
    Frame f = test_frame(0, 1);
    const bool drop = fi.inspect(f).drop;
    if (drop) {
      ++dropped;
      if (!in_run) ++runs;
    }
    in_run = drop;
  }
  ASSERT_GT(fi.stats().burst_drops, 0u);
  EXPECT_EQ(fi.stats().burst_drops, dropped);
  EXPECT_EQ(fi.stats().drops, 0u);  // only the chain drops, no independent loss
  const double mean_run =
      static_cast<double>(dropped) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 2.0);
}

TEST(FaultInjector, CorruptionFlipsPayloadBitsInPlace) {
  FaultPlan plan;
  plan.corrupt = 1.0;
  FaultInjector fi(3);
  fi.set_plan(plan);
  Frame f = test_frame(0, 1, 256);
  const auto v = fi.inspect(f);
  EXPECT_TRUE(v.corrupted);
  EXPECT_FALSE(v.drop);
  int flipped = 0;
  for (const std::byte b : f.payload) {
    flipped += std::popcount(static_cast<unsigned>(b));
  }
  EXPECT_GT(flipped, 0);
  EXPECT_LE(flipped, plan.corrupt_bits);
  EXPECT_EQ(fi.stats().corruptions, 1u);
}

TEST(FaultInjector, DuplicateAndReorderVerdicts) {
  FaultPlan plan;
  plan.duplicate = 1.0;
  FaultInjector fi(5);
  fi.set_plan(plan);
  Frame f = test_frame(0, 1);
  EXPECT_TRUE(fi.inspect(f).duplicate);
  EXPECT_EQ(fi.stats().duplicates, 1u);

  FaultPlan reorder;
  reorder.reorder = 1.0;
  reorder.reorder_jitter = 10 * sim::kMicrosecond;
  FaultInjector fj(6);
  fj.set_plan(reorder);
  Frame g = test_frame(0, 1);
  const auto v = fj.inspect(g);
  EXPECT_GT(v.extra_latency, 0);
  EXPECT_LE(v.extra_latency, reorder.reorder_jitter);
  EXPECT_EQ(fj.stats().reorders, 1u);
}

TEST(FaultInjector, LinkPlanOverridesOnlyThatDirection) {
  FaultInjector fi(8);
  FaultPlan kill;
  kill.loss = 1.0;
  fi.set_link_plan(0, 1, kill);
  EXPECT_TRUE(fi.enabled());
  for (int i = 0; i < 50; ++i) {
    Frame fwd = test_frame(0, 1);
    EXPECT_TRUE(fi.inspect(fwd).drop);
    Frame rev = test_frame(1, 0);
    EXPECT_FALSE(fi.inspect(rev).drop);
  }
  fi.clear_link_plans();
  EXPECT_FALSE(fi.enabled());
  Frame fwd = test_frame(0, 1);
  EXPECT_FALSE(fi.inspect(fwd).drop);
}

}  // namespace
}  // namespace pinsim::net

// --- stack integration -------------------------------------------------------

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

struct Rig {
  explicit Rig(StackConfig stack) {
    fabric = std::make_unique<net::Fabric>(eng);
    Host::Config hc;
    hc.memory_frames = 24576;
    a = std::make_unique<Host>(eng, *fabric, hc, stack);
    b = std::make_unique<Host>(eng, *fabric, hc, stack);
    pa = &a->spawn_process();
    pb = &b->spawn_process();
  }

  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Host> a, b;
  Host::Process* pa = nullptr;
  Host::Process* pb = nullptr;
};

StackConfig fast_retry_stack() {
  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
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

/// One verified transfer pa -> pb of `size` bytes under the given plan.
void transfer_and_verify(Rig& rig, net::FaultPlan plan, std::size_t size) {
  rig.fabric->faults().set_plan(plan);
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  const auto data = pattern(size, static_cast<std::uint32_t>(size));
  rig.pa->as.write(src, data);

  Status r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 3, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, size));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(3, kAll, buf, n);
  }(rig.pb->lib, dst, size, r_st));
  rig.eng.run();
  rig.eng.rethrow_task_failures();

  ASSERT_TRUE(r_st.ok);
  ASSERT_EQ(r_st.len, size);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  ASSERT_EQ(got, data);
  EXPECT_EQ(rig.pa->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(FaultStack, CorruptedFramesAreDroppedByChecksumAndRetransmitted) {
  Rig rig(fast_retry_stack());
  net::FaultPlan plan;
  plan.corrupt = 0.2;
  transfer_and_verify(rig, plan, 256 * 1024);
  ASSERT_GT(rig.fabric->faults().stats().corruptions, 0u);
  // Every corruption was caught by the CRC and counted on some endpoint.
  const auto corrupted = rig.pa->lib.counters().frames_corrupted +
                         rig.pb->lib.counters().frames_corrupted;
  const auto drops = rig.pa->lib.counters().checksum_drops +
                     rig.pb->lib.counters().checksum_drops;
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(drops, 0u);
}

TEST(FaultStack, DuplicatedFramesAreSuppressedSideEffectFree) {
  Rig rig(fast_retry_stack());
  net::FaultPlan plan;
  plan.duplicate = 1.0;  // every frame delivered twice
  transfer_and_verify(rig, plan, 256 * 1024);
  ASSERT_GT(rig.fabric->faults().stats().duplicates, 0u);
  const auto suppressed = rig.pa->lib.counters().duplicates_suppressed +
                          rig.pb->lib.counters().duplicates_suppressed;
  EXPECT_GT(suppressed, 0u);
}

TEST(FaultStack, ReorderedFramesStillAssembleBitExact) {
  Rig rig(fast_retry_stack());
  net::FaultPlan plan;
  plan.reorder = 0.5;
  plan.reorder_jitter = 40 * sim::kMicrosecond;
  transfer_and_verify(rig, plan, 256 * 1024);
  EXPECT_GT(rig.fabric->faults().stats().reorders, 0u);
}

TEST(FaultStack, BurstyLossRecoversEndToEnd) {
  Rig rig(fast_retry_stack());
  net::FaultPlan plan;
  plan.burst_enter = 0.02;
  plan.burst_exit = 0.25;
  plan.burst_loss = 1.0;
  transfer_and_verify(rig, plan, 256 * 1024);
  EXPECT_GT(rig.fabric->faults().stats().burst_drops, 0u);
}

TEST(FaultStack, FaultDecisionsAreTraced) {
  Rig rig(fast_retry_stack());
  test::CaptureSink trace;
  obs::Bus bus(rig.eng);
  bus.attach(&trace);
  rig.fabric->faults().set_bus(&bus);
  net::FaultPlan plan;
  plan.loss = 0.1;
  plan.corrupt = 0.1;
  transfer_and_verify(rig, plan, 128 * 1024);
  rig.fabric->faults().set_bus(nullptr);  // the bus dies before the rig

  EXPECT_NE(trace.find_first(obs::EventKind::kFaultDrop),
            test::CaptureSink::npos);
  EXPECT_NE(trace.find_first(obs::EventKind::kFaultCorrupt),
            test::CaptureSink::npos);
}

}  // namespace
}  // namespace pinsim::core
