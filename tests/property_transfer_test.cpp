// Property-style parameterized sweeps over the whole stack: every pinning
// configuration x message sizes x loss rates, with end-to-end payload
// verification and resource-conservation invariants after drain.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/host.hpp"
#include "net/fault.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

const char* config_name(int idx) {
  switch (idx) {
    case 0:
      return "regular";
    case 1:
      return "overlapped";
    case 2:
      return "cache";
    case 3:
      return "overlap_cache";
    case 4:
      return "permanent";
    case 5:
      return "nopin";
    default:
      return "?";
  }
}

StackConfig config_by_index(int idx) {
  switch (idx) {
    case 0:
      return regular_pinning_config();
    case 1:
      return overlapped_pinning_config();
    case 2:
      return pinning_cache_config();
    case 3:
      return overlapped_cache_config();
    case 4:
      return permanent_pinning_config();
    default:
      return qsnet_ideal_config();
  }
}

struct Rig {
  Rig(StackConfig stack, net::Fabric::Config net_cfg = {},
      bool with_ioat = false) {
    fabric = std::make_unique<net::Fabric>(eng, net_cfg);
    Host::Config hc;
    hc.memory_frames = 24576;
    hc.with_ioat = with_ioat;
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

std::vector<std::byte> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 2654435761u + salt) >> 13);
  }
  return v;
}

/// (config index, message size)
class TransferMatrix
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(TransferMatrix, PayloadIntactAndResourcesConserved) {
  const auto [cfg_idx, size] = GetParam();
  SCOPED_TRACE(config_name(cfg_idx));
  Rig rig(config_by_index(cfg_idx));

  const auto src = rig.pa->heap.malloc(std::max<std::size_t>(size, 1));
  const auto dst = rig.pb->heap.malloc(std::max<std::size_t>(size, 1));
  const auto data = pattern(size, static_cast<std::uint32_t>(cfg_idx));
  if (size > 0) rig.pa->as.write(src, data);

  Status s_st, r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n, Status& out) -> sim::Task<> {
    out = co_await lib.send(to, 5, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, size, s_st));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(5, kAll, buf, n);
  }(rig.pb->lib, dst, size, r_st));
  rig.eng.run();
  rig.eng.rethrow_task_failures();

  ASSERT_TRUE(s_st.ok);
  ASSERT_TRUE(r_st.ok);
  ASSERT_EQ(r_st.len, size);
  if (size > 0) {
    std::vector<std::byte> got(size);
    rig.pb->as.read(dst, got);
    ASSERT_EQ(got, data);
  }

  // Conservation invariants after drain.
  EXPECT_EQ(rig.pa->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
  const auto& cfg = config_by_index(cfg_idx);
  if (cfg.pinning.mode == PinMode::kPerCommunication ||
      cfg.pinning.mode == PinMode::kNone) {
    // Nothing may stay pinned without a cache (or without pinning at all).
    EXPECT_EQ(rig.a->memory().pinned_pages(), 0u);
    EXPECT_EQ(rig.b->memory().pinned_pages(), 0u);
  }
  // Page pins taken == released + still-held (held only via live regions).
  const auto& sa = rig.pa->as.stats();
  EXPECT_EQ(sa.pins - sa.unpins, rig.a->memory().pinned_pages());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsTimesSizes, TransferMatrix,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{4096},
                                         std::size_t{32 * 1024},
                                         std::size_t{32 * 1024 + 1},
                                         std::size_t{1024 * 1024})),
    [](const auto& info) {
      return std::string(config_name(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "b";
    });

/// Loss-rate sweep: the protocol must deliver correct data at any loss rate.
class LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(LossSweep, CorrectUnderLoss) {
  const double p = GetParam() / 100.0;
  net::Fabric::Config net_cfg;
  net_cfg.seed = 1000 + static_cast<std::uint64_t>(GetParam());
  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  Rig rig(stack, net_cfg);
  rig.fabric->faults().set_plan({.loss = p});

  const std::size_t size = 256 * 1024;
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  const auto data = pattern(size, 99);
  rig.pa->as.write(src, data);

  Status r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 6, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, size));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(6, kAll, buf, n);
  }(rig.pb->lib, dst, size, r_st));
  rig.eng.run();
  rig.eng.rethrow_task_failures();

  ASSERT_TRUE(r_st.ok) << "loss " << p;
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  ASSERT_EQ(got, data) << "loss " << p;
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep,
                         ::testing::Values(1, 5, 10, 20, 35));

// --- injected-fault matrix ---------------------------------------------------

/// Named fault plans for the seeded sweep below.
struct FaultCase {
  const char* name;
  net::FaultPlan plan;
};

std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> out;
  net::FaultPlan p;
  p.loss = 0.05;
  out.push_back({"loss5", p});
  p = {};
  p.loss = 0.10;
  out.push_back({"loss10", p});
  p = {};
  p.burst_enter = 0.02;
  p.burst_exit = 0.25;
  p.burst_loss = 1.0;
  out.push_back({"burst", p});
  p = {};
  p.corrupt = 0.08;
  out.push_back({"corrupt", p});
  p = {};
  p.duplicate = 0.25;
  out.push_back({"dup", p});
  p = {};
  p.reorder = 0.4;
  p.reorder_jitter = 40 * sim::kMicrosecond;
  out.push_back({"reorder", p});
  p = {};
  p.loss = 0.05;
  p.corrupt = 0.03;
  p.duplicate = 0.05;
  p.reorder = 0.1;
  p.reorder_jitter = 30 * sim::kMicrosecond;
  out.push_back({"mixed", p});
  return out;
}

struct Transport {
  const char* name;
  std::size_t size;
  bool ioat;
};

constexpr Transport kTransports[] = {
    {"eager", 16 * 1024, false},
    {"rndv", 256 * 1024, false},
    {"rndv_ioat", 256 * 1024, true},
};

/// (fault case index, transport index, seed)
class FaultMatrix : public ::testing::TestWithParam<
                        std::tuple<int, int, std::uint64_t>> {};

TEST_P(FaultMatrix, DeliversBitExactWithBoundedRetries) {
  const auto [fault_idx, transport_idx, seed] = GetParam();
  const FaultCase fc = fault_cases()[static_cast<std::size_t>(fault_idx)];
  const Transport tr = kTransports[transport_idx];
  SCOPED_TRACE(fc.name);

  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  stack.protocol.use_ioat = tr.ioat;
  net::Fabric::Config net_cfg;
  net_cfg.seed = seed;  // seeds the fault injector (reproducible verdicts)
  Rig rig(stack, net_cfg, /*with_ioat=*/tr.ioat);
  rig.fabric->faults().set_plan(fc.plan);

  const std::size_t size = tr.size;
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  const auto data = pattern(size, static_cast<std::uint32_t>(seed * 31 + 7));
  rig.pa->as.write(src, data);

  Status s_st, r_st;
  sim::spawn(rig.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                         std::size_t n, Status& out) -> sim::Task<> {
    out = co_await lib.send(to, 8, buf, n);
  }(rig.pa->lib, rig.pb->addr(), src, size, s_st));
  sim::spawn(rig.eng, [](Library& lib, mem::VirtAddr buf, std::size_t n,
                         Status& out) -> sim::Task<> {
    out = co_await lib.recv(8, kAll, buf, n);
  }(rig.pb->lib, dst, size, r_st));
  rig.eng.run();
  rig.eng.rethrow_task_failures();

  ASSERT_TRUE(s_st.ok);
  ASSERT_TRUE(r_st.ok);
  ASSERT_EQ(r_st.len, size);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  ASSERT_EQ(got, data);

  // Recovery must come from the fine-grained pull retry / dup suppression /
  // optimistic re-request machinery, not from burning the retry budget: no
  // request may abort, and coarse timeouts must stay far below the budget.
  const auto timeouts = rig.pa->lib.counters().retransmit_timeouts +
                        rig.pb->lib.counters().retransmit_timeouts;
  EXPECT_EQ(rig.pa->lib.counters().retry_exhausted, 0u);
  EXPECT_EQ(rig.pb->lib.counters().retry_exhausted, 0u);
  EXPECT_EQ(rig.pa->lib.counters().aborts, 0u);
  EXPECT_EQ(rig.pb->lib.counters().aborts, 0u);
  EXPECT_LE(timeouts,
            static_cast<std::uint64_t>(stack.protocol.retry_budget));
  EXPECT_EQ(rig.pa->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultsTimesTransports, FaultMatrix,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Range(0, 3),
                       ::testing::Values(std::uint64_t{17},
                                         std::uint64_t{4242})),
    [](const auto& info) {
      return std::string(
                 fault_cases()[static_cast<std::size_t>(
                                   std::get<0>(info.param))]
                     .name) +
             "_" + kTransports[std::get<1>(info.param)].name + "_s" +
             std::to_string(std::get<2>(info.param));
    });

/// Randomized traffic fuzz: a mix of eager and rendezvous messages with
/// random sizes, random posting delays, and distinct tags, all verified.
class TrafficFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficFuzz, ManyRandomMessagesAllArriveIntact) {
  sim::Rng rng(GetParam());
  StackConfig stack =
      rng.bernoulli(0.5) ? overlapped_cache_config() : pinning_cache_config();
  Rig rig(stack);

  constexpr int kMessages = 24;
  struct Msg {
    std::size_t size;
    mem::VirtAddr src;
    mem::VirtAddr dst;
    std::vector<std::byte> data;
    Status recv_st;
  };
  std::vector<Msg> msgs(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    Msg& m = msgs[static_cast<std::size_t>(i)];
    // Half eager-sized, half rendezvous-sized.
    m.size = rng.bernoulli(0.5) ? 1 + rng.next_below(32 * 1024)
                                : 33 * 1024 + rng.next_below(512 * 1024);
    m.src = rig.pa->heap.malloc(m.size);
    m.dst = rig.pb->heap.malloc(m.size);
    m.data = pattern(m.size, static_cast<std::uint32_t>(i * 7919));
    rig.pa->as.write(m.src, m.data);
  }

  // Sender: all messages, random spacing. Receiver: posts in random order
  // with random delays (so some messages are unexpected).
  sim::spawn(rig.eng, [](sim::Engine& eng, Library& lib, EndpointAddr to,
                         std::vector<Msg>& ms, std::uint64_t seed)
                 -> sim::Task<> {
    sim::Rng r(seed);
    for (int i = 0; i < kMessages; ++i) {
      co_await sim::delay(eng, r.next_below(50) * sim::kMicrosecond);
      auto req = lib.isend(to, 0x100 + static_cast<std::uint64_t>(i),
                           ms[static_cast<std::size_t>(i)].src,
                           ms[static_cast<std::size_t>(i)].size);
      co_await req->wait();
    }
  }(rig.eng, rig.pa->lib, rig.pb->addr(), msgs, GetParam() ^ 1));

  std::vector<int> order(kMessages);
  for (int i = 0; i < kMessages; ++i) order[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  sim::spawn(rig.eng, [](sim::Engine& eng, Library& lib, std::vector<Msg>& ms,
                         std::vector<int> ord, std::uint64_t seed)
                 -> sim::Task<> {
    sim::Rng r(seed);
    std::vector<RequestPtr> reqs;
    for (int idx : ord) {
      co_await sim::delay(eng, r.next_below(120) * sim::kMicrosecond);
      reqs.push_back(lib.irecv(0x100 + static_cast<std::uint64_t>(idx), kAll,
                               ms[static_cast<std::size_t>(idx)].dst,
                               ms[static_cast<std::size_t>(idx)].size));
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      co_await reqs[i]->wait();
      ms[static_cast<std::size_t>(ord[i])].recv_st = reqs[i]->status();
    }
  }(rig.eng, rig.pb->lib, msgs, order, GetParam() ^ 2));

  rig.eng.run();
  rig.eng.rethrow_task_failures();

  for (int i = 0; i < kMessages; ++i) {
    const Msg& m = msgs[static_cast<std::size_t>(i)];
    ASSERT_TRUE(m.recv_st.ok) << "message " << i;
    ASSERT_EQ(m.recv_st.len, m.size) << "message " << i;
    std::vector<std::byte> got(m.size);
    rig.pb->as.read(m.dst, got);
    ASSERT_EQ(got, m.data) << "message " << i << " size " << m.size;
  }
  EXPECT_EQ(rig.pa->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficFuzz,
                         ::testing::Values(11, 23, 47, 89, 131));

}  // namespace
}  // namespace pinsim::core
