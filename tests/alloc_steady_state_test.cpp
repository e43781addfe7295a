// Steady-state allocation contract of the eager path: once pools, rings and
// the receiver's bounded duplicate filter have seen their peak, an eager
// message — the send, the expected or unexpected receive, the ack, the
// switch hops and the coroutine awaiting each request — allocates nothing
// on the heap.
//
// The binary replaces the global allocation functions with counting ones
// that forward to malloc/free (so ASan still sees every block), which is
// why it is its own executable.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/config.hpp"
#include "core/host.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

std::size_t g_allocs = 0;
bool g_counting = false;

void* counted(std::size_t n) {
  if (g_counting) ++g_allocs;
  // pinlint: allow(D3: the replaced global allocator forwards to libc)
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting) ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void release(void* p) noexcept {
  // pinlint: allow(D3: the replaced global deallocator forwards to libc)
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace pinsim {
namespace {

/// Heap allocations made while alive.
class AllocCounter {
 public:
  AllocCounter() : start_(g_allocs) { g_counting = true; }
  ~AllocCounter() { g_counting = false; }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;
  [[nodiscard]] std::size_t count() const { return g_allocs - start_; }

 private:
  std::size_t start_;
};

constexpr std::size_t kOneFrag = 2048;        // one EAGER fragment
constexpr std::size_t kTwoFrags = 12 * 1024;  // two 8 kB-payload fragments
constexpr std::size_t kRndv = 64 * 1024;
/// The receiver remembers the last 8,192 completed messages for duplicate
/// suppression; that history table grows until it is full. Its growth is
/// bounded history, not a per-message cost, so the rig fills it first.
constexpr std::size_t kDuplicateMemory = 8192;
constexpr std::size_t kWarmup = 64;
constexpr std::size_t kMeasured = 1024;

/// Two hosts in two racks of one, so every frame crosses hop, uplink, hop
/// and downlink switch queues.
struct Rig {
  Rig() {
    net::Topology::Config tc;
    tc.nodes_per_rack = 1;
    tc.uplinks_per_rack = 1;
    topo = std::make_unique<net::Topology>(eng, tc);
    core::Host::Config hc;
    hc.memory_frames = 1024;
    for (int h = 0; h < 2; ++h) {
      hosts.push_back(std::make_unique<core::Host>(
          eng, *topo, hc, core::overlapped_cache_config()));
      hosts.back()->spawn_process();
    }
    for (std::size_t i = 0; i < 4; ++i) {
      sbuf[i] = a().heap.malloc(kRndv);
      rbuf[i] = b().heap.malloc(kRndv);
    }
    sends.reserve(4);
    recvs.reserve(4);
  }

  core::Host::Process& a() { return hosts[0]->process(0); }
  core::Host::Process& b() { return hosts[1]->process(0); }

  static sim::Task<> await_pair(core::Request& send, core::Request& recv,
                                std::size_t& done) {
    co_await recv.wait();
    co_await send.wait();
    ++done;
  }

  /// Runs until `done` reaches `n`, or fails after a simulated second.
  void run_until_done(const std::size_t& done, std::size_t n) {
    const sim::Time deadline = eng.now() + sim::kSecond;
    while (done < n && eng.now() < deadline) {
      eng.run_until(eng.now() + 100 * sim::kMicrosecond);
    }
    if (done < n) ++failures;
  }

  /// Four eager messages: 1 and 2 fragments, each received expected (posted
  /// before the data arrives) and unexpected (posted after it has arrived).
  void eager_round() {
    struct Msg {
      std::size_t len;
      bool expected;
    };
    static constexpr Msg kRound[4] = {{kOneFrag, true},
                                      {kTwoFrags, true},
                                      {kOneFrag, false},
                                      {kTwoFrags, false}};
    const std::uint64_t base = ++round << 8;
    recvs.clear();
    recvs.resize(4);
    for (std::size_t i = 0; i < 4; ++i) {
      if (kRound[i].expected) {
        recvs[i] = b().lib.irecv(base + i, ~0ULL, rbuf[i], kRound[i].len);
      }
    }
    eng.run_until(eng.now() + 20 * sim::kMicrosecond);
    sends.clear();
    for (std::size_t i = 0; i < 4; ++i) {
      sends.push_back(
          a().lib.isend(b().addr(), base + i, sbuf[i], kRound[i].len));
    }
    eng.run_until(eng.now() + 200 * sim::kMicrosecond);  // all arrived
    for (std::size_t i = 0; i < 4; ++i) {
      if (!kRound[i].expected) {
        recvs[i] = b().lib.irecv(base + i, ~0ULL, rbuf[i], kRound[i].len);
      }
    }
    std::size_t done = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      sim::spawn(eng, await_pair(*sends[i], *recvs[i], done));
    }
    run_until_done(done, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      if (!sends[i]->status().ok || !recvs[i]->status().ok) ++failures;
    }
    sends.clear();
    recvs.clear();
  }

  /// One 64 kB rendezvous message between the same buffers (region-cache
  /// hit on both sides after the first).
  void rndv_message() {
    const std::uint64_t match = ++round << 8;
    recvs.clear();
    recvs.push_back(b().lib.irecv(match, ~0ULL, rbuf[0], kRndv));
    sends.clear();
    sends.push_back(a().lib.isend(b().addr(), match, sbuf[0], kRndv));
    std::size_t done = 0;
    sim::spawn(eng, await_pair(*sends[0], *recvs[0], done));
    run_until_done(done, 1);
    if (!sends[0]->status().ok || !recvs[0]->status().ok) ++failures;
    sends.clear();
    recvs.clear();
  }

  /// Eager messages, rounded up to whole rounds of four.
  void eager_messages(std::size_t n) {
    for (std::size_t i = 0; i < n; i += 4) eager_round();
  }

  sim::Engine eng;
  std::unique_ptr<net::Topology> topo;
  std::vector<std::unique_ptr<core::Host>> hosts;
  mem::VirtAddr sbuf[4] = {};
  mem::VirtAddr rbuf[4] = {};
  std::vector<core::RequestPtr> sends, recvs;
  std::uint64_t round = 0;
  std::size_t failures = 0;
};

/// The five always-on sinks of the benches, on one bus.
struct Sinks {
  explicit Sinks(Rig& r) : rig(r), bus(r.eng), flight(flight_config()) {
    for (obs::Sink* s : {static_cast<obs::Sink*>(&checker),
                         static_cast<obs::Sink*>(&latency),
                         static_cast<obs::Sink*>(&critical_path),
                         static_cast<obs::Sink*>(&metrics),
                         static_cast<obs::Sink*>(&flight)}) {
      bus.attach(s);
    }
    for (auto& h : rig.hosts) h->driver().set_bus(&bus);
    rig.topo->faults().set_bus(&bus);
    rig.topo->set_bus(&bus);
  }
  ~Sinks() {
    for (auto& h : rig.hosts) h->driver().set_bus(nullptr);
    rig.topo->faults().set_bus(nullptr);
    rig.topo->set_bus(nullptr);
  }
  Sinks(const Sinks&) = delete;
  Sinks& operator=(const Sinks&) = delete;
  static obs::FlightRecorder::Config flight_config() {
    obs::FlightRecorder::Config fc;
    fc.max_dumps = 0;  // count dumps, write nothing
    return fc;
  }

  Rig& rig;
  obs::Bus bus;
  obs::InvariantChecker checker;
  obs::LatencyRecorder latency;
  obs::CriticalPathAnalyzer critical_path;
  obs::MetricsSampler metrics;
  obs::FlightRecorder flight;
};

TEST(AllocSteadyState, EagerMessageAllocatesNothing) {
  Rig rig;
  rig.eager_messages(kDuplicateMemory + kWarmup);
  std::size_t allocs = 0;
  {
    const AllocCounter counter;
    rig.eager_messages(kMeasured);
    allocs = counter.count();
  }
  std::printf("eager, no sinks: %zu allocations over %zu messages\n", allocs,
              kMeasured);
  EXPECT_EQ(rig.failures, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocSteadyState, SinksAddOnlyAmortizedGrowth) {
  Rig rig;
  Sinks sinks(rig);
  rig.eager_messages(kDuplicateMemory + kWarmup);
  std::size_t allocs = 0;
  {
    const AllocCounter counter;
    rig.eager_messages(kMeasured);
    allocs = counter.count();
  }
  std::printf("eager, five sinks: %zu allocations over %zu messages\n",
              allocs, kMeasured);
  EXPECT_EQ(rig.failures, 0u);
  EXPECT_EQ(sinks.checker.violation_count(), 0u);
  // The sinks keep per-message history (latency samples, metric series) in
  // vectors that double: a few growths, however many messages.
  EXPECT_LE(allocs, 16u);
}

TEST(AllocSteadyState, RendezvousCacheHitAllocatesNoMoreThanBefore) {
  Rig rig;
  rig.eager_messages(kWarmup);
  for (std::size_t i = 0; i < 16; ++i) rig.rndv_message();
  constexpr std::size_t kMessages = 64;
  std::size_t allocs = 0;
  {
    const AllocCounter counter;
    for (std::size_t i = 0; i < kMessages; ++i) rig.rndv_message();
    allocs = counter.count();
  }
  const double per_message =
      static_cast<double>(allocs) / static_cast<double>(kMessages);
  std::printf("rendezvous 64 kB, cache hit: %.2f allocations per message\n",
              per_message);
  EXPECT_EQ(rig.failures, 0u);
  // 43.47 per message before requests, segment lists, receive records,
  // coroutine frames and frame buffers were pooled. What remains is the
  // rendezvous machinery: region-cache key copies, pull-state blocks and
  // the pull-reply copy closures.
  EXPECT_LE(per_message, 43.47);
}

}  // namespace
}  // namespace pinsim
