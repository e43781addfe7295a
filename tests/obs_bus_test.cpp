// Where the obs bus delivers: on its worker thread when every attached sink
// allows it, inline otherwise. Every output a run produces — run report,
// critical path, metrics, lifecycle, Chrome trace, flight dump and its
// stderr digest — must be byte-identical either way; a query right after a
// run must see every event; a sink may die with a backlog; a sink's
// exception must surface on the simulation thread; a one-CPU process and an
// inline sink keep delivery inline; and a bus has at most one worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench_util.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/latency.hpp"
#include "sim/cpus.hpp"
#include "sim/task.hpp"
#include "workloads/imb.hpp"

namespace pinsim {
namespace {

/// A sink that keeps the bus inline: it only counts.
struct InlineProbe final : obs::Sink {
  void on_event(const obs::Event&) override { ++events; }
  std::uint64_t events = 0;
};

/// A sink the worker may deliver to; records the delivering thread and can
/// throw on its `throw_at`-th event.
struct WorkerProbe final : obs::Sink {
  ~WorkerProbe() override {
    wait_idle();
    if (seen_at_exit != nullptr) *seen_at_exit = events;
  }
  void on_event(const obs::Event&) override {
    thread = std::this_thread::get_id();
    if (++events == throw_at) throw std::runtime_error("probe threw");
    for (int i = 0; i < spin; ++i) sink_hole.fetch_add(1);
  }
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }
  [[nodiscard]] std::uint64_t seen() const {
    drain();
    return events;
  }

  std::uint64_t events = 0;
  std::uint64_t throw_at = 0;
  int spin = 0;  // busy work per event, to build a backlog
  std::thread::id thread;
  std::uint64_t* seen_at_exit = nullptr;
  std::atomic<std::uint64_t> sink_hole{0};
};

obs::Event bogus_port_queue() {
  obs::Event e;
  e.kind = obs::EventKind::kNetPortQueue;
  e.offset = 9;  // depth above capacity: an invariant violation
  e.len = 4;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Everything a run writes, for a byte-for-byte comparison.
struct Outputs {
  std::string report, digest, invariants, trace, dump, err;
  bool threaded = false;
};

/// Runs `drive` on `c` under the benches' ObsRig plus a Chrome-trace
/// writer, injects an invariant violation at `violate_at` (the rig's hook
/// dumps the flight recorder), and collects every output. `force_inline`
/// attaches an inline probe.
template <typename Drive>
Outputs observe(bench::Cluster& c, const std::string& name, bool force_inline,
                sim::Time violate_at, Drive drive) {
  // One path for both runs: the dump's stderr digest names it.
  const std::string stem = ::testing::TempDir() + "obs_bus_" + name;
  Outputs out;
  ::testing::internal::CaptureStderr();
  {
    bench::ObsRig rig(c, "", stem);
    obs::ChromeTraceWriter chrome(stem + ".trace.json");
    InlineProbe probe;
    rig.bus.attach(&chrome);
    if (force_inline) rig.bus.attach(&probe);
    out.threaded = rig.bus.threaded();
    c.eng.schedule_at(violate_at, [&rig] { rig.bus.emit(bogus_port_queue()); });
    drive();
    EXPECT_TRUE(rig.check_engine());
    EXPECT_EQ(rig.finish(), 1);
    out.report = rig.json_report();
    out.digest = rig.digest();
    out.invariants = rig.checker.report();
    out.trace = chrome.render();
    EXPECT_EQ(probe.events != 0, force_inline);
  }
  out.err = ::testing::internal::GetCapturedStderr();
  out.dump = slurp(stem + "-1.flight.json");
  std::remove((stem + "-1.flight.json").c_str());
  std::remove((stem + ".trace.json").c_str());
  return out;
}

void expect_identical(const Outputs& worker, const Outputs& in_line) {
  if (sim::affinity_cpus() > 1) {
    EXPECT_TRUE(worker.threaded);
  }
  EXPECT_FALSE(in_line.threaded);
  EXPECT_EQ(worker.report, in_line.report);
  EXPECT_EQ(worker.digest, in_line.digest);
  EXPECT_EQ(worker.invariants, in_line.invariants);
  EXPECT_EQ(worker.trace, in_line.trace);
  EXPECT_EQ(worker.dump, in_line.dump);
  EXPECT_EQ(worker.err, in_line.err);
  EXPECT_NE(worker.dump.find("switch port queue depth"), std::string::npos);
  EXPECT_NE(worker.err.find("flight recorder: invariant:"), std::string::npos);
}

/// The Fig 7 trace rerun: Overlap+Cache PingPong at 1 MB, rotating buffers.
Outputs fig7_pair(bool force_inline) {
  bench::Cluster c(cpu::xeon_e5460(), core::overlapped_cache_config(),
                   /*nranks=*/2, /*with_ioat=*/false, /*memory_frames=*/8192);
  return observe(c, "fig7", force_inline, 500 * sim::kMicrosecond, [&c] {
    workloads::ImbSuite::Config cfg;
    cfg.iterations = 4;
    cfg.buffer_rotation = 4;
    workloads::ImbSuite imb(*c.comm, cfg);
    (void)imb.pingpong(1024 * 1024);
  });
}

/// The uniform cluster stage in miniature: 8 hosts in 2 racks, 2 tenants a
/// host under a pin quota, XOR-paired rounds across hosts, 1 message in 8 a
/// 64 kB rendezvous and the rest 2 kB eager.
Outputs cluster_stage(bool force_inline) {
  net::Topology::Config tc;
  tc.nodes_per_rack = 4;
  tc.uplinks_per_rack = 2;
  bench::Cluster c(cpu::xeon_e5460(), core::overlapped_cache_config(), tc,
                   /*num_hosts=*/8, /*cores=*/3, /*memory_frames=*/1024);
  std::vector<core::Host::Process*> procs;
  for (auto& h : c.hosts) {
    h->enable_pin_arbitration();
    h->memory().set_pin_quota(48);
    for (int p = 0; p < 2; ++p) procs.push_back(&h->spawn_process());
  }
  return observe(c, "cluster", force_inline, 300 * sim::kMicrosecond,
                 [&c, &procs] {
    const std::size_t n = procs.size();
    for (std::size_t round = 1; round <= 6; ++round) {
      std::vector<core::RequestPtr> reqs;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i ^ (2 * round % n);  // a tenant on another host
        const std::size_t len = (i + round) % 8 == 0 ? 64 * 1024 : 2048;
        const std::uint64_t match = round * 100 + i;
        reqs.push_back(procs[j]->lib.irecv(match, ~0ull,
                                           procs[j]->heap.malloc(len), len));
        reqs.push_back(procs[i]->lib.isend(procs[j]->addr(), match,
                                           procs[i]->heap.malloc(len), len));
      }
      bool done = false;
      for (int step = 0; step < 200 && !done; ++step) {
        c.eng.run_until(c.eng.now() + sim::kMillisecond);
        done = std::all_of(reqs.begin(), reqs.end(),
                           [](const auto& r) { return r->completed(); });
      }
      EXPECT_TRUE(done) << "round " << round << " did not complete";
    }
  });
}

TEST(BusDelivery, Fig7PairIsIdenticalOnTheWorkerAndInline) {
  expect_identical(fig7_pair(false), fig7_pair(true));
}

TEST(BusDelivery, ClusterStageIsIdenticalOnTheWorkerAndInline) {
  expect_identical(cluster_stage(false), cluster_stage(true));
}

TEST(BusDelivery, QueryAfterAStepDrivenRunSeesEveryEvent) {
  // The same PingPong twice: inline, the count is exact at emission; on the
  // worker, the query after run_ranks must drain to the same count.
  std::uint64_t counts[2] = {};
  std::uint64_t sends[2] = {};
  for (const bool force_inline : {true, false}) {
    bench::Cluster c(cpu::xeon_e5460(), core::overlapped_cache_config(),
                     /*nranks=*/2, /*with_ioat=*/false, /*memory_frames=*/4096);
    obs::Bus bus(c.eng);
    obs::LatencyRecorder latency;
    WorkerProbe worker;
    InlineProbe probe;
    bus.attach(&latency);
    bus.attach(&worker);
    if (force_inline) bus.attach(&probe);
    for (auto& h : c.hosts) h->driver().set_bus(&bus);
    constexpr int kRounds = 16;
    mpi::run_ranks(c.eng, 2, [&c](int rank) -> sim::Task<> {
      auto& p = c.comm->process(rank);
      const mem::VirtAddr buf = p.heap.malloc(256 * 1024);
      for (int i = 0; i < kRounds; ++i) {
        if ((rank == 0) == (i % 2 == 0)) {
          co_await c.comm->send(rank, 1 - rank, i, buf, 256 * 1024);
        } else {
          co_await c.comm->recv(rank, 1 - rank, i, buf, 256 * 1024);
        }
      }
    });
    EXPECT_EQ(bus.threaded(), !force_inline && sim::affinity_cpus() > 1);
    sends[force_inline ? 0 : 1] = latency.send_latency().count();
    counts[force_inline ? 0 : 1] = worker.seen();
    EXPECT_EQ(sends[force_inline ? 0 : 1], std::uint64_t{kRounds});
    for (auto& h : c.hosts) h->driver().set_bus(nullptr);
  }
  EXPECT_GT(counts[0], 0u);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(sends[0], sends[1]);
}

TEST(BusDelivery, DestroyingASinkWithABacklogIsClean) {
  sim::Engine eng;
  obs::Bus bus(eng);
  obs::LatencyRecorder latency;
  auto slow = std::make_unique<WorkerProbe>();
  slow->spin = 200;
  std::uint64_t seen_at_exit = 0;
  slow->seen_at_exit = &seen_at_exit;
  bus.attach(&latency);
  bus.attach(slow.get());
  constexpr std::uint64_t kEvents = 40000;  // more than the ring holds
  obs::Event post;
  post.kind = obs::EventKind::kEagerPost;
  obs::Event done = post;
  done.kind = obs::EventKind::kSendDone;
  for (std::uint64_t i = 0; i < kEvents / 2; ++i) {
    post.seq = done.seq = static_cast<std::uint32_t>(i);
    bus.emit(post);
    bus.emit(done);
  }
  slow.reset();  // the worker may still hold most of the stream
  EXPECT_EQ(seen_at_exit, kEvents);
  bus.emit(post);
  bus.emit(done);
  EXPECT_EQ(latency.send_latency().count(), kEvents / 2 + 1);
}

TEST(BusDelivery, ASinkExceptionResurfacesAtFinalize) {
  sim::Engine eng;
  obs::Bus bus(eng);
  WorkerProbe probe;
  probe.throw_at = 10;
  bus.attach(&probe);
  if (!bus.threaded()) GTEST_SKIP() << "one CPU: delivery is inline";
  obs::Event e;
  e.kind = obs::EventKind::kDmaCopy;
  for (int i = 0; i < 20; ++i) bus.emit(e);  // the worker catches it
  try {
    bus.finalize();
    FAIL() << "finalize did not rethrow the sink's exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "probe threw");
  }
  // Events after the throw were dropped; once rethrown, delivery resumes.
  const std::uint64_t after_throw = probe.seen();
  EXPECT_EQ(after_throw, 10u);
  bus.emit(e);
  EXPECT_EQ(probe.seen(), after_throw + 1);
}

#if defined(__linux__)
TEST(BusDelivery, AOneCpuAffinityMaskKeepsDeliveryInline) {
  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  {
    sim::Engine eng;
    obs::Bus bus(eng);
    WorkerProbe probe;
    bus.attach(&probe);
    obs::Event e;
    e.kind = obs::EventKind::kDmaCopy;
    bus.emit(e);
    EXPECT_FALSE(bus.threaded());
    EXPECT_EQ(probe.events, 1u);  // delivered inside emit
    EXPECT_EQ(probe.thread, std::this_thread::get_id());
  }
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
}

/// Threads of this process, from /proc/self/status.
int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(BusDelivery, OneWorkerPerBusJoinedWhenTheBusDies) {
  if (sim::affinity_cpus() <= 1) GTEST_SKIP() << "one CPU: no worker";
  // A sanitizer runtime may start a helper thread with the first thread.
  std::thread([] {}).join();
  const int before = thread_count();
  {
    sim::Engine eng;
    obs::Bus bus(eng);
    WorkerProbe a, b;
    InlineProbe in_line;
    EXPECT_FALSE(bus.threaded());
    bus.attach(&a);
    EXPECT_TRUE(bus.threaded());
    bus.attach(&in_line);  // one inline sink makes the whole bus inline
    EXPECT_FALSE(bus.threaded());
    bus.detach(&in_line);
    bus.attach(&b);
    bus.detach(&a);
    bus.attach(&a);
    EXPECT_TRUE(bus.threaded());
    EXPECT_EQ(thread_count(), before);  // started by the first event
    obs::Event e;
    e.kind = obs::EventKind::kDmaCopy;
    bus.emit(e);
    bus.detach(&b);
    bus.emit(e);
    EXPECT_EQ(thread_count(), before + 1);
    EXPECT_EQ(a.seen(), 2u);
  }
  EXPECT_EQ(thread_count(), before);
}
#endif

}  // namespace
}  // namespace pinsim
