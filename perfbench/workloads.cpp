#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/config.hpp"
#include "core/host.hpp"
#include "ledger.hpp"
#include "mpi/communicator.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "workloads/imb.hpp"

namespace perfbench {

using namespace pinsim;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// --- seeded generator -------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Seeded payload source: a message's payload is the window of one seeded
/// block picked by its salt, so producing and checking a payload costs a
/// copy and a compare, not a generator loop.
class Payloads {
 public:
  explicit Payloads(std::uint64_t seed) : block_(kBlock) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kBlock; i += 8) {
      const std::uint64_t x = rng.next();
      std::memcpy(block_.data() + i, &x, 8);
    }
  }
  [[nodiscard]] std::span<const std::byte> get(std::size_t n,
                                               std::uint64_t salt) const {
    const std::size_t off =
        static_cast<std::size_t>(salt * 0x9e3779b97f4a7c15ULL >> 20) %
        (kBlock - n + 1);
    return {block_.data() + off, n};
  }

 private:
  static constexpr std::size_t kBlock = 1 << 20;  // > every checked message
  std::vector<std::byte> block_;
};

double percentile(std::vector<sim::Time> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

// --- simulated system -------------------------------------------------------

/// Host and topology construction in the shape of bench::Cluster.
struct Cluster {
  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  net::Topology* topo = nullptr;
  std::vector<std::unique_ptr<core::Host>> hosts;
};

/// The paper's testbed: two hosts on the point-to-point fabric, one process
/// each (rank r on host r).
std::unique_ptr<Cluster> two_hosts(const core::StackConfig& stack,
                                   std::uint64_t link_seed,
                                   std::size_t memory_frames) {
  auto c = std::make_unique<Cluster>();
  net::Fabric::Config fc;
  fc.seed = link_seed;
  c->fabric = std::make_unique<net::Fabric>(c->eng, fc);
  core::Host::Config hc;
  hc.memory_frames = memory_frames;
  for (int h = 0; h < 2; ++h) {
    hc.name = h == 0 ? "hostA" : "hostB";
    c->hosts.push_back(
        std::make_unique<core::Host>(c->eng, *c->fabric, hc, stack));
    c->hosts.back()->spawn_process();
  }
  return c;
}

constexpr std::size_t kHosts = 16;  // two racks of 8
constexpr std::size_t kProcsPerHost = 16;
constexpr std::size_t kEndpoints = kHosts * kProcsPerHost;
constexpr std::size_t kEager = 2048;
constexpr std::size_t kRendezvous = 64 * 1024;
constexpr std::size_t kPinQuota = 320;  // pages/host shared by 16 tenants

/// Short protocol timers and bounded retry budgets, as in the cluster soak.
core::StackConfig rack_stack() {
  core::StackConfig stack = core::overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 2 * sim::kMillisecond;
  stack.protocol.retry_budget = 12;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  stack.protocol.pull_stall_budget = 24;
  stack.pinning.pin_retry_backoff = 30 * sim::kMicrosecond;
  stack.pinning.pin_retry_backoff_max = 1 * sim::kMillisecond;
  stack.pinning.pin_retry_budget = 16;
  return stack;
}

/// 16 hosts in two racks of 8 behind bounded switch queues, 16 tenant
/// processes per host arbitrating a contended pin quota.
std::unique_ptr<Cluster> rack_cluster(std::size_t downlink_queue,
                                      std::uint64_t link_seed) {
  auto c = std::make_unique<Cluster>();
  net::Topology::Config tc;
  tc.nodes_per_rack = 8;
  tc.uplinks_per_rack = 2;
  tc.downlink_queue_frames = downlink_queue;
  tc.uplink_queue_frames = 128;
  tc.link.seed = link_seed;
  auto topo = std::make_unique<net::Topology>(c->eng, tc);
  c->topo = topo.get();
  c->fabric = std::move(topo);
  core::Host::Config hc;
  hc.cores = kProcsPerHost + 1;
  hc.memory_frames = 1024;  // 4 MiB/host: 16 tenants' buffers fit twice over
  for (std::size_t h = 0; h < kHosts; ++h) {
    hc.name = "host" + std::to_string(h);
    c->hosts.push_back(
        std::make_unique<core::Host>(c->eng, *c->fabric, hc, rack_stack()));
    core::Host& host = *c->hosts.back();
    host.enable_pin_arbitration();
    host.memory().set_pin_quota(kPinQuota);
    for (std::size_t p = 0; p < kProcsPerHost; ++p) host.spawn_process();
  }
  return c;
}

/// The always-on observability sinks of the repo's benches (invariant
/// checker, latency recorder, critical-path analyzer, metrics sampler,
/// flight recorder). Traced runs attach them through a TimedFanout and put
/// a TimedObserver on the engine. Flight dumps are counted, never written.
class Rig {
  Cluster& c_;
  bool detached_ = false;

 public:
  Rig(Cluster& c, Ledger* ledger, const Options& opt)
      : c_(c), bus(c.eng), flight(flight_config()) {
    checker.set_violation_hook(
        [this](const obs::InvariantChecker::Violation& v) {
          flight.dump("invariant: " + v.message);
        });
    const std::pair<const char*, obs::Sink*> sinks[] = {
        {"invariants", &checker},
        {"latency", &latency},
        {"critical_path", &critical_path},
        {"metrics", &metrics},
        {"flight", &flight}};
    if (ledger != nullptr) {
      fanout = std::make_unique<TimedFanout>(*ledger);
      for (const auto& [name, sink] : sinks) fanout->add(name, sink);
      if (!opt.inject_sink.empty()) {
        fanout->inject(opt.inject_sink, opt.inject_ns);
      }
      bus.attach(fanout.get());
      observer = std::make_unique<TimedObserver>(*ledger, c.eng);
      if (!opt.inject_tag.empty()) observer->inject(opt.inject_tag, opt.inject_ns);
    } else {
      for (const auto& [name, sink] : sinks) bus.attach(sink);
    }
    for (auto& h : c.hosts) h->driver().set_bus(&bus);
    c.fabric->faults().set_bus(&bus);
    c.fabric->set_bus(&bus);
  }
  ~Rig() { detach(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Ends the run: flushes the sinks, then fails `r` on any invariant
  /// violation or engine self-check failure.
  void finish(UnitResult& r) {
    std::string why;
    if (!c_.eng.self_check(&why)) {
      flight.dump("engine self-check: " + why);
      r.fail("engine self-check: " + why);
    }
    bus.finalize();
    if (checker.violation_count() != 0) {
      r.fail(std::to_string(checker.violation_count()) +
             " invariant violation(s): " + checker.report());
    }
    detach();
  }

  obs::Bus bus;
  obs::InvariantChecker checker;
  obs::LatencyRecorder latency;
  obs::CriticalPathAnalyzer critical_path;
  obs::MetricsSampler metrics;
  obs::FlightRecorder flight;
  std::unique_ptr<TimedFanout> fanout;
  std::unique_ptr<TimedObserver> observer;

 private:
  static obs::FlightRecorder::Config flight_config() {
    obs::FlightRecorder::Config fc;
    fc.max_dumps = 0;  // count dump attempts; write no files, print nothing
    return fc;
  }
  void detach() {
    if (detached_) return;
    detached_ = true;
    if (c_.eng.dispatch_observer() == observer.get()) {
      c_.eng.set_dispatch_observer(nullptr);
    }
    checker.set_violation_hook(nullptr);
    for (auto& h : c_.hosts) h->driver().set_bus(nullptr);
    c_.fabric->faults().set_bus(nullptr);
    c_.fabric->set_bus(nullptr);
  }
};

// --- metric accumulation ----------------------------------------------------

/// Sums over every measured system of a unit (pingpong_rndv builds five).
struct Tally {
  double wall_s = 0.0;
  std::uint64_t sim_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t rndv_frames_needed = 0;  // PULL_REPLY frames a clean run sends
  std::vector<sim::Time> latency;       // per delivered message, post->done
  std::map<std::string, double> n;      // summed stats
  std::uint64_t max_queue_depth = 0;
  double pin_p50_us = 0.0, pin_p99_us = 0.0;
  std::uint64_t pin_samples = 0;
  std::uint64_t fanout_events = 0;
  std::uint64_t timer_events = 0;
  std::vector<std::uint32_t> bh_lag;

  void add_system(Cluster& c, Rig& rig) {
    // Dotted keys are reported as they are; the others feed ratios.
    const auto add = [this](const char* key, double v) { n[key] += v; };
    for (auto& h : c.hosts) {
      const auto& nic = h->nic().stats();
      add("net.tx_frames", static_cast<double>(nic.tx_frames));
      add("core.wire.frames", static_cast<double>(nic.tx_frames + nic.rx_frames));
      add("core.wire.bytes", static_cast<double>(nic.tx_bytes + nic.rx_bytes));
      add("tx_bytes", static_cast<double>(nic.tx_bytes));
      for (std::size_t i = 0; i < h->core_count(); ++i) {
        const auto& busy = h->core(i).stats().busy;
        add("bh_busy_ns", static_cast<double>(busy[0]));
        add("kernel_busy_ns", static_cast<double>(busy[1]));
      }
      for (std::size_t p = 0; p < h->process_count(); ++p) {
        if (!h->process_alive(p)) continue;
        core::Host::Process& proc = h->process(p);
        const core::Counters& k = proc.lib.counters();
        add("core.proto.overlap_misses", static_cast<double>(k.overlap_misses));
        add("core.proto.frames_dropped_on_miss",
            static_cast<double>(k.frames_dropped_on_miss));
        add("core.proto.pull_rerequests",
            static_cast<double>(k.pull_rerequests));
        add("core.proto.retransmit_timeouts",
            static_cast<double>(k.retransmit_timeouts));
        add("core.proto.retry_exhausted", static_cast<double>(k.retry_exhausted));
        add("pull_replies_sent", static_cast<double>(k.pull_replies_sent));
        add("core.pin.pages_pinned", static_cast<double>(k.pages_pinned));
        add("core.pin.pages_unpinned", static_cast<double>(k.pages_unpinned));
        add("core.pin.repins", static_cast<double>(k.repins));
        add("core.pin.denied", static_cast<double>(k.pins_denied));
        add("core.pin.retry_exhausted",
            static_cast<double>(k.pin_retry_exhausted));
        add("core.pin.arb_requests", static_cast<double>(k.tenant_arb_requests));
        add("arb_grants", static_cast<double>(k.tenant_arb_grants));
        add("cache_hits", static_cast<double>(proc.lib.cache().stats().hits));
        add("cache_misses", static_cast<double>(proc.lib.cache().stats().misses));
        const auto& as = proc.as.stats();
        add("mem.pins", static_cast<double>(as.pins));
        add("mem.unpins", static_cast<double>(as.unpins));
        add("mem.notifier_invalidations",
            static_cast<double>(as.notifier_invalidations));
      }
    }
    add("net.congestion_dropped",
        static_cast<double>(c.fabric->congestion_dropped()));
    add("net.fault_dropped", static_cast<double>(c.fabric->fault_dropped()));
    if (c.topo != nullptr) {
      for (std::size_t node = 0; node < c.hosts.size(); ++node) {
        max_queue_depth = std::max<std::uint64_t>(
            max_queue_depth, c.topo->downlink(static_cast<net::NodeId>(node))
                                 .stats()
                                 .max_depth);
      }
      for (std::size_t rack = 0; rack < c.topo->rack_count(); ++rack) {
        for (std::size_t i = 0; i < c.topo->topology_config().uplinks_per_rack;
             ++i) {
          max_queue_depth = std::max<std::uint64_t>(
              max_queue_depth, c.topo->uplink(rack, i).stats().max_depth);
        }
      }
      add("net.uplink_busy_sim_ms",
          static_cast<double>(c.topo->uplink_busy_time()) / 1e6);
    }
    add("obs.flight_dumps", static_cast<double>(rig.flight.dump_attempts()));
    // Pin latency from the system that pinned the most pages.
    const auto& pin = rig.latency.pin_latency();
    if (pin.count() > pin_samples) {
      pin_samples = pin.count();
      pin_p50_us = pin.p50() / 1e3;
      pin_p99_us = pin.p99() / 1e3;
    }
    if (rig.fanout) fanout_events += rig.fanout->events();
    if (rig.observer) {
      for (const auto& [tag, count] : rig.observer->dispatches()) {
        if (tag.rfind("core/", 0) == 0) timer_events += count;
      }
      auto& lag = rig.observer->bh_lag();
      bh_lag.insert(bh_lag.end(), lag.begin(), lag.end());
    }
  }

  void emit(UnitResult& r) const {
    const auto get = [this](const char* k) {
      const auto it = n.find(k);
      return it == n.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double delivered = static_cast<double>(delivered_bytes);
    auto& s = r.sim;
    for (const auto& [key, v] : n) {
      if (key.find('.') != std::string::npos) s[key] = v;
    }
    s["sim_ns"] = static_cast<double>(sim_ns);
    s["sim.events"] = static_cast<double>(events);
    // pingpong_rndv sets goodput from IMB's own convention beforehand.
    s.emplace("sim_goodput_mib_per_s",
              ratio(delivered / kMiB, static_cast<double>(sim_ns) / 1e9));
    s["wire_amplification"] = ratio(get("tx_bytes"), delivered);
    s["msg_p50_us"] = percentile(latency, 0.50) / 1e3;
    s["msg_p95_us"] = percentile(latency, 0.95) / 1e3;
    s["msg_p99_us"] = percentile(latency, 0.99) / 1e3;
    s["msg_samples"] = static_cast<double>(latency.size());
    s["core.proto.pull_useful_ratio"] =
        ratio(static_cast<double>(rndv_frames_needed), get("pull_replies_sent"));
    s["core.pin.latency_p50_us"] = pin_p50_us;
    s["core.pin.latency_p99_us"] = pin_p99_us;
    s["core.pin.arb_grant_ratio"] =
        ratio(get("arb_grants"), get("core.pin.arb_requests"));
    s["core.cache.hit_ratio"] =
        ratio(get("cache_hits"), get("cache_hits") + get("cache_misses"));
    s["net.max_queue_depth"] = static_cast<double>(max_queue_depth);
    s["cpu.bh_busy_sim_ms"] = get("bh_busy_ns") / 1e6;
    s["cpu.kernel_busy_sim_ms"] = get("kernel_busy_ns") / 1e6;
    r.wall_s += wall_s;
    if (fanout_events != 0) {
      r.traced["obs.events"] = static_cast<double>(fanout_events);
      r.traced["sim.timer_events"] = static_cast<double>(timer_events);
      std::vector<sim::Time> lag(bh_lag.begin(), bh_lag.end());
      r.traced["cpu.bh_wait_p99_us"] = percentile(std::move(lag), 0.99) / 1e3;
    }
  }
};

/// One measured phase: a root "bench" span (traced runs) plus the host and
/// simulated time and events it took.
class Phase {
 public:
  Phase(Ledger* ledger, Cluster& c, Tally& t)
      : scope_(ledger, ledger != nullptr ? ledger->layer("bench") : 0, true),
        c_(c),
        t_(t),
        wall0_(now_ns()),
        sim0_(c.eng.now()),
        ev0_(c.eng.processed()) {}
  ~Phase() {
    t_.wall_s += static_cast<double>(now_ns() - wall0_) / 1e9;
    t_.sim_ns += static_cast<std::uint64_t>(c_.eng.now() - sim0_);
    t_.events += c_.eng.processed() - ev0_;
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Scope scope_;
  Cluster& c_;
  Tally& t_;
  std::uint64_t wall0_;
  sim::Time sim0_;
  std::uint64_t ev0_;
};

/// PULL_REPLY frames a clean rendezvous of `bytes` needs.
std::uint64_t frames_for(std::size_t bytes) {
  const std::size_t frame = core::ProtocolConfig{}.frame_payload;
  return (bytes + frame - 1) / frame;
}

int layer_or_zero(Ledger* l, const char* name) {
  return l != nullptr ? l->layer(name) : 0;
}

/// Runs `body` as the set-up phase and adds its wall time to r.setup_s.
template <typename F>
auto timed_setup(UnitResult& r, F&& body) {
  const std::uint64_t t0 = now_ns();
  auto out = body();
  r.setup_s += static_cast<double>(now_ns() - t0) / 1e9;
  return out;
}

void finish_system(Cluster& c, Rig& rig, Tally& t, UnitResult& r,
                   Ledger* ledger) {
  rig.finish(r);
  t.add_system(c, rig);
  if (ledger != nullptr && rig.fanout) {
    replay_codec(*ledger, *rig.fanout, core::ProtocolConfig{}.frame_payload);
  }
}

/// The application side of a message: writing the payload into the send
/// buffer and reading it back out of the receive buffer are page-table
/// copies ("mem.as_copy"); the compare is the benchmark's own
/// ("bench.verify").
class App {
 public:
  App(Ledger* ledger, std::uint64_t seed)
      : ledger_(ledger),
        copy_(layer_or_zero(ledger, "mem.as_copy")),
        verify_(layer_or_zero(ledger, "bench.verify")),
        payloads_(seed) {}

  std::span<const std::byte> write(core::Host::Process& p, mem::VirtAddr buf,
                                   std::size_t n, std::uint64_t salt) {
    const auto payload = payloads_.get(n, salt);
    Scope s(ledger_, copy_);
    p.as.write(buf, payload);
    return payload;
  }

  void verify(core::Host::Process& p, mem::VirtAddr buf,
              std::span<const std::byte> expect, UnitResult& r,
              const char* what) {
    got_.resize(expect.size());
    {
      Scope s(ledger_, copy_);
      p.as.read(buf, got_);
    }
    Scope s(ledger_, verify_);
    if (std::memcmp(got_.data(), expect.data(), expect.size()) != 0) {
      r.fail(std::string("payload mismatch: ") + what);
    }
  }

 private:
  Ledger* ledger_;
  int copy_, verify_;
  Payloads payloads_;
  std::vector<std::byte> got_;
};

// --- pingpong_rndv ----------------------------------------------------------

constexpr int kImbIterations = 4;  // fig7_decoupled --quick
constexpr std::size_t kRotation = 4;
constexpr std::size_t kStreamMessages = 1024;
constexpr double kPaperOverlapGainPct = 5.0;  // §4.2: "expected 5%"

core::StackConfig no_reuse(core::StackConfig s) {
  // Fig 7 "no reuse": the buffer working set exceeds the cache.
  s.cache.capacity = kRotation / 2;
  return s;
}

/// Closed-loop client of the seeded stream: one rendezvous message in
/// flight, alternating direction, rotating through kRotation buffers per
/// side, each payload checked on arrival.
sim::Task<> stream_client(Cluster& c, const std::vector<std::size_t>& sizes,
                          App& app, Tally& t, UnitResult& r, bool& done) {
  core::Host::Process* side[2] = {&c.hosts[0]->process(0),
                                  &c.hosts[1]->process(0)};
  const std::size_t cap = *std::max_element(sizes.begin(), sizes.end());
  std::vector<mem::VirtAddr> snd[2], rcv[2];
  for (int s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < kRotation; ++i) {
      snd[s].push_back(side[s]->heap.malloc(cap));
      rcv[s].push_back(side[s]->heap.malloc(cap));
    }
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int from = static_cast<int>(i % 2);
    core::Host::Process& src = *side[from];
    core::Host::Process& dst = *side[1 - from];
    const std::size_t slot = (i / 2) % kRotation;
    const auto expect = app.write(src, snd[from][slot], sizes[i], i);
    const sim::Time posted = c.eng.now();
    auto recv = dst.lib.irecv(i, ~0ull, rcv[1 - from][slot], sizes[i]);
    auto send = src.lib.isend(dst.addr(), i, snd[from][slot], sizes[i]);
    co_await recv->wait();
    co_await send->wait();
    ++r.attempted;
    if (!send->status().ok || !recv->status().ok) {
      ++r.failed;
      continue;
    }
    t.latency.push_back(c.eng.now() - posted);
    t.delivered_bytes += sizes[i];
    t.rndv_frames_needed += frames_for(sizes[i]);
    app.verify(dst, rcv[1 - from][slot], expect, r, "pingpong stream");
  }
  done = true;
}

/// ImbSuite drops its requests' statuses and keeps its buffers private, so
/// an IMB cell is checked by counters, not by payload compares: each rank
/// must have received `per_rank` rendezvous messages, and neither may have
/// aborted, run out of a retry budget or failed a pin.
bool imb_cell_clean(Cluster& c, std::uint64_t per_rank, UnitResult& r,
                    const char* label) {
  bool clean = true;
  for (auto& h : c.hosts) {
    const core::Counters& k = h->process(0).lib.counters();
    if (k.rndv_received != per_rank || k.aborts != 0 ||
        k.retry_exhausted != 0 || k.pin_retry_exhausted != 0 ||
        k.pin_failures != 0) {
      clean = false;
      r.fail(std::string("IMB ") + label + " on " + h->config().name + ": " +
             std::to_string(k.rndv_received) + "/" + std::to_string(per_rank) +
             " rendezvous received, " + std::to_string(k.aborts) +
             " aborts, " + std::to_string(k.retry_exhausted) + "+" +
             std::to_string(k.pin_retry_exhausted) +
             " retry budgets exhausted, " + std::to_string(k.pin_failures) +
             " pin failures");
    }
  }
  return clean;
}

void run_pingpong(const Options& opt, Ledger* ledger, UnitResult& r) {
  Rng rng(opt.seed ^ 0x9b1e'0001ULL);
  const std::uint64_t link_seed = rng.next();
  Tally t;
  const int slice = layer_or_zero(ledger, "sim.loop");
  // ImbSuite runs the engine itself; its span also holds IMB's buffer fill.
  const int imb_layer = layer_or_zero(ledger, "workloads.imb");

  // Part 1: the Fig 7 no-reuse table cells this workload tracks.
  struct Cell {
    const char* label;
    core::StackConfig stack;
    std::size_t bytes;
  };
  const Cell cells[] = {
      {"regular_1mb", no_reuse(core::regular_pinning_config()), 1 << 20},
      {"regular_16mb", no_reuse(core::regular_pinning_config()), 16 << 20},
      {"overlap_cache_1mb", no_reuse(core::overlapped_cache_config()), 1 << 20},
      {"overlap_cache_16mb", no_reuse(core::overlapped_cache_config()),
       16 << 20}};
  for (const Cell& cell : cells) {
    // Frames for kRotation send+recv buffers of the cell's size, doubled.
    const std::size_t frames = 4 * kRotation * cell.bytes / 4096;
    auto c = timed_setup(
        r, [&] { return two_hosts(cell.stack, link_seed, frames); });
    auto comm = timed_setup(r, [&] {
      return std::make_unique<mpi::Communicator>(
          std::vector<core::Host::Process*>{&c->hosts[0]->process(0),
                                            &c->hosts[1]->process(0)});
    });
    auto rig = timed_setup(
        r, [&] { return std::make_unique<Rig>(*c, ledger, opt); });
    workloads::ImbSuite::Config cfg;
    cfg.iterations = kImbIterations;
    cfg.buffer_rotation = kRotation;
    workloads::ImbSuite imb(*comm, cfg);
    double mibps = 0.0;
    {
      Phase phase(ledger, *c, t);
      Scope s(ledger, imb_layer, true);
      mibps = imb.pingpong(cell.bytes).mib_per_sec;
    }
    const auto per_rank = static_cast<std::uint64_t>(cfg.iterations + cfg.warmup);
    r.attempted += 2 * per_rank;
    if (imb_cell_clean(*c, per_rank, r, cell.label)) {
      t.delivered_bytes += 2 * per_rank * cell.bytes;
      t.rndv_frames_needed += 2 * per_rank * frames_for(cell.bytes);
    } else {
      r.failed += 2 * per_rank;
    }
    r.extra[std::string("imb.") + cell.label + "_mib_per_s"] = mibps;
    if (cell.bytes == (16u << 20)) {
      r.sim[cell.stack.pinning.overlapped ? "sim_goodput_mib_per_s"
                                          : "imb.regular_16mb_mib_per_s"] =
          mibps;
    }
    finish_system(*c, *rig, t, r, ledger);
  }
  const double reg = r.sim["imb.regular_16mb_mib_per_s"];
  const double gain = reg > 0.0
                          ? (r.sim["sim_goodput_mib_per_s"] / reg - 1.0) * 100.0
                          : 0.0;
  r.extra["fig7_gain_pct"] = gain;
  r.extra["fig7_gain_error_pp"] = std::fabs(gain - kPaperOverlapGainPct);

  // Part 2: the seeded, payload-checked closed-loop stream (Overlap+Cache,
  // no reuse): rendezvous sizes stratified over 40 kB .. 256 kB (one seeded
  // size inside each 8 kB step), in seeded order.
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < kStreamMessages; ++i) {
    sizes.push_back((40 + 8 * (i % 27)) * 1024 + rng.below(8 * 1024));
  }
  rng.shuffle(sizes);
  const core::StackConfig stack = no_reuse(core::overlapped_cache_config());
  auto c = timed_setup(r, [&] { return two_hosts(stack, link_seed, 4096); });
  auto rig =
      timed_setup(r, [&] { return std::make_unique<Rig>(*c, ledger, opt); });
  App app(ledger, opt.seed);
  {
    Phase phase(ledger, *c, t);
    bool done = false;
    sim::spawn(c->eng, stream_client(*c, sizes, app, t, r, done));
    const sim::Time deadline = c->eng.now() + 60 * sim::kSecond;
    while (!done && c->eng.now() < deadline) {
      Scope s(ledger, slice, true);
      c->eng.run_until(c->eng.now() + sim::kMillisecond);
    }
    if (!done) r.fail("pingpong stream did not finish");
  }
  finish_system(*c, *rig, t, r, ledger);
  t.emit(r);
}

// --- cluster_uniform / cluster_incast ---------------------------------------

constexpr int kUniformRounds = 90;
constexpr int kIncastRounds = 120;
constexpr std::size_t kIncastWaves = 4;
constexpr sim::Time kSlice = 20 * sim::kMicrosecond;
constexpr sim::Time kStuck = 25 * sim::kMillisecond;

struct Flight {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  std::size_t size = 0;
  sim::Time posted = 0;
  sim::Time done = 0;
  mem::VirtAddr rcv{};
  core::RequestPtr send, recv;
  std::span<const std::byte> expect;
};

/// Marks the flight done (at the simulated instant both sides completed).
sim::Task<> track(Flight& f, sim::Engine& eng, std::size_t& pending) {
  co_await f.recv->wait();
  co_await f.send->wait();
  f.done = eng.now();
  --pending;
}

void run_rack(const Options& opt, Ledger* ledger, UnitResult& r, bool incast) {
  Rng rng(opt.seed ^ (incast ? 0x1ca5'7000ULL : 0x0a1f'0000ULL));
  const int rounds = incast ? kIncastRounds : kUniformRounds;
  const std::uint64_t link_seed = rng.next();
  const std::size_t hub = rng.below(kEndpoints);  // incast target
  const std::size_t hub_host = hub / kProcsPerHost;
  const int slice = layer_or_zero(ledger, "sim.loop");
  App app(ledger, opt.seed);

  auto c = timed_setup(
      r, [&] { return rack_cluster(incast ? 16 : 64, link_seed); });
  const auto ep = [&c](std::size_t e) -> core::Host::Process& {
    return c->hosts[e / kProcsPerHost]->process(e % kProcsPerHost);
  };
  struct Bufs {
    mem::VirtAddr snd{}, rcv{};
  };
  std::vector<Bufs> bufs(kEndpoints);
  std::vector<mem::VirtAddr> hub_slot(kEndpoints);
  auto rig = timed_setup(r, [&] {
    for (std::size_t e = 0; e < kEndpoints; ++e) {
      const std::size_t cap = incast ? kEager : kRendezvous;
      bufs[e].snd = ep(e).heap.malloc(cap);
      bufs[e].rcv = ep(e).heap.malloc(cap);
      if (incast && e / kProcsPerHost != hub_host) {
        hub_slot[e] = ep(hub).heap.malloc(kEager);
      }
    }
    return std::make_unique<Rig>(*c, ledger, opt);
  });

  Tally t;
  const core::ProtocolConfig proto = rack_stack().protocol;
  std::vector<Flight> flights;
  flights.reserve(kEndpoints);
  // Uniform rounds pair hosts by XOR mask: every non-zero mask (7 intra-rack,
  // 8 cross-rack) equally often, in seeded order, so seeds reorder the same
  // traffic instead of changing its mix.
  std::vector<std::size_t> masks, rndv_classes;
  for (int i = 0; i < rounds; ++i) {
    masks.push_back(1 + static_cast<std::size_t>(i) % 15);
    rndv_classes.push_back(static_cast<std::size_t>(i) % 8);
  }
  rng.shuffle(masks);
  rng.shuffle(rndv_classes);
  {
    Phase phase(ledger, *c, t);
    for (int round = 0; round < rounds && r.correct; ++round) {
      flights.clear();
      // Partners and sizes. Uniform: hosts pair by the round's XOR mask,
      // processes by a seeded permutation, so every endpoint sends one
      // message and receives one; exactly 1/8 of them (a seeded residue
      // class) are rendezvous. Incast: every endpoint off the hub's host sends one
      // eager message to the hub, in seeded order.
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      std::vector<std::size_t> sizes;
      if (incast) {
        for (std::size_t e = 0; e < kEndpoints; ++e) {
          if (e / kProcsPerHost != hub_host) pairs.emplace_back(e, hub);
        }
        rng.shuffle(pairs);
        sizes.assign(pairs.size(), kEager);
      } else {
        const std::size_t mask = masks[static_cast<std::size_t>(round)];
        std::vector<std::size_t> perm(kProcsPerHost);
        for (std::size_t p = 0; p < kProcsPerHost; ++p) perm[p] = p;
        rng.shuffle(perm);
        const std::size_t rndv_class =
            rndv_classes[static_cast<std::size_t>(round)];
        for (std::size_t e = 0; e < kEndpoints; ++e) {
          const std::size_t h = e / kProcsPerHost, p = e % kProcsPerHost;
          pairs.emplace_back(e, (h ^ mask) * kProcsPerHost + perm[p]);
          sizes.push_back((e + rndv_class) % 8 == 0 ? kRendezvous : kEager);
        }
      }
      // Incast senders post in seeded waves one slice apart, so the burst's
      // shape (not its size) depends on the seed; uniform posts at once.
      std::vector<std::size_t> wave(pairs.size(), 0);
      if (incast) {
        for (auto& w : wave) w = rng.below(kIncastWaves);
      }
      std::vector<std::size_t> order(pairs.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&wave](std::size_t a, std::size_t b) {
                         return wave[a] < wave[b];
                       });
      const auto post = [&](std::size_t i) {
        Flight& f = flights.emplace_back();
        f.sender = pairs[i].first;
        f.receiver = pairs[i].second;
        f.size = sizes[i];
        f.rcv = incast ? hub_slot[f.sender] : bufs[f.receiver].rcv;
        f.posted = c->eng.now();
        const std::uint64_t match =
            (static_cast<std::uint64_t>(round) << 32) | f.sender;
        f.expect = app.write(ep(f.sender), bufs[f.sender].snd, f.size, match);
        f.recv = ep(f.receiver).lib.irecv(match, ~0ull, f.rcv, f.size);
        f.send = ep(f.sender).lib.isend(ep(f.receiver).addr(), match,
                                        bufs[f.sender].snd, f.size);
      };

      // Drain the round in time slices; cancel what a stall orphaned.
      std::size_t pending = pairs.size();
      std::size_t next = 0;
      sim::Time stuck_at = c->eng.now() + kStuck;
      int cancel_passes = 0;
      for (std::size_t tick = 0; pending > 0; ++tick) {
        for (; next < order.size() && wave[order[next]] <= tick; ++next) {
          post(order[next]);
          sim::spawn(c->eng, track(flights.back(), c->eng, pending));
        }
        if (c->eng.now() > stuck_at) {
          if (++cancel_passes > 2) {
            r.fail("round " + std::to_string(round) + " stalled");
            break;
          }
          for (Flight& f : flights) {
            if (!f.send->completed()) ep(f.sender).lib.cancel(*f.send);
            if (!f.recv->completed()) ep(f.receiver).lib.cancel(*f.recv);
          }
          stuck_at = c->eng.now() + kStuck;
        }
        Scope s(ledger, slice, true);
        c->eng.run_until(c->eng.now() + kSlice);
      }
      if (pending > 0) break;

      for (Flight& f : flights) {
        ++r.attempted;
        const bool rok = f.recv->status().ok;
        if (f.send->status().ok && rok) {
          t.delivered_bytes += f.size;
          t.latency.push_back(f.done - f.posted);
        } else {
          ++r.failed;
        }
        if (f.size > proto.eager_threshold) {
          t.rndv_frames_needed += frames_for(f.size);
        }
        if (rok) {
          app.verify(ep(f.receiver), f.rcv, f.expect, r,
                     incast ? "incast" : "uniform");
        }
      }
    }
  }
  // Unfinished flights still hold coroutine frames waiting on their
  // requests; a failed unit leaks them rather than resume into freed state.
  if (!r.correct) {
    for (Flight& f : flights) {
      (void)f.send.release();
      (void)f.recv.release();
    }
  }
  finish_system(*c, *rig, t, r, ledger);
  t.emit(r);
}

}  // namespace

UnitResult run_unit(const Options& opt) {
  UnitResult r;
  std::unique_ptr<Ledger> ledger;
  if (opt.trace) ledger = std::make_unique<Ledger>();
  if (opt.workload == "pingpong_rndv") {
    run_pingpong(opt, ledger.get(), r);
  } else if (opt.workload == "cluster_uniform") {
    run_rack(opt, ledger.get(), r, /*incast=*/false);
  } else if (opt.workload == "cluster_incast") {
    run_rack(opt, ledger.get(), r, /*incast=*/true);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  if (ledger) {
    for (const auto& l : ledger->layers()) {
      r.ledger[l.name] = static_cast<double>(l.self_ns) / 1e6;
      if (l.calls != 0) r.traced["calls." + l.name] = static_cast<double>(l.calls);
    }
    if (!opt.ledger_out.empty()) {
      if (std::FILE* f = std::fopen(opt.ledger_out.c_str(), "w")) {
        const std::string body = ledger->json();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
      }
    }
  }
  return r;
}

}  // namespace perfbench
