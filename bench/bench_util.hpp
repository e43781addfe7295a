#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/report.hpp"
#include "mpi/communicator.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/bus.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/latency.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace pinsim::bench {

/// A 2-host testbed like the paper's: two machines of the same CPU model on
/// a 10G Ethernet fabric, `nranks` processes spread round-robin.
struct Cluster {
  Cluster(const cpu::CpuModel& cpu, core::StackConfig stack, int nranks,
          bool with_ioat, std::size_t memory_frames = 32768) {
    fabric = std::make_unique<net::Fabric>(eng);
    core::Host::Config hc;
    hc.cpu = cpu;
    hc.with_ioat = with_ioat;
    hc.memory_frames = memory_frames;
    for (int h = 0; h < 2; ++h) {
      hc.name = h == 0 ? "hostA" : "hostB";
      hosts.push_back(std::make_unique<core::Host>(eng, *fabric, hc, stack));
    }
    if (nranks > 0) {
      std::vector<core::Host::Process*> procs;
      for (int r = 0; r < nranks; ++r) {
        procs.push_back(
            &hosts[static_cast<std::size_t>(r % 2)]->spawn_process());
      }
      comm = std::make_unique<mpi::Communicator>(procs);
    }
  }

  /// Cluster-scale variant: `num_hosts` machines on a rack `Topology`
  /// instead of the ideal two-host fabric. Processes are NOT spawned —
  /// cluster benches place tenants themselves. `cores` counts the worker
  /// cores (core 0 stays the interrupt core), so a host can run
  /// `cores - 1` processes off the interrupt path.
  Cluster(const cpu::CpuModel& cpu, core::StackConfig stack,
          net::Topology::Config tc, std::size_t num_hosts, std::size_t cores,
          std::size_t memory_frames) {
    auto t = std::make_unique<net::Topology>(eng, tc);
    topo = t.get();
    fabric = std::move(t);
    core::Host::Config hc;
    hc.cpu = cpu;
    hc.cores = cores;
    hc.memory_frames = memory_frames;
    for (std::size_t h = 0; h < num_hosts; ++h) {
      hc.name = "host" + std::to_string(h);
      hosts.push_back(std::make_unique<core::Host>(eng, *fabric, hc, stack));
    }
  }

  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  net::Topology* topo = nullptr;  // non-null on the cluster-scale ctor
  std::vector<std::unique_ptr<core::Host>> hosts;
  std::unique_ptr<mpi::Communicator> comm;
};

/// Minimal CLI: --cpu=<model>, --quick and --csv are shared by all benches.
/// --trace-out=<prefix> turns on the observability rig: Chrome traces land
/// at <prefix>*.trace.json and the machine-readable run report at
/// <prefix>.report.json. An unknown argument prints the usage and exits 2.
struct Options {
  const cpu::CpuModel* cpu = &cpu::xeon_e5460();
  bool quick = false;
  bool csv = false;  // machine-readable rows for plotting
  std::string trace_out;  // empty = observability rig off

  static Options parse(int argc, char** argv, const char* usage = nullptr) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--cpu=", 0) == 0) {
        o.cpu = &cpu::cpu_model_by_name(arg.substr(6));
      } else if (arg == "--quick") {
        o.quick = true;
      } else if (arg == "--csv") {
        o.csv = true;
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        o.trace_out = arg.substr(12);
      } else {
        const bool help = arg == "--help" || arg == "-h";
        std::FILE* out = help ? stdout : stderr;
        if (!help) std::fprintf(out, "unknown argument: %s\n", arg.c_str());
        if (usage != nullptr) std::fprintf(out, "%s\n", usage);
        std::fprintf(out,
                     "options: --cpu=<%s> --quick --csv --trace-out=<prefix>\n",
                     [] {
                       std::string s;
                       for (const auto& m : cpu::all_cpu_models()) {
                         if (!s.empty()) s += "|";
                         s += m.name;
                       }
                       return s;
                     }()
                         .c_str());
        std::exit(help ? 0 : 2);
      }
    }
    return o;
  }
};

/// Writes `body` plus a newline to `path`; returns false (with a warning) on
/// I/O failure — a failed report dump must never fail the run.
inline bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write run report %s\n",
                 path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

/// Observability rig for one Cluster run: invariant checker, latency
/// recorder, critical-path analyzer, metrics sampler and flight recorder
/// are always attached, and a dispatch profiler installs on the engine; a
/// Chrome-trace writer joins (and the profiler starts capturing wall-clock
/// self time) when `trace_path` is non-empty. The flight recorder dumps on
/// aborts whose cause is not in `expected_aborts` (FlightRecorder::Config).
/// Declare it AFTER the Cluster.
///
/// Teardown order: endpoints emit pin-unpin events from their destructors,
/// so the bus must outlive the hosts — `finish()` detaches everything first
/// and benches should call it before the Cluster dies; the destructor is
/// the backstop. Getting this wrong is no longer silent UB: the Bus
/// destructor aborts with a diagnostic while emitters are still registered
/// (obs/bus.hpp).
struct ObsRig {
  explicit ObsRig(Cluster& c, const std::string& trace_path = std::string(),
                  const std::string& dumps = "flight",
                  std::uint32_t expected_aborts = 0)
      : cluster(&c),
        bus(c.eng),
        flight(flight_config(trace_path, dumps, expected_aborts)),
        profiler(/*wall_clock=*/!trace_path.empty()) {
    bus.attach(&checker);
    bus.attach(&latency);
    bus.attach(&critical_path);
    bus.attach(&metrics);
    bus.attach(&lifecycle);
    bus.attach(&flight);
    // Post-mortem trigger: an invariant violation dumps the flight ring.
    checker.set_violation_hook([this](const obs::InvariantChecker::Violation&
                                          v) {
      flight.dump("invariant: " + v.message);
    });
    profiler.attach(c.eng);
    if (!trace_path.empty()) {
      chrome = std::make_unique<obs::ChromeTraceWriter>(trace_path);
      bus.attach(chrome.get());
      flame_path =
          flight_config(trace_path, dumps, 0).dump_prefix + ".flame.json";
      // Wall-clock throughput is measured only on instrumented runs: the
      // determinism suite byte-compares json_report() output, and a wall
      // clock in that path would make the report machine-dependent.
      wall_metrics = true;
      // pinlint: allow(D1: wall-clock throughput metric, never in sim state)
      wall_start = std::chrono::steady_clock::now();
      events_start = c.eng.processed();
      sim_start = c.eng.now();
    }
    for (auto& h : c.hosts) {
      h->driver().set_bus(&bus);
      if (h->dma() != nullptr) {
        h->dma()->set_bus(&bus);
        h->dma()->set_identity(h->nic().node_id());
      }
    }
    c.fabric->faults().set_bus(&bus);
    c.fabric->set_bus(&bus);  // link up/down lifecycle events
  }

  ObsRig(const ObsRig&) = delete;
  ObsRig& operator=(const ObsRig&) = delete;

  ~ObsRig() {
    if (!finished) detach();
  }

  /// Flushes every sink (writing the Chrome trace if any), writes the flame
  /// profile on instrumented runs, prints the invariant report to stderr on
  /// failure and detaches from the cluster.
  /// Returns the number of invariant violations (0 = clean).
  int finish() {
    if (!finished) {
      bus.finalize();
      if (!checker.ok()) {
        std::fprintf(stderr, "%s", checker.report().c_str());
      }
      if (!flame_path.empty()) {
        profiler.write_speedscope(flame_path, flame_path);
      }
      detach();
      finished = true;
    }
    return static_cast<int>(checker.violation_count());
  }

  /// Engine sanity gate for bench end-of-run: runs Engine::self_check and,
  /// on failure, dumps the flight-recorder window and reports why. Returns
  /// true when the engine state is consistent.
  bool check_engine() {
    std::string why;
    if (cluster->eng.self_check(&why)) return true;
    std::fprintf(stderr, "engine self-check failed: %s\n", why.c_str());
    flight.dump("engine self-check: " + why);
    return false;
  }

  /// One JSON object for the whole run: per-endpoint protocol counters, the
  /// host- and fabric-wide values once each (one `hosts` row per host, one
  /// `fabric` object for the cluster), then the latency/size histograms.
  [[nodiscard]] std::string json_report() {
    std::string out = "{\"endpoints\":[";
    bool first = true;
    for (auto& h : cluster->hosts) {
      for (std::size_t i = 0; i < h->process_count(); ++i) {
        if (!h->process_alive(i)) continue;  // killed, not yet restarted
        if (!first) out += ',';
        first = false;
        out += core::format_json_report(h->process(i), *h);
      }
    }
    out += "],\"hosts\":[";
    for (std::size_t i = 0; i < cluster->hosts.size(); ++i) {
      if (i != 0) out += ',';
      out += core::format_json_host(*cluster->hosts[i]);
    }
    out += "],\"fabric\":";
    out += core::format_json_fabric(*cluster->fabric);
    out += ",\"histograms\":";
    out += latency.json();
    out += ",\"critical_path\":";
    out += critical_path.json();
    out += ",\"metrics\":";
    out += metrics.json();
    out += ",\"lifecycle\":";
    out += lifecycle.json();
    // Deterministic on untraced runs (dispatch counts, sim lag, ring
    // counters); wall-clock fields join only when wall_metrics is on.
    out += ",\"profile\":";
    out += profiler.json();
    out += ",\"flight\":";
    out += flight.json();
    if (wall_metrics) {
      // pinlint: allow(D1: wall-clock throughput metric, never in sim state)
      const auto now = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(now - wall_start).count();
      const auto events = cluster->eng.processed() - events_start;
      const auto sim_ns =
          static_cast<std::uint64_t>(cluster->eng.now() - sim_start);
      const double eps =
          wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1000.0)
                        : 0.0;
      const double ns_per_ms =
          wall_ms > 0.0 ? static_cast<double>(sim_ns) / wall_ms : 0.0;
      char tp[256];
      std::snprintf(tp, sizeof tp,
                    ",\"throughput\":{\"events\":%llu,\"wall_ms\":%.3f,"
                    "\"events_per_sec\":%.1f,\"sim_ns_per_wall_ms\":%.1f}",
                    static_cast<unsigned long long>(events), wall_ms, eps,
                    ns_per_ms);
      out += tp;
    }
    char tail[64];
    std::snprintf(tail, sizeof tail, ",\"invariant_violations\":%llu}",
                  static_cast<unsigned long long>(checker.violation_count()));
    out += tail;
    return out;
  }

  /// Human-readable top-K slowest-message digest ("why was this slow").
  /// Meaningful after `finish()`; safe to print any time.
  [[nodiscard]] std::string digest() const { return critical_path.digest(); }

  /// Writes `json_report()` to `path` (see write_text).
  bool write_report(const std::string& path) {
    return write_text(path, json_report());
  }

  Cluster* cluster;
  obs::Bus bus;
  obs::InvariantChecker checker;
  obs::LatencyRecorder latency;
  obs::CriticalPathAnalyzer critical_path;
  obs::MetricsSampler metrics;
  obs::LifecycleRecorder lifecycle;
  obs::FlightRecorder flight;
  obs::Profiler profiler;
  std::unique_ptr<obs::ChromeTraceWriter> chrome;
  std::string flame_path;  // written at finish() on instrumented runs
  bool finished = false;
  // Wall-clock throughput baseline (instrumented runs only, see ctor).
  bool wall_metrics = false;
  // pinlint: allow(D1: wall-clock throughput metric, never in sim state)
  std::chrono::steady_clock::time_point wall_start{};
  std::uint64_t events_start = 0;
  sim::Time sim_start = 0;

 private:
  /// Flight dumps land next to the Chrome trace: "<tag>.trace.json" yields
  /// "<tag>-<n>.flight.json"; untraced runs use the `dumps` prefix.
  static obs::FlightRecorder::Config flight_config(
      const std::string& trace_path, const std::string& dumps,
      std::uint32_t expected_aborts) {
    obs::FlightRecorder::Config fc;
    fc.dump_prefix = dumps;
    fc.expected_aborts = expected_aborts;
    if (!trace_path.empty()) {
      const std::string suffix = ".trace.json";
      fc.dump_prefix =
          trace_path.size() > suffix.size() &&
                  trace_path.compare(trace_path.size() - suffix.size(),
                                     suffix.size(), suffix) == 0
              ? trace_path.substr(0, trace_path.size() - suffix.size())
              : trace_path;
    }
    return fc;
  }

  void detach() {
    profiler.detach();
    checker.set_violation_hook(nullptr);
    for (auto& h : cluster->hosts) {
      h->driver().set_bus(nullptr);
      if (h->dma() != nullptr) h->dma()->set_bus(nullptr);
    }
    cluster->fabric->faults().set_bus(nullptr);
    cluster->fabric->set_bus(nullptr);
  }
};

/// Emits one CSV row (series name per column) for gnuplot/matplotlib.
inline void csv_row(std::size_t bytes, const std::vector<double>& values) {
  std::printf("%zu", bytes);
  for (double v : values) std::printf(",%.2f", v);
  std::printf("\n");
}

inline void csv_header(const char* first,
                       const std::vector<std::string>& series) {
  std::printf("%s", first);
  for (const auto& s : series) std::printf(",%s", s.c_str());
  std::printf("\n");
}

/// The message sizes of Figures 6-7 (64 kB .. 16 MB, the rendezvous regime).
inline std::vector<std::size_t> figure_sizes(bool quick) {
  if (quick) return {64 * 1024, 1024 * 1024, 16 * 1024 * 1024};
  return {64 * 1024,        128 * 1024,       256 * 1024,
          512 * 1024,       1024 * 1024,      2 * 1024 * 1024,
          4 * 1024 * 1024,  8 * 1024 * 1024,  16 * 1024 * 1024};
}

inline std::string human_size(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%zuMB", bytes / (1024 * 1024));
  } else {
    std::snprintf(buf, sizeof buf, "%zukB", bytes / 1024);
  }
  return buf;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("    reproduces: %s\n\n", paper_ref);
}

}  // namespace pinsim::bench
