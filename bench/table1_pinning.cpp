// Table 1: base and per-page overhead of the Open-MX pinning+unpinning and
// the corresponding pinning throughput, for all four processors.
//
// Method matches how such numbers are measured on real hardware: time whole
// pin+unpin passes over regions of increasing page counts on an otherwise
// idle core, then least-squares fit cost(pages) = base + per_page * pages.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/pin_manager.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/physical_memory.hpp"
#include "obs/relay.hpp"
#include "sim/stats.hpp"

namespace {

using namespace pinsim;

struct Measured {
  double base_us = 0.0;
  double per_page_ns = 0.0;
  double gbps = 0.0;
};

/// A non-empty `trace_prefix` wires a hand-rolled obs rig (there is no
/// Cluster here — the bench drives a bare PinManager): Chrome trace of the
/// pin spans, metrics time series and invariant checking over the pin state
/// machine.
Measured measure(const cpu::CpuModel& model,
                 const std::string& trace_prefix = std::string()) {
  sim::Engine eng;
  mem::PhysicalMemory pm(40000);
  mem::AddressSpace as(pm);
  cpu::Core core(eng, "bench");
  core::Counters counters;
  core::PinningConfig cfg;  // on-demand, synchronous

  obs::Bus bus(eng);
  obs::InvariantChecker checker;
  obs::MetricsSampler metrics;
  std::unique_ptr<obs::ChromeTraceWriter> chrome;
  obs::Relay relay;
  if (!trace_prefix.empty()) {
    chrome = std::make_unique<obs::ChromeTraceWriter>(trace_prefix +
                                                      ".trace.json");
    bus.attach(&checker);
    bus.attach(&metrics);
    bus.attach(chrome.get());
    relay.set_bus(&bus);
  }

  core::PinManager mgr(eng, core, model, cfg, counters, &relay);

  std::vector<double> pages;
  std::vector<double> cost_ns;
  for (std::size_t npages : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                             1024u, 2048u, 4096u, 8192u}) {
    const auto addr = as.mmap(npages * mem::kPageSize);
    core::Region& region =
        mgr.declare(as, {core::Segment{addr, npages * mem::kPageSize}});

    const sim::Time t0 = eng.now();
    bool pinned = false;
    mgr.ensure_pinned(region, [&](bool ok) { pinned = ok; });
    eng.run();
    mgr.unpin(region);
    eng.run();  // the unpin cost is charged asynchronously
    const sim::Time t1 = eng.now();
    if (!pinned) std::abort();

    pages.push_back(static_cast<double>(npages));
    cost_ns.push_back(static_cast<double>(t1 - t0));
    mgr.undeclare(region.id());
    as.munmap(addr, npages * mem::kPageSize);
  }

  if (!trace_prefix.empty()) {
    bus.finalize();
    if (!checker.ok()) std::fprintf(stderr, "%s", checker.report().c_str());
    std::string report = "{\"metrics\":" + metrics.json();
    char tail[64];
    std::snprintf(tail, sizeof tail, ",\"invariant_violations\":%llu}\n",
                  static_cast<unsigned long long>(checker.violation_count()));
    report += tail;
    const std::string path = trace_prefix + ".report.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(report.data(), 1, report.size(), f);
      std::fclose(f);
    }
    std::printf("\ntrace: %s.trace.json report: %s.report.json%s\n",
                trace_prefix.c_str(), trace_prefix.c_str(),
                checker.ok() ? "" : "  INVARIANT VIOLATIONS");
  }

  const auto fit = sim::fit_line(pages, cost_ns);
  Measured m;
  m.base_us = fit.intercept / 1000.0;
  m.per_page_ns = fit.slope;
  m.gbps = static_cast<double>(mem::kPageSize) / fit.slope;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::print_header(
      "Table 1: Open-MX pin+unpin overhead per processor",
      "Goglin, CAC/IPDPS'09, Table 1 (base us, ns/page, pinning GB/s)");

  struct PaperRow {
    const char* name;
    double ghz, base_us, per_page_ns, gbps;
  };
  const PaperRow paper[] = {
      {"opteron265", 1.8, 4.2, 720, 5.5},
      {"opteron8347", 1.9, 2.2, 330, 12.0},
      {"xeon-e5435", 2.33, 2.3, 250, 16.0},
      {"xeon-e5460", 3.16, 1.3, 150, 26.5},
  };

  std::printf("%-12s %5s | %10s %12s %9s | %10s %12s %9s\n", "Processor",
              "GHz", "base us", "ns/page", "GB/s", "base us", "ns/page",
              "GB/s");
  std::printf("%-12s %5s | %33s | %33s\n", "", "", "----------- paper ------",
              "--------- measured -----");
  for (const auto& row : paper) {
    const auto& model = pinsim::cpu::cpu_model_by_name(row.name);
    const Measured m = measure(model);
    std::printf("%-12s %5.2f | %10.1f %12.0f %9.1f | %10.1f %12.0f %9.1f\n",
                row.name, row.ghz, row.base_us, row.per_page_ns, row.gbps,
                m.base_us, m.per_page_ns, m.gbps);
  }
  if (!opt.trace_out.empty()) {
    // Instrumented rerun on the configured CPU model: every pin/unpin pass
    // shows up as an async span in the Chrome trace, the pinned-page gauge
    // as a sawtooth in the metrics series.
    (void)measure(*opt.cpu, opt.trace_out);
  }
  std::printf(
      "\nNote: the GB/s column is the asymptotic per-page pinning rate\n"
      "(page size / ns-per-page); the paper's column amortizes some base\n"
      "cost, hence the few-percent offset.\n");
  return 0;
}
