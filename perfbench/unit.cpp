// One benchmark unit: builds the workload's system from the seed, runs its
// measured phase once and prints one JSON line with everything run.py
// aggregates. One workload per process, on one thread.
//
//   perfbench_unit --workload <name> --seed <n> [--trace 0|1]
//                  [--ledger-out <path>]
//                  [--inject-tag <component> | --inject-sink <sink>]
//                  [--inject-ns <ns>]
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::UnitResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += json_string(k) + ":" + buf;
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--ledger-out") {
      opt.ledger_out = v;
    } else if (k == "--inject-tag") {
      opt.inject_tag = v;
    } else if (k == "--inject-sink") {
      opt.inject_sink = v;
    } else if (k == "--inject-ns") {
      opt.inject_ns = std::stoull(v);
    } else {
      std::fprintf(stderr, "unknown option %s\n", k.c_str());
      return 2;
    }
  }

  UnitResult r;
  try {
    r = perfbench::run_unit(opt);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }

  std::string errors = "[";
  for (const auto& e : r.errors) {
    if (errors.size() > 1) errors += ',';
    errors += json_string(e);
  }
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
      "\"errors\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"host\":{\"setup_s\":%.9f,\"wall_s\":%.9f,\"peak_rss_mb\":%.3f},"
      "\"sim\":%s,\"traced\":%s,\"ledger\":%s,\"extra\":%s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      r.correct ? "true" : "false", errors.c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.setup_s, r.wall_s,
      peak_rss_mb(), json_map(r.sim).c_str(), json_map(r.traced).c_str(),
      json_map(r.ledger).c_str(), json_map(r.extra).c_str());
  return r.correct ? 0 : 1;
}
