// The benchmark's three workloads. Each call to run_unit() builds a fresh
// simulated system from the seed (the set-up phase), runs one fixed amount
// of work on it (the measured phase), checks the outputs and collects the
// metrics. The program receives only the generated inputs; every number
// reported under `sim` is a pure function of code and seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  // Attribution self-test: a busy-wait of `inject_ns` per dispatch of TaskTag
  // component `inject_tag`, or per event in obs sink `inject_sink`.
  std::string inject_tag;
  std::string inject_sink;
  std::uint64_t inject_ns = 0;
  std::string ledger_out;  // traced runs write their spans here
};

struct UnitResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  // messages the benchmark posted
  std::uint64_t failed = 0;     // posted messages that did not complete ok
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Simulated-time metrics and counts: identical on every run of one
  /// commit and seed, traced or not.
  std::map<std::string, double> sim;
  /// Deterministic counts only a traced run sees.
  std::map<std::string, double> traced;
  /// Traced runs: wall-clock self milliseconds per ledger layer.
  std::map<std::string, double> ledger;
  /// Human-facing detail (IMB table, accuracy figure).
  std::map<std::string, double> extra;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Runs one unit of `opt.workload`. Throws std::invalid_argument on an
/// unknown workload name.
UnitResult run_unit(const Options& opt);

}  // namespace perfbench
