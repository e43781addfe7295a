// Drives the pinlint binary (built by tools/pinlint) over the fixture
// snippets in tools/pinlint/testdata: each rule D0-D9 must fire on its
// violation fixture with the exact rule id, the annotated fixtures must
// scan clean, and the baseline must suppress listed diagnostics while
// rejecting stale entries. The SARIF report is validated with the repo's
// own obs::json_valid. PINLINT_BIN and PINLINT_TESTDATA come from the
// build (tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_pinlint(const std::string& args) {
  const std::string cmd = std::string(PINLINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return r;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(PINLINT_TESTDATA) + "/" + name;
}

int count_hits(const std::string& output, const std::string& needle) {
  int count = 0;
  for (std::size_t at = output.find(needle); at != std::string::npos;
       at = output.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Pinlint, D1FlagsEveryNondeterminismSource) {
  const auto r = run_pinlint("--root=" + fixture("d1") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D1: "), 7) << r.output;
  EXPECT_NE(r.output.find("'random_device'"), std::string::npos);
  // rand() appears twice: assignment context and `return rand();`.
  EXPECT_EQ(count_hits(r.output, "'rand()'"), 2) << r.output;
  EXPECT_NE(r.output.find("'time()'"), std::string::npos);
  EXPECT_NE(r.output.find("std::hash over a pointer type"), std::string::npos);
  EXPECT_NE(r.output.find("pointer-keyed unordered_map"), std::string::npos);
  // pinlint: allow(D1: assertion quotes the rule's own pattern)
  EXPECT_NE(r.output.find("\"%p\""), std::string::npos);
  // Diagnostics carry file:line: rule: message, in file/line order.
  EXPECT_NE(r.output.find("src/bad_random.cpp:10: D1: "), std::string::npos);
}

TEST(Pinlint, D2FlagsUnorderedIterationThroughThePairedHeader) {
  const auto r = run_pinlint("--root=" + fixture("d2") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D2: "), 2) << r.output;
  // Both sites name the container declared in table.hpp, proving the
  // paired-header lookup works.
  EXPECT_EQ(count_hits(r.output, "unordered container 'cells'"), 2)
      << r.output;
}

TEST(Pinlint, D2FlagsIterationOverTheSimulatorHashTables) {
  const auto r = run_pinlint("--root=" + fixture("d2_hash") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The HashMap range-for and the HashSet begin() fire; the annotated
  // HashSet loop does not.
  EXPECT_EQ(count_hits(r.output, ": D2: "), 2) << r.output;
  EXPECT_NE(r.output.find("src/tables.cpp:8: D2: iteration over unordered "
                          "container 'open'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/tables.cpp:15: D2: iterator traversal of "
                          "unordered container 'seen'"),
            std::string::npos)
      << r.output;
}

TEST(Pinlint, D2AnnotatedLoopsScanClean) {
  const auto r = run_pinlint("--root=" + fixture("d2_clean") + " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos);
}

TEST(Pinlint, D3FlagsRawAllocationButNotTheSimulatorIdioms) {
  const auto r = run_pinlint("--root=" + fixture("d3") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D3: "), 8) << r.output;
  EXPECT_NE(r.output.find("raw 'new'"), std::string::npos);
  EXPECT_NE(r.output.find("raw 'delete'"), std::string::npos);
  EXPECT_EQ(count_hits(r.output, "raw 'malloc()'"), 3) << r.output;
  EXPECT_EQ(count_hits(r.output, "raw 'free()'"), 2) << r.output;
  EXPECT_EQ(count_hits(r.output, "raw 'calloc()'"), 1) << r.output;
  // Qualified libc (`std::malloc`, `std::free`, `::calloc`) and
  // `return malloc(...)` fire like the bare calls. The `// pinlint:
  // allow(D3: ...)` call, the member call heap.malloc(), the declaration
  // `void* malloc(...)`, the definition `Heap::malloc` and `= delete` must
  // not: exactly the 8 raw sites above and nothing else.
}

TEST(Pinlint, D4CrossChecksCountersAgainstIncrementsAndReport) {
  // D4 reads the counter table's X-macro rows (the one list both reports
  // are generated from) and flags every row nothing under src/ increments;
  // a row that is only read counts as never incremented.
  const auto r = run_pinlint("--root=" + fixture("d4") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D4: "), 2) << r.output;
  EXPECT_NE(r.output.find("counters.hpp:11: D4: counter 'never_incremented' "
                          "is declared but never incremented"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'only_read' is declared but never incremented"),
            std::string::npos)
      << r.output;
  // Bumped with ++ and += respectively: must not appear at all.
  EXPECT_EQ(r.output.find("'pin_ops'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("'pages_pinned'"), std::string::npos) << r.output;
}

TEST(Pinlint, D4AcceptsTheLifecycleStampingIdiom) {
  // Crash-history counters are stamped from slot state with plain '=' on
  // restart; D4 must treat that as an increment site, while still flagging
  // the one table row nothing ever bumps.
  const auto r = run_pinlint("--root=" + fixture("d4_lifecycle") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D4: "), 1) << r.output;
  EXPECT_NE(r.output.find("'stale_epoch_probes' is declared but never "
                          "incremented"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("'lifecycle_crashes'"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("'lifecycle_reclaimed_pages'"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("'fenced_stale_frames'"), std::string::npos)
      << r.output;
}

TEST(Pinlint, D4FlagsACounterFileWithoutTableRows) {
  const auto r = run_pinlint("--root=" + fixture("d4_no_table") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D4: "), 1) << r.output;
  EXPECT_NE(r.output.find("D4 would check nothing"), std::string::npos)
      << r.output;
}

TEST(Pinlint, D5FlagsSwitchesThatMissATableKind) {
  const auto r = run_pinlint("--root=" + fixture("d5") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Two defaultless switches miss kC, the table's third row: the generic
  // user and the flight-recorder-style compact encoder.
  EXPECT_EQ(count_hits(r.output, ": D5: "), 2) << r.output;
  EXPECT_EQ(
      count_hits(r.output, "no default and does not handle EventKind::kC"),
      2)
      << r.output;
  EXPECT_NE(r.output.find("flight_encoder.cpp"), std::string::npos)
      << r.output;
  // kA/kB are handled: no diagnostic may mention them.
  EXPECT_EQ(r.output.find("kA"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("kB"), std::string::npos) << r.output;
}

TEST(Pinlint, D5FlagsAnEventHeaderWithoutTableRows) {
  const auto r = run_pinlint("--root=" + fixture("d5_no_table") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D5: "), 1) << r.output;
  EXPECT_NE(r.output.find("D5 would check nothing"), std::string::npos)
      << r.output;
}

TEST(Pinlint, D6FlagsHeaderHygiene) {
  const auto r = run_pinlint("--root=" + fixture("d6") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D6: "), 3) << r.output;
  EXPECT_NE(r.output.find("missing '#pragma once'"), std::string::npos);
  EXPECT_NE(r.output.find("'using namespace' in a header"),
            std::string::npos);
  EXPECT_NE(r.output.find("uses std::vector but does not include <vector>"),
            std::string::npos);
}

TEST(Pinlint, CleanFixtureExitsZero) {
  const auto r = run_pinlint("--root=" + fixture("clean") + " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean (2 files)"), std::string::npos) << r.output;
}

TEST(Pinlint, BaselineSuppressesListedDiagnostics) {
  const auto r = run_pinlint("--root=" + fixture("d1") + " --baseline=" +
                             fixture("baselines/suppress_d1.txt") + " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D1: "), 0) << r.output;
}

TEST(Pinlint, StaleBaselineEntriesAreErrors) {
  // A clean tree with a baseline entry matching nothing: the entry must be
  // reported and fail the run — this is what makes the file shrink-only.
  const auto r = run_pinlint("--root=" + fixture("clean") + " --baseline=" +
                             fixture("baselines/stale.txt") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("stale-baseline"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/nothing_here.cpp:D1"), std::string::npos);
}

TEST(Pinlint, JsonReportCarriesEveryDiagnostic) {
  const std::string json = testing::TempDir() + "pinlint_d1.json";
  const auto r = run_pinlint("--root=" + fixture("d1") + " --json=" + json +
                             " --quiet src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.output.empty()) << "--quiet must silence stdout: "
                                << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good()) << "missing JSON report " << json;
  std::stringstream body;
  body << in.rdbuf();
  const std::string j = body.str();
  EXPECT_NE(j.find("\"count\":7"), std::string::npos) << j;
  EXPECT_EQ(count_hits(j, "\"rule\":\"D1\""), 7) << j;
  EXPECT_NE(j.find("\"file\":\"src/bad_random.cpp\""), std::string::npos);
  EXPECT_NE(j.find("\"stale_baseline\":[]"), std::string::npos);
  std::remove(json.c_str());
}

TEST(Pinlint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_pinlint("").exit_code, 2);  // no paths
  EXPECT_EQ(run_pinlint("--bogus-flag src").exit_code, 2);
  EXPECT_EQ(run_pinlint("--root=" + fixture("d1") + " no/such/dir").exit_code,
            2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(Pinlint, D0FlagsEmptySuppressionReasonsWhichAlsoSuppressNothing) {
  const auto r = run_pinlint("--root=" + fixture("d0") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // allow(D3), allow(D3:) and unordered-ok() each fire once.
  EXPECT_EQ(count_hits(r.output, ": D0: "), 3) << r.output;
  EXPECT_NE(r.output.find("carries no reason"), std::string::npos);
  // A reasonless annotation also fails to suppress the underlying rule.
  EXPECT_EQ(count_hits(r.output, ": D3: "), 2) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D2: "), 1) << r.output;
  // The properly reasoned allow(D3: ...) suppresses its site silently.
  EXPECT_NE(r.output.find("6 violation(s)"), std::string::npos) << r.output;
}

TEST(Pinlint, D7FlagsDeferredCapturesWithoutRevalidation) {
  // Fixture modeled on the PR 7 UAF: a pin-chunk completion that captures
  // the endpoint and fires after it died.
  const auto r = run_pinlint("--root=" + fixture("d7") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D7: "), 2) << r.output;
  EXPECT_NE(r.output.find("captures 'this', raw pointer 'c'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("captures 'this', '&c'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("without revalidation"), std::string::npos);
  // The weak-token, find_alive(), guarded(...) and allow(D7: ...) variants
  // in the same file all pass: exactly the two raw sites fire.
}

TEST(Pinlint, D7BaselineSuppressesListedFindings) {
  const auto r = run_pinlint("--root=" + fixture("d7") + " --baseline=" +
                             fixture("baselines/suppress_d7.txt") + " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D7: "), 0) << r.output;
}

TEST(Pinlint, D8FlagsUntaggedAndEmptyTaggedScheduleSites) {
  const auto r = run_pinlint("--root=" + fixture("d8") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D8: "), 2) << r.output;
  EXPECT_NE(r.output.find("does not stamp a TaskTag"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("empty TaskTag {}"), std::string::npos) << r.output;
  // Tagged calls, the explicitly typed tag, the declarations of
  // schedule_at/schedule_after themselves, and the allow(D8: ...) site must
  // not fire.
}

TEST(Pinlint, D9FlagsLayeringBackEdgesAndIncludeCycles) {
  const auto r = run_pinlint("--root=" + fixture("d9") + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_hits(r.output, ": D9: "), 2) << r.output;
  EXPECT_NE(r.output.find("layering back-edge: 'mem' may not depend on "
                          "'core'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("include cycle: src/core/library.hpp -> "
                          "src/mem/pinner.hpp -> src/core/library.hpp"),
            std::string::npos)
      << r.output;
  // core -> mem and both -> sim are forward edges: only the one back-edge
  // and the one cycle may be reported.
}

TEST(Pinlint, DotEmitsModuleGraphWithViolationsInRed) {
  const std::string dot = testing::TempDir() + "pinlint_d9.dot";
  const auto r =
      run_pinlint("--root=" + fixture("d9") + " --dot=" + dot + " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string g = slurp(dot);
  ASSERT_FALSE(g.empty()) << "missing dot artifact " << dot;
  EXPECT_NE(g.find("digraph pinsim_includes"), std::string::npos) << g;
  // The back-edge is present and painted red; the legal core -> mem edge
  // is present and is not.
  const auto bad = g.find("\"mem\" -> \"core\"");
  ASSERT_NE(bad, std::string::npos) << g;
  EXPECT_NE(g.find("color=red", bad), std::string::npos) << g;
  const auto good = g.find("\"core\" -> \"mem\"");
  ASSERT_NE(good, std::string::npos) << g;
  EXPECT_EQ(g.substr(good, g.find('\n', good) - good).find("color=red"),
            std::string::npos)
      << g;
  std::remove(dot.c_str());
}

TEST(Pinlint, SarifReportValidatesAndCarriesFindings) {
  const std::string sarif = testing::TempDir() + "pinlint_d7.sarif";
  const auto r = run_pinlint("--root=" + fixture("d7") + " --sarif=" + sarif +
                             " --quiet src");
  EXPECT_EQ(r.exit_code, 1);
  const std::string j = slurp(sarif);
  ASSERT_FALSE(j.empty()) << "missing SARIF report " << sarif;
  EXPECT_TRUE(pinsim::obs::json_valid(j)) << j;
  EXPECT_NE(j.find("\"version\":\"2.1.0\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"name\":\"pinlint\""), std::string::npos) << j;
  EXPECT_EQ(count_hits(j, "\"ruleId\":\"D7\""), 2) << j;
  EXPECT_NE(j.find("\"uri\":\"src/core/pin_chunk.cpp\""), std::string::npos)
      << j;
  EXPECT_NE(j.find("\"startLine\":"), std::string::npos) << j;
  // Rule metadata covers the whole pack, not just the rules that fired.
  EXPECT_NE(j.find("\"id\":\"D1\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"id\":\"D9\""), std::string::npos) << j;
  std::remove(sarif.c_str());
}

TEST(Pinlint, SarifIsWrittenEvenWhenCleanAndOnStaleBaseline) {
  const std::string sarif = testing::TempDir() + "pinlint_clean.sarif";
  auto r = run_pinlint("--root=" + fixture("clean") + " --sarif=" + sarif +
                       " --quiet src");
  EXPECT_EQ(r.exit_code, 0);
  std::string j = slurp(sarif);
  ASSERT_FALSE(j.empty());
  EXPECT_TRUE(pinsim::obs::json_valid(j)) << j;
  EXPECT_NE(j.find("\"results\":[]"), std::string::npos) << j;
  // A stale baseline entry surfaces as a synthetic stale-baseline result.
  r = run_pinlint("--root=" + fixture("clean") + " --baseline=" +
                  fixture("baselines/stale.txt") + " --sarif=" + sarif +
                  " --quiet src");
  EXPECT_EQ(r.exit_code, 1);
  j = slurp(sarif);
  EXPECT_TRUE(pinsim::obs::json_valid(j)) << j;
  EXPECT_NE(j.find("\"ruleId\":\"stale-baseline\""), std::string::npos) << j;
  std::remove(sarif.c_str());
}

}  // namespace
