#include "core/report.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/json.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

/// The members of a whitespace-free JSON object, or the elements of an
/// array: (key, value text) pairs, with an empty key for array elements.
std::vector<std::pair<std::string, std::string_view>> members(
    std::string_view json) {
  std::vector<std::pair<std::string, std::string_view>> out;
  for (std::size_t i = 1; i + 1 < json.size();) {
    std::string key;
    if (json.front() == '{') {
      const std::size_t k = i;
      if (!obs::detail::json_parse_string(json, i)) break;
      key = json.substr(k + 1, i - k - 2);
      ++i;  // ':'
    }
    const std::size_t v = i;
    if (!obs::detail::json_parse_value(json, i, 64)) break;
    out.emplace_back(key, json.substr(v, i - v));
    ++i;  // ',' or the closing bracket
  }
  return out;
}

std::vector<std::string> keys(std::string_view object) {
  std::vector<std::string> out;
  for (const auto& [key, value] : members(object)) out.push_back(key);
  return out;
}

std::string_view value(std::string_view object, const std::string& key) {
  for (const auto& [k, v] : members(object)) {
    if (k == key) return v;
  }
  return {};
}

TEST(Report, ContainsTheKeyCountersAfterATransfer) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.memory_frames = 16384;
  Host a(eng, fabric, hc, overlapped_cache_config());
  Host b(eng, fabric, hc, overlapped_cache_config());
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();

  const std::size_t len = 256 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);
  sim::spawn(eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 1, buf, n);
  }(pa.lib, pb.addr(), src, len));
  sim::spawn(eng, [](Library& lib, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    (void)co_await lib.recv(1, ~std::uint64_t{0}, buf, n);
  }(pb.lib, dst, len));
  eng.run();
  eng.rethrow_task_failures();

  const std::string report = format_report(pa, a);
  EXPECT_NE(report.find("rndv=1"), std::string::npos) << report;
  EXPECT_NE(report.find("pinning:"), std::string::npos);
  EXPECT_NE(report.find("region cache:"), std::string::npos);
  EXPECT_NE(report.find("overlap:"), std::string::npos);
  EXPECT_NE(report.find("host pinned pages"), std::string::npos);

  const std::string recv_report = format_report(pb, b);
  EXPECT_NE(recv_report.find("pulls="), std::string::npos);
}

TEST(Report, FreshProcessReportsZeroes) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host a(eng, fabric, {}, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string report = format_report(pa, a);
  EXPECT_NE(report.find("eager=0 rndv=0"), std::string::npos) << report;
  EXPECT_NE(report.find("misses=0"), std::string::npos);
}

TEST(Report, JsonCarriesHostAndCoreNames) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.name = "hostA";
  Host a(eng, fabric, hc, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string json = format_json_report(pa, a);
  EXPECT_NE(json.find("\"host\":\"hostA\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"core\":\""), std::string::npos);
  EXPECT_NE(json.find("\"endpoint\":0"), std::string::npos);
}

TEST(Report, JsonEscapesHostileHostName) {
  // A host name with a quote and a backslash must not break the JSON —
  // emission goes through the obs/json.hpp escaping authority.
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.name = "evil\"host\\name";
  Host a(eng, fabric, hc, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string json = format_json_report(pa, a);
  EXPECT_NE(json.find("\"host\":\"evil\\\"host\\\\name\""), std::string::npos)
      << json;
}

TEST(Report, LongHostNameIsNotTruncated) {
  // The core line embeds the host name; a name longer than any fixed line
  // buffer must not cut off the busy times and utilization after it.
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.name = std::string(300, 'h');
  Host a(eng, fabric, hc, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string report = format_report(pa, a);
  EXPECT_NE(report.find(hc.name), std::string::npos);
  EXPECT_NE(report.find("(util "), std::string::npos) << report;
  EXPECT_NE(report.find("fabric drops: fault=0 congestion=0 "
                        "uplink_stranded=0\n"),
            std::string::npos);
}

TEST(Report, JsonEndpointRowHasOneKeyPerTableRow) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host a(eng, fabric, {}, pinning_cache_config());
  a.memory().set_pin_quota(64);  // a finite quota must not leak in either
  auto& pa = a.spawn_process();

  std::vector<std::string> want = {"endpoint", "node", "host", "core"};
  for (const CounterRow& row : kCounterRows) want.emplace_back(row.name);
  for (const char* k : {"cache_hits", "cache_misses", "cache_evictions"}) {
    want.emplace_back(k);
  }
  EXPECT_EQ(keys(format_json_report(pa, a)), want);
  // Table rows are unique, so the row set is exactly the Counters members.
  EXPECT_EQ(std::set<std::string>(want.begin(), want.end()).size(),
            want.size());
}

TEST(Report, AbortCauseRowsAppearInBothFormats) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host a(eng, fabric, {}, pinning_cache_config());
  auto& pa = a.spawn_process();
  const auto buf = pa.heap.malloc(64);
  ASSERT_TRUE(pa.ep.cancel_recv(pa.ep.irecv(1, ~std::uint64_t{0}, buf, 64,
                                            kInvalidRegion, [](Status) {})));

  const std::string text = format_report(pa, a);
  const std::string json = format_json_report(pa, a);
  EXPECT_NE(text.find("\n  abort causes: retry_budget="), std::string::npos)
      << text;
  for (std::size_t k = 1; k < std::size(kAbortCauseRows); ++k) {
    const AbortCauseRow& row = kAbortCauseRows[k];
    const std::string n = row.counter == &Counters::abort_cancelled ? "1" : "0";
    EXPECT_NE(text.find(std::string(" ") + row.name + "=" + n),
              std::string::npos)
        << row.name << "\n" << text;
    EXPECT_EQ(value(json, std::string("abort_") + row.name), n) << json;
  }
  EXPECT_EQ(value(json, "aborts"), "1");
}

TEST(Report, RunReportEmitsHostAndFabricScopeOnce) {
  StackConfig stack = overlapped_cache_config();
  stack.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  stack.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  bench::Cluster cluster(cpu::xeon_e5460(), stack, /*nranks=*/2,
                         /*with_ioat=*/false);
  cluster.hosts[0]->memory().set_pin_quota(4096);
  net::FaultPlan plan;
  plan.loss = 0.05;
  cluster.fabric->faults().set_plan(plan);
  bench::ObsRig rig(cluster);

  auto& p0 = cluster.comm->process(0);
  auto& p1 = cluster.comm->process(1);
  const std::size_t len = 256 * 1024;
  sim::spawn(cluster.eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                             std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 1, buf, n);
  }(p0.lib, p1.addr(), p0.heap.malloc(len), len));
  sim::spawn(cluster.eng, [](Library& lib, mem::VirtAddr buf,
                             std::size_t n) -> sim::Task<> {
    (void)co_await lib.recv(1, ~std::uint64_t{0}, buf, n);
  }(p1.lib, p1.heap.malloc(len), len));
  cluster.eng.run();
  cluster.eng.rethrow_task_failures();
  EXPECT_EQ(rig.finish(), 0);
  ASSERT_GT(cluster.fabric->fault_dropped(), 0u);

  const std::string report = rig.json_report();
  const auto endpoints = members(value(report, "endpoints"));
  ASSERT_EQ(endpoints.size(), 2u);
  for (const auto& [unused, row] : endpoints) {
    for (const std::string& key : keys(row)) {
      EXPECT_NE(key.rfind("host_", 0), 0u) << key;
      EXPECT_NE(key.rfind("fabric_", 0), 0u) << key;
    }
  }

  const auto hosts = members(value(report, "hosts"));
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(keys(hosts[0].second),
            (std::vector<std::string>{"name", "node", "pinned_pages",
                                      "pin_quota", "quota_denials"}));
  EXPECT_EQ(value(hosts[0].second, "name"), "\"hostA\"");
  EXPECT_EQ(value(hosts[0].second, "pin_quota"), "4096");
  EXPECT_EQ(keys(hosts[1].second),
            (std::vector<std::string>{"name", "node", "pinned_pages",
                                      "quota_denials"}));

  const std::string_view fabric = value(report, "fabric");
  EXPECT_EQ(value(fabric, "congestion_dropped"),
            std::to_string(cluster.fabric->congestion_dropped()));
  EXPECT_EQ(value(fabric, "fault_dropped"),
            std::to_string(cluster.fabric->fault_dropped()));
  EXPECT_EQ(value(fabric, "uplink_stranded"),
            std::to_string(cluster.fabric->uplink_stranded()));
}

}  // namespace
}  // namespace pinsim::core
