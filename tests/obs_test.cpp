// The typed event bus and its exporters: every kind is named, a relay
// forwards only while its bus is active, the Chrome-trace writer emits
// loadable JSON, and the latency recorder distills a real two-host
// rendezvous run into histograms — with the invariant checker staying clean.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "obs/bus.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/invariants.hpp"
#include "obs/json.hpp"
#include "obs/latency.hpp"
#include "obs/relay.hpp"
#include "sim/task.hpp"

namespace pinsim::obs {
namespace {

constexpr std::uint64_t kMatchAll = ~std::uint64_t{0};

Event ev(EventKind kind) {
  Event e;
  e.kind = kind;
  e.node = 1;
  e.ep = 0;
  return e;
}

// --- event kinds --------------------------------------------------------------

TEST(EventKind, EveryKindHasAName) {
  for (std::size_t k = 0; k < std::size(kEventKindRows); ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    ASSERT_NE(name, nullptr) << k;
    EXPECT_STRNE(name, "") << k;
  }
}

// --- bus, relay ---------------------------------------------------------------

TEST(Bus, StampsTimeAndFansOut) {
  sim::Engine eng;
  Bus bus(eng);
  EXPECT_FALSE(bus.active());

  test::CaptureSink a, b;
  bus.attach(&a);
  bus.attach(&b);
  bus.attach(&a);  // double attach is idempotent
  EXPECT_TRUE(bus.active());

  eng.schedule_at(250, [&] { bus.emit(ev(EventKind::kSendDone)); });
  eng.run();
  ASSERT_EQ(a.events.size(), 1u);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_EQ(a.events[0].time, 250);

  bus.detach(&a);
  bus.emit(ev(EventKind::kSendDone));
  EXPECT_EQ(a.events.size(), 1u);
  EXPECT_EQ(b.events.size(), 2u);
}

TEST(Relay, ForwardsOnlyWhileItsBusIsActive) {
  sim::Engine eng;
  Bus bus(eng);
  test::CaptureSink sink;

  Relay relay;
  EXPECT_FALSE(relay.active());
  relay.emit(ev(EventKind::kSendDone));  // no bus: dropped, not a crash

  relay.set_bus(&bus);
  EXPECT_FALSE(relay.active());  // a bus with no sink is inactive too
  relay.emit(ev(EventKind::kSendDone));

  bus.attach(&sink);
  EXPECT_TRUE(relay.active());
  Event e = ev(EventKind::kRndvPost);
  e.seq = 4;
  relay.emit(e);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kRndvPost);
  EXPECT_EQ(sink.events[0].seq, 4u);

  bus.detach(&sink);
  EXPECT_FALSE(relay.active());
  relay.emit(ev(EventKind::kSendDone));
  EXPECT_EQ(sink.events.size(), 1u);
  relay.set_bus(nullptr);
}

// --- json helpers ------------------------------------------------------------

TEST(Json, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_str("hi"), "\"hi\"");
}

// --- chrome trace writer -----------------------------------------------------

TEST(ChromeTrace, RendersSpansFlowsAndMetadata) {
  sim::Engine eng;
  Bus bus(eng);
  ChromeTraceWriter w("/nonexistent-dir/never-written.json");
  bus.attach(&w);

  eng.schedule_at(1000, [&] {
    Event s = ev(EventKind::kPinStart);
    s.region = 3;
    s.len = 8;
    bus.emit(s);
    Event post = ev(EventKind::kRndvPost);
    post.seq = 7;
    post.len = 65536;
    bus.emit(post);
  });
  eng.schedule_at(5000, [&] {
    Event d = ev(EventKind::kPinDone);
    d.region = 3;
    d.offset = 8;
    d.len = 8;
    bus.emit(d);
    Event done = ev(EventKind::kSendDone);
    done.seq = 7;
    bus.emit(done);
  });
  eng.run();

  EXPECT_EQ(w.event_count(), 4u);
  const std::string json = w.render();
  // Loadable array shape with per-(node, ep) track metadata.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // Pin job and send both open and close async spans.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Flow arrows tie the rendezvous chain together.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  // Timestamps are microseconds (1000 ns -> 1 us).
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos);
}

TEST(ChromeTrace, FinalizeWritesFile) {
  sim::Engine eng;
  Bus bus(eng);
  const std::string path = ::testing::TempDir() + "obs_chrome_trace.json";
  ChromeTraceWriter w(path);
  bus.attach(&w);
  bus.emit(ev(EventKind::kSendDone));
  bus.finalize();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), w.render());
  std::remove(path.c_str());
}

// --- latency recorder --------------------------------------------------------

TEST(LatencyRecorder, PairsOpensWithCloses) {
  LatencyRecorder rec;
  Event s = ev(EventKind::kPinStart);
  s.time = 100;
  s.region = 1;
  rec.on_event(s);
  Event d = ev(EventKind::kPinDone);
  d.time = 700;
  d.region = 1;
  rec.on_event(d);
  // Close without an open is ignored, not mis-recorded.
  Event stray = ev(EventKind::kPinDone);
  stray.time = 900;
  stray.region = 2;
  rec.on_event(stray);

  EXPECT_EQ(rec.pin_latency().count(), 1u);
  EXPECT_DOUBLE_EQ(rec.pin_latency().min(), 600.0);
  EXPECT_EQ(rec.send_latency().count(), 0u);

  Event post = ev(EventKind::kEagerPost);
  post.time = 1000;
  post.seq = 3;
  post.len = 2048;
  rec.on_event(post);
  Event fail = ev(EventKind::kSendAbort);
  fail.seq = 3;
  rec.on_event(fail);
  // Aborts drop the open entry without polluting the success histogram.
  EXPECT_EQ(rec.send_latency().count(), 0u);
  EXPECT_EQ(rec.message_sizes().count(), 1u);

  const std::string json = rec.json();
  EXPECT_NE(json.find("\"pin_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(rec.summary().find("pin"), std::string::npos);
}

// --- end to end: a real rendezvous through the instrumented stack ------------

TEST(ObsEndToEnd, TwoHostRendezvousProducesCleanInstrumentedRun) {
  sim::Engine eng;
  Bus bus(eng);
  InvariantChecker checker;
  LatencyRecorder latency;
  ChromeTraceWriter chrome("/nonexistent-dir/unused.json");
  bus.attach(&checker);
  bus.attach(&latency);
  bus.attach(&chrome);

  net::Fabric fabric(eng);
  core::Host a(eng, fabric, core::Host::Config{},
               core::overlapped_cache_config());
  core::Host b(eng, fabric, core::Host::Config{},
               core::overlapped_cache_config());
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();
  a.driver().set_bus(&bus);
  b.driver().set_bus(&bus);

  const std::size_t len = 512 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);
  std::vector<std::byte> payload(len, std::byte{0x5a});
  pa.as.write(src, payload);

  core::Status send_st, recv_st;
  sim::spawn(eng, [](core::Host::Process& p, core::EndpointAddr to,
                     mem::VirtAddr buf, std::size_t n,
                     core::Status& out) -> sim::Task<> {
    out = co_await p.lib.send(to, 0x42, buf, n);
  }(pa, pb.addr(), src, len, send_st));
  sim::spawn(eng, [](core::Host::Process& p, mem::VirtAddr buf, std::size_t n,
                     core::Status& out) -> sim::Task<> {
    out = co_await p.lib.recv(0x42, kMatchAll, buf, n);
  }(pb, dst, len, recv_st));
  eng.run();
  eng.rethrow_task_failures();
  ASSERT_TRUE(send_st.ok);
  ASSERT_TRUE(recv_st.ok);

  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  // A 512 kB rendezvous must show up in every histogram.
  EXPECT_GE(latency.pin_latency().count(), 1u);
  EXPECT_GE(latency.send_latency().count(), 1u);
  EXPECT_GE(latency.pull_latency().count(), 1u);
  EXPECT_GE(latency.message_sizes().count(), 1u);
  EXPECT_DOUBLE_EQ(latency.message_sizes().max(), static_cast<double>(len));
  // And the trace saw traffic from both nodes.
  EXPECT_GT(chrome.event_count(), 10u);
  const std::string json = chrome.render();
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);

  a.driver().set_bus(nullptr);
  b.driver().set_bus(nullptr);
}

}  // namespace
}  // namespace pinsim::obs
