// The protocol's typed event stream: a traced transfer must show the causal
// order the paper's Figures 2/5 draw.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "capture_sink.hpp"
#include "core/host.hpp"
#include "obs/bus.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/task.hpp"

namespace pinsim {
namespace {

using obs::EventKind;
using test::CaptureSink;

TEST(Tracer, TracedTransferShowsTheFigure5Order) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  core::Host::Config hc;
  hc.memory_frames = 16384;
  // Sinks and buses before the hosts: they must outlive the drivers, whose
  // teardown (region-cache eviction unpinning cached regions) still emits.
  CaptureSink sender_trace;
  CaptureSink receiver_trace;
  obs::Bus sender_bus(eng);
  obs::Bus receiver_bus(eng);
  sender_bus.attach(&sender_trace);
  receiver_bus.attach(&receiver_trace);
  core::Host a(eng, fabric, hc, core::overlapped_cache_config());
  core::Host b(eng, fabric, hc, core::overlapped_cache_config());
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();

  a.driver().set_bus(&sender_bus);
  b.driver().set_bus(&receiver_bus);

  const std::size_t len = 256 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);
  sim::spawn(eng, [](core::Library& lib, core::EndpointAddr to,
                     mem::VirtAddr buf, std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 1, buf, n);
  }(pa.lib, pb.addr(), src, len));
  sim::spawn(eng, [](core::Library& lib, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    (void)co_await lib.recv(1, ~std::uint64_t{0}, buf, n);
  }(pb.lib, dst, len));
  eng.run();
  eng.rethrow_task_failures();

  // Sender: Figure 5's defining property — the RNDV leaves *before* the
  // region is fully pinned (overlapped mode).
  const auto rndv_tx = sender_trace.find_first(EventKind::kPktTx, "RNDV");
  const auto pin_start = sender_trace.find_first(EventKind::kPinStart);
  const auto pin_done = sender_trace.find_first(EventKind::kPinDone);
  ASSERT_NE(rndv_tx, CaptureSink::npos);
  ASSERT_NE(pin_start, CaptureSink::npos);
  ASSERT_NE(pin_done, CaptureSink::npos);
  EXPECT_LT(rndv_tx, pin_done);  // the RNDV overtakes the pin completion

  // Receiver: RNDV arrives, pulls go out, data flows back.
  const auto rndv_rx = receiver_trace.find_first(EventKind::kPktRx, "RNDV");
  const auto pull_tx = receiver_trace.find_first(EventKind::kPktTx, "PULL");
  const auto reply_rx =
      receiver_trace.find_first(EventKind::kPktRx, "PULL_REPLY");
  const auto notify_tx = receiver_trace.find_first(EventKind::kPktTx, "NOTIFY");
  ASSERT_NE(rndv_rx, CaptureSink::npos);
  ASSERT_NE(notify_tx, CaptureSink::npos);
  EXPECT_LT(rndv_rx, pull_tx);
  EXPECT_LT(pull_tx, reply_rx);
  EXPECT_LT(reply_rx, notify_tx);

  // Freeing the buffer shows up as an invalidation event.
  pa.heap.free(src);
  EXPECT_NE(sender_trace.find_first(EventKind::kPinInvalidate),
            CaptureSink::npos);
}

// The flight recorder's block-request and copy-in slots are the pull handle
// their emitters set, so a dump ties every PULL and every copy into the
// landing region to the transfer it serves.
TEST(Tracer, FlightBlockRequestsCarryTheirPullHandle) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  core::Host::Config hc;
  hc.memory_frames = 16384;
  obs::FlightRecorder::Config fc;
  fc.max_dumps = 0;  // an unexpected abort fails the test, not the disk
  obs::FlightRecorder flight(fc);
  obs::Bus bus(eng);
  bus.attach(&flight);
  core::Host a(eng, fabric, hc, core::overlapped_cache_config());
  core::Host b(eng, fabric, hc, core::overlapped_cache_config());
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();
  b.driver().set_bus(&bus);

  // Two rendezvous one after the other: two pulls, eight blocks each.
  const std::size_t len = 256 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);
  sim::spawn(eng, [](core::Library& lib, core::EndpointAddr to,
                     mem::VirtAddr buf, std::size_t n) -> sim::Task<> {
    for (std::uint64_t m = 1; m <= 2; ++m) {
      (void)co_await lib.send(to, m, buf, n);
    }
  }(pa.lib, pb.addr(), src, len));
  sim::spawn(eng, [](core::Library& lib, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    for (std::uint64_t m = 1; m <= 2; ++m) {
      (void)co_await lib.recv(m, ~std::uint64_t{0}, buf, n);
    }
  }(pb.lib, dst, len));
  eng.run();
  eng.rethrow_task_failures();
  EXPECT_EQ(flight.dump_attempts(), 0u);
  ASSERT_EQ(flight.dropped(), 0u);

  // Walk the rendered entries in order: each block request and each copy
  // into the landing region must name the handle of the pull_start before
  // it.
  const std::string body = flight.render("test");
  const auto is = [&](std::size_t entry, std::string_view name) {
    return std::string_view(body).substr(entry).starts_with(
        "{\"name\":\"" + std::string(name) + "\"");
  };
  const auto handle_of = [&](std::size_t entry, std::size_t end) {
    const std::size_t at = body.find("\"handle\":", entry);
    if (at == std::string::npos || at > end) return std::string("none");
    return std::to_string(std::strtoull(body.c_str() + at + 9, nullptr, 10));
  };
  std::string pull_handle;
  int pulls = 0;
  int block_reqs = 0;
  int copies_in = 0;
  for (std::size_t at = body.find("{\"name\":"); at != std::string::npos;) {
    const std::size_t next = body.find("{\"name\":", at + 1);
    const std::size_t end = next == std::string::npos ? body.size() : next;
    if (is(at, "pull_start")) {
      pull_handle = handle_of(at, end);
      ++pulls;
    } else if (is(at, "pull_block_req")) {
      EXPECT_EQ(handle_of(at, end), pull_handle) << body.substr(at, end - at);
      ++block_reqs;
    } else if (is(at, "copy_in")) {
      EXPECT_EQ(handle_of(at, end), pull_handle) << body.substr(at, end - at);
      ++copies_in;
    }
    at = next;
  }
  EXPECT_EQ(pulls, 2);
  EXPECT_GE(block_reqs, 16);
  EXPECT_GE(copies_in, 2 * 256 / 8);  // every 8 kB frame of both messages
}

TEST(Tracer, OverlapBlockingOnlyRestrictsOverlapToBlockingRequests) {
  // §6: "only enabling decoupled/overlapped pinning for blocking
  // operations". A nonblocking isend must pin synchronously (RNDV after
  // pin done); a blocking send must overlap (RNDV before pin done).
  core::StackConfig stack = core::overlapped_pinning_config();
  stack.pinning.overlap_blocking_only = true;

  sim::Engine eng;
  net::Fabric fabric(eng);
  core::Host::Config hc;
  hc.memory_frames = 16384;
  CaptureSink trace;  // sink and bus outlive the hosts (teardown emits)
  obs::Bus bus(eng);
  bus.attach(&trace);
  core::Host a(eng, fabric, hc, stack);
  core::Host b(eng, fabric, hc, stack);
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();
  a.driver().set_bus(&bus);

  const std::size_t len = 1024 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);

  // Nonblocking send (hint defaults to false): sync pin.
  {
    auto sreq = pa.lib.isend(pb.addr(), 1, src, len);
    auto rreq = pb.lib.irecv(1, ~std::uint64_t{0}, dst, len);
    eng.run();
    eng.rethrow_task_failures();
    ASSERT_TRUE(sreq->status().ok);
    const auto pin_done = trace.find_first(EventKind::kPinDone);
    const auto rndv_tx = trace.find_first(EventKind::kPktTx, "RNDV");
    ASSERT_NE(pin_done, CaptureSink::npos);
    ASSERT_NE(rndv_tx, CaptureSink::npos);
    EXPECT_LT(pin_done, rndv_tx);  // pin completed before the RNDV left
  }

  trace.events.clear();
  // No cache in this config, so the region repins; a *blocking* send
  // overlaps as usual.
  {
    bool done = false;
    sim::spawn(eng, [](core::Library& lib, core::EndpointAddr to,
                       mem::VirtAddr buf, std::size_t n,
                       bool& flag) -> sim::Task<> {
      (void)co_await lib.send(to, 2, buf, n);
      flag = true;
    }(pa.lib, pb.addr(), src, len, done));
    sim::spawn(eng, [](core::Library& lib, mem::VirtAddr buf,
                       std::size_t n) -> sim::Task<> {
      (void)co_await lib.recv(2, ~std::uint64_t{0}, buf, n);
    }(pb.lib, dst, len));
    eng.run();
    eng.rethrow_task_failures();
    ASSERT_TRUE(done);
    const auto pin_done = trace.find_first(EventKind::kPinDone);
    const auto rndv_tx = trace.find_first(EventKind::kPktTx, "RNDV");
    ASSERT_NE(pin_done, CaptureSink::npos);
    ASSERT_NE(rndv_tx, CaptureSink::npos);
    EXPECT_LT(rndv_tx, pin_done);  // overlapped: RNDV overtakes the pin
  }
}

}  // namespace
}  // namespace pinsim
