// Protocol edge cases driven by hand-crafted packets injected straight into
// the endpoint's dispatch path: duplicate control packets, stale data,
// malformed frames, and unknown handles must never corrupt state or crash.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/host.hpp"
#include "core/wire.hpp"
#include "sim/task.hpp"

namespace pinsim::core {
namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

struct Rig {
  explicit Rig(StackConfig stack = pinning_cache_config()) {
    fabric = std::make_unique<net::Fabric>(eng);
    Host::Config hc;
    hc.memory_frames = 16384;
    a = std::make_unique<Host>(eng, *fabric, hc, stack);
    b = std::make_unique<Host>(eng, *fabric, hc, stack);
    pa = &a->spawn_process();
    pb = &b->spawn_process();
  }

  /// Injects a raw frame into host B's NIC as if it came from host A.
  void inject_to_b(const Packet& pkt) {
    net::Frame f;
    f.src = a->nic().node_id();
    f.dst = b->nic().node_id();
    f.payload = encode(pkt);
    b->nic().deliver(std::move(f));
  }

  void drain() {
    eng.run();
    eng.rethrow_task_failures();
  }

  sim::Engine eng;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Host> a, b;
  Host::Process* pa = nullptr;
  Host::Process* pb = nullptr;
};

Packet make_packet(PacketBody body) {
  Packet p;
  p.header.type = packet_type(body);
  p.header.src_ep = 0;
  p.header.dst_ep = 0;
  p.body = std::move(body);
  return p;
}

TEST(EndpointEdge, DuplicateEagerFragmentsAreIgnored) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(1024);
  auto req = rig.pb->lib.irecv(0x7, kAll, dst, 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);

  EagerBody body;
  body.match = 0x7;
  body.msg_len = 8;
  body.frag_offset = 0;
  body.seq = 1;
  body.data.assign(8, std::byte{0x11});
  rig.inject_to_b(make_packet(body));
  rig.inject_to_b(make_packet(body));  // duplicate of the same fragment
  rig.inject_to_b(make_packet(body));
  rig.drain();

  EXPECT_TRUE(req->completed());
  EXPECT_TRUE(req->status().ok);
  EXPECT_EQ(req->status().len, 8u);
  EXPECT_GE(rig.pb->lib.counters().duplicate_frames, 1u);
}

TEST(EndpointEdge, DuplicateOfCompletedEagerMessageIsReAcked) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(64);
  auto req = rig.pb->lib.irecv(0x8, kAll, dst, 64);
  rig.eng.run_until(10 * sim::kMicrosecond);

  EagerBody body;
  body.match = 0x8;
  body.msg_len = 4;
  body.seq = 9;
  body.data.assign(4, std::byte{0x22});
  rig.inject_to_b(make_packet(body));
  rig.drain();
  ASSERT_TRUE(req->completed());
  const auto acks_before = rig.b->nic().stats().tx_frames;

  // A late retransmission of the whole message: must be acked again (the
  // first ack may have been lost), not delivered again.
  rig.inject_to_b(make_packet(body));
  rig.drain();
  EXPECT_GT(rig.b->nic().stats().tx_frames, acks_before);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, DuplicateRndvDoesNotStartASecondPull) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(256 * 1024);
  auto req = rig.pb->lib.irecv(0x9, kAll, dst, 256 * 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);

  RndvBody rndv;
  rndv.match = 0x9;
  rndv.msg_len = 256 * 1024;
  rndv.region = 12345;  // sender region id (opaque to the receiver)
  rndv.seq = 77;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(20 * sim::kMicrosecond);
  const auto pulls_after_first = rig.pb->lib.counters().pulls_sent;
  EXPECT_GT(pulls_after_first, 0u);

  rig.inject_to_b(make_packet(rndv));  // retransmitted rendezvous
  rig.eng.run_until(30 * sim::kMicrosecond);
  // No extra pull state: the pulls in flight belong to the single transfer
  // (the retry timer may re-request, but no *new* handle appears).
  EXPECT_EQ(rig.pb->lib.counters().rndv_received, 2u);
  EXPECT_FALSE(req->completed());  // still waiting for data (none served)
}

TEST(EndpointEdge, PullReplyWithUnknownHandleIsDropped) {
  Rig rig;
  PullReplyBody reply;
  reply.handle = 4242;  // no such pull state
  reply.offset = 0;
  reply.data.assign(512, std::byte{0x33});
  rig.inject_to_b(make_packet(reply));
  rig.drain();
  EXPECT_EQ(rig.pb->lib.counters().duplicate_frames, 1u);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, PullReplyBeyondMessageBoundsIsIgnored) {
  Rig rig;
  const auto dst = rig.pb->heap.malloc(64 * 1024);
  auto req = rig.pb->lib.irecv(0xa, kAll, dst, 64 * 1024);
  rig.eng.run_until(10 * sim::kMicrosecond);
  RndvBody rndv;
  rndv.match = 0xa;
  rndv.msg_len = 64 * 1024;
  rndv.region = 1;
  rndv.seq = 5;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(20 * sim::kMicrosecond);

  PullReplyBody reply;
  reply.handle = 1;  // first handle allocated by the endpoint
  reply.offset = 10 * 1024 * 1024;  // absurd offset
  reply.data.assign(128, std::byte{0x44});
  rig.inject_to_b(make_packet(reply));
  rig.eng.run_until(30 * sim::kMicrosecond);
  EXPECT_FALSE(req->completed());  // nothing delivered, nothing crashed
}

TEST(EndpointEdge, NotifyForUnknownSeqStillGetsAcked) {
  Rig rig;
  NotifyBody notify;
  notify.seq = 999;  // no such send request
  notify.handle = 3;
  const auto tx_before = rig.b->nic().stats().tx_frames;
  rig.inject_to_b(make_packet(notify));
  rig.drain();
  // The ack must go out regardless (our previous ack may have been lost and
  // the sender state already retired).
  EXPECT_GT(rig.b->nic().stats().tx_frames, tx_before);
}

TEST(EndpointEdge, AbortForUnknownSeqIsHarmless) {
  Rig rig;
  rig.inject_to_b(make_packet(AbortBody{31337}));
  rig.drain();
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
  EXPECT_EQ(rig.pb->lib.counters().aborts, 0u);
}

TEST(EndpointEdge, MalformedFrameIsDroppedByTheDriver) {
  Rig rig;
  net::Frame f;
  f.src = rig.a->nic().node_id();
  f.dst = rig.b->nic().node_id();
  f.payload.assign(5, std::byte{0xff});  // bad type, truncated
  rig.b->nic().deliver(std::move(f));
  rig.drain();  // no crash, no state
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, FrameToClosedEndpointIsDropped) {
  Rig rig;
  Packet p = make_packet(EagerBody{0x1, 4, 0, 1, {4, std::byte{0x55}}});
  p.header.dst_ep = 9;  // never opened
  rig.inject_to_b(p);
  rig.drain();
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(EndpointEdge, PullForUndeclaredRegionIsIgnored) {
  Rig rig;
  PullBody pull;
  pull.region = 777;  // sender-side region that does not exist
  pull.handle = 1;
  pull.offset = 0;
  pull.len = 32768;
  pull.seq = 1;
  const auto replies_before = rig.pb->lib.counters().pull_replies_sent;
  rig.inject_to_b(make_packet(pull));
  rig.drain();
  EXPECT_EQ(rig.pb->lib.counters().pull_replies_sent, replies_before);
}

TEST(EndpointEdge, StalePullNeverStartsPinningItsRegion) {
  // A PULL naming a declared but unpinned region, for a send this endpoint
  // never had (or already ended): it misses, and nothing waits for pins on
  // its behalf.
  Rig rig;
  const std::size_t len = 32768;
  const auto buf = rig.pb->heap.malloc(len);
  const RegionId region = rig.pb->ep.declare_region({Segment{buf, len}});
  PullBody pull;
  pull.region = region;
  pull.handle = 1;
  pull.offset = 0;
  pull.len = static_cast<std::uint32_t>(len);
  pull.seq = 99;
  rig.inject_to_b(make_packet(pull));
  rig.drain();
  const auto& c = rig.pb->lib.counters();
  EXPECT_EQ(c.frames_dropped_on_miss, len / 8192);
  EXPECT_EQ(c.pull_replies_sent, 0u);
  EXPECT_EQ(c.pin_ops, 0u);
  EXPECT_EQ(rig.pb->ep.find_region(region)->pinned_pages(), 0u);
  rig.pb->ep.undeclare_region(region);
}

TEST(EndpointEdge, TruncatedRndvIntoTinyPostedRecvAborts) {
  // A rendezvous-sized message matched to an eager-sized posted buffer with
  // no backing region: the receiver must abort cleanly and tell the sender.
  Rig rig;
  const auto dst = rig.pb->heap.malloc(128);
  auto req = rig.pb->lib.irecv(0xb, kAll, dst, 128);  // eager-sized: no region
  rig.eng.run_until(10 * sim::kMicrosecond);

  RndvBody rndv;
  rndv.match = 0xb;
  rndv.msg_len = 1024 * 1024;
  rndv.region = 2;
  rndv.seq = 8;
  rig.inject_to_b(make_packet(rndv));
  rig.drain();
  ASSERT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  EXPECT_TRUE(req->status().truncated);
  EXPECT_GE(rig.pb->lib.counters().aborts, 1u);
}

TEST(EndpointEdge, RegionDeclarationLimitsAndErrors) {
  Rig rig;
  auto& ep = rig.pb->ep;
  EXPECT_THROW(ep.undeclare_region(9999), std::invalid_argument);
  EXPECT_THROW((void)ep.declare_region({}), std::invalid_argument);
  // isend on a region id that does not exist.
  EXPECT_THROW(
      (void)ep.isend_rndv({0, 0}, 1, 9999, 100, [](Status) {}),
      std::invalid_argument);
  // isend longer than the region.
  const auto buf = rig.pb->heap.malloc(4096);
  const RegionId rid = ep.declare_region({Segment{buf, 4096}});
  EXPECT_THROW(
      (void)ep.isend_rndv({0, 0}, 1, rid, 8192, [](Status) {}),
      std::invalid_argument);
  ep.undeclare_region(rid);
}

TEST(EndpointEdge, SixteenEndpointsPerDriverThenFull) {
  Rig rig;
  // One endpoint exists per process already; fill the rest.
  std::vector<Endpoint*> eps;
  for (int i = 1; i < 16; ++i) {
    eps.push_back(&rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core));
  }
  EXPECT_THROW(rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core),
               std::runtime_error);
  for (Endpoint* ep : eps) rig.b->driver().close_endpoint(ep->id());
  // Slots are reusable after close.
  EXPECT_NO_THROW(rig.b->driver().open_endpoint(rig.pb->as, rig.pb->core));
}

TEST(EndpointEdge, DriverRejectsMoreThan64FramesPerPullBlock) {
  // A pull block tracks its frames in one 64-bit mask.
  StackConfig stack = pinning_cache_config();
  stack.protocol.frame_payload = Endpoint::kPullBlock / 64 - 1;
  EXPECT_THROW(Rig{stack}, std::invalid_argument);
  stack.protocol.frame_payload = 0;
  EXPECT_THROW(Rig{stack}, std::invalid_argument);
  stack.protocol.frame_payload = Endpoint::kPullBlock / 64;
  EXPECT_NO_THROW(Rig{stack});
}

}  // namespace
}  // namespace pinsim::core
