// Retransmission hardening: timer/closure lifetimes when an endpoint closes
// mid-transfer, PullReply bounds validation, duplicate suppression after
// completion, exponential backoff and retry-budget exhaustion.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/host.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "obs/bus.hpp"
#include "obs/critical_path.hpp"
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

  void inject_to_a(const Packet& pkt) {
    net::Frame f;
    f.src = b->nic().node_id();
    f.dst = a->nic().node_id();
    f.payload = encode(pkt);
    a->nic().deliver(std::move(f));
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

Packet make_packet(PacketBody body, std::uint8_t src_ep = 0) {
  Packet p;
  p.header.type = packet_type(body);
  p.header.src_ep = src_ep;
  p.header.dst_ep = 0;
  p.body = std::move(body);
  return p;
}

std::vector<std::byte> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 2654435761u + salt) >> 13);
  }
  return v;
}

/// Short timeouts/budgets so exhaustion paths run in microseconds of
/// simulated time instead of minutes.
StackConfig tight_budget_stack() {
  StackConfig stack = pinning_cache_config();
  stack.protocol.retransmit_timeout = 100 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = 400 * sim::kMicrosecond;
  stack.protocol.retry_budget = 3;
  stack.protocol.pull_retry_timeout = 100 * sim::kMicrosecond;
  stack.protocol.pull_stall_budget = 20;
  return stack;
}

// --- timer / closure lifetime (the bug this PR fixes) ------------------------

TEST(TimerLifetime, EndpointClosedMidRendezvousFiresNoStaleTimers) {
  Rig rig(tight_budget_stack());

  // A second endpoint on host A, driven through the raw driver API (no
  // Library), so we can close it mid-transfer the way a crashing process
  // would.
  Endpoint& ep2 = rig.a->driver().open_endpoint(rig.pa->as, rig.pa->core);
  const std::uint8_t ep2_id = ep2.id();
  ASSERT_NE(ep2_id, rig.pa->ep.id());

  const std::size_t size = 256 * 1024;
  const auto src = rig.pa->heap.malloc(size);
  rig.pa->as.write(src, pattern(size, 1));
  const RegionId region = ep2.declare_region({Segment{src, size}});

  bool send_completed = false;
  (void)ep2.isend_rndv(rig.pb->addr(), 0xAB, region, size,
                       [&send_completed](Status) { send_completed = true; });
  const auto dst = rig.pb->heap.malloc(size);
  auto recv = rig.pb->lib.irecv(0xAB, kAll, dst, size);

  // Let the rendezvous leave and the first pull replies flow, then yank the
  // endpoint: its send rto is armed, pull replies are queued on cores, and
  // the receiver keeps pulling.
  rig.eng.run_until(100 * sim::kMicrosecond);
  ASSERT_FALSE(recv->completed());
  rig.a->driver().close_endpoint(ep2_id);

  // Run far past the retransmit timeout and the pull retry timeout. Stale
  // timers or queued closures touching the freed endpoint would crash (or
  // trip ASan); with the liveness guard they are no-ops.
  rig.drain();

  EXPECT_FALSE(send_completed);  // died with the endpoint, never lied "ok"
  // The receiver cannot finish; the pull stall budget must have failed the
  // receive instead of leaking the pull state forever.
  ASSERT_TRUE(recv->completed());
  EXPECT_FALSE(recv->status().ok);
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
  EXPECT_GE(rig.pb->lib.counters().retry_exhausted, 1u);
  EXPECT_GE(rig.pb->lib.counters().aborts, 1u);
}

TEST(TimerLifetime, EndpointClosedBeforeEagerCopyRunsIsSafe) {
  Rig rig;
  Endpoint& ep2 = rig.a->driver().open_endpoint(rig.pa->as, rig.pa->core);
  const auto buf = rig.pa->heap.malloc(4096);
  (void)ep2.isend_eager({rig.pb->addr().node, rig.pb->addr().ep}, 0x1, buf,
                        4096, [](Status) {});
  // Close before the submission-copy closure (queued on the process core
  // with a copy cost) has run; the closure must notice and do nothing.
  rig.a->driver().close_endpoint(ep2.id());
  rig.drain();
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

// --- PullReply validation (bounds + duplicates) ------------------------------

/// Crafts a rendezvous into pb by hand so the test controls every PullReply.
/// Returns once pb's pull state (handle 1) exists and is requesting blocks.
void start_crafted_pull(Rig& rig, std::size_t msg_len) {
  rig.eng.run_until(rig.eng.now() + 10 * sim::kMicrosecond);  // irecv settles
  RndvBody rndv;
  rndv.match = 0x9;
  rndv.msg_len = msg_len;
  rndv.region = 12345;  // sender-side id, opaque to the receiver
  rndv.seq = 77;
  rig.inject_to_b(make_packet(rndv));
  rig.eng.run_until(rig.eng.now() + 50 * sim::kMicrosecond);
  ASSERT_GT(rig.pb->lib.counters().pulls_sent, 0u);
}

PullReplyBody reply_frame(std::uint64_t offset,
                          const std::vector<std::byte>& data,
                          std::size_t frame_payload) {
  PullReplyBody r;
  r.handle = 1;  // first handle allocated by the endpoint
  r.offset = offset;
  const std::size_t n =
      std::min(frame_payload, data.size() - static_cast<std::size_t>(offset));
  r.data.assign(data.begin() + static_cast<std::ptrdiff_t>(offset),
                data.begin() + static_cast<std::ptrdiff_t>(offset + n));
  return r;
}

TEST(PullReplyValidation, OutOfBoundsAndMisalignedRepliesAreRejected) {
  Rig rig;
  const std::size_t size = 40960;  // blocks: 32 kB + 8 kB
  const std::size_t frame = rig.a->driver().config().protocol.frame_payload;
  const auto dst = rig.pb->heap.malloc(size);
  auto recv = rig.pb->lib.irecv(0x9, kAll, dst, size);
  start_crafted_pull(rig, size);
  const auto data = pattern(size, 9);

  // Beyond the message.
  PullReplyBody bad1;
  bad1.handle = 1;
  bad1.offset = 1u << 20;
  bad1.data.assign(frame, std::byte{0xee});
  rig.inject_to_b(make_packet(bad1));
  // Not on a frame boundary.
  PullReplyBody bad2;
  bad2.handle = 1;
  bad2.offset = 4096;
  bad2.data.assign(frame, std::byte{0xee});
  rig.inject_to_b(make_packet(bad2));
  // Right offset, wrong length (would leave a silent hole).
  PullReplyBody bad3;
  bad3.handle = 1;
  bad3.offset = 0;
  bad3.data.assign(100, std::byte{0xee});
  rig.inject_to_b(make_packet(bad3));
  rig.eng.run_until(rig.eng.now() + 50 * sim::kMicrosecond);

  EXPECT_EQ(rig.pb->lib.counters().checksum_drops, 3u);
  ASSERT_FALSE(recv->completed());

  // The transfer still completes bit-exact from well-formed frames.
  for (std::size_t off = 0; off < size; off += frame) {
    rig.inject_to_b(make_packet(reply_frame(off, data, frame)));
  }
  rig.drain();
  ASSERT_TRUE(recv->completed());
  ASSERT_TRUE(recv->status().ok);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data);
}

TEST(PullReplyValidation, DuplicateAfterCompletionDoesNotRewriteBuffer) {
  Rig rig;
  const std::size_t size = 40960;
  const std::size_t frame = rig.a->driver().config().protocol.frame_payload;
  const auto dst = rig.pb->heap.malloc(size);
  auto recv = rig.pb->lib.irecv(0x9, kAll, dst, size);
  start_crafted_pull(rig, size);
  const auto data = pattern(size, 13);

  for (std::size_t off = 0; off < size; off += frame) {
    rig.inject_to_b(make_packet(reply_frame(off, data, frame)));
  }
  rig.drain();
  ASSERT_TRUE(recv->completed());
  ASSERT_TRUE(recv->status().ok);
  const auto dups_before = rig.pb->lib.counters().duplicates_suppressed;

  // A late duplicate of frame 0 carrying different bytes: it must be
  // discarded without a second write into the (already completed) buffer.
  PullReplyBody dup;
  dup.handle = 1;
  dup.offset = 0;
  dup.data.assign(frame, std::byte{0xff});
  rig.inject_to_b(make_packet(dup));
  rig.drain();

  EXPECT_GT(rig.pb->lib.counters().duplicates_suppressed, dups_before);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data) << "duplicate reply after completion rewrote memory";
  EXPECT_EQ(rig.pb->ep.inflight(), 0u);
}

TEST(PullReplyValidation, PullBeyondSenderRegionIsNotServed) {
  Rig rig;
  const auto buf = rig.pa->heap.malloc(4096);
  const RegionId region = rig.pa->ep.declare_region({Segment{buf, 4096}});

  PullBody pull;
  pull.region = region;
  pull.handle = 9;
  pull.offset = 8192;  // past the 4 kB region
  pull.len = 4096;
  pull.seq = 1;
  rig.inject_to_a(make_packet(pull));
  rig.drain();

  EXPECT_EQ(rig.pa->lib.counters().checksum_drops, 1u);
  EXPECT_EQ(rig.pa->lib.counters().pull_replies_sent, 0u);
  rig.pa->ep.undeclare_region(region);
}

// --- backoff + retry budget --------------------------------------------------

TEST(RetryBudget, ExhaustionFailsTheSendGracefully) {
  Rig rig(tight_budget_stack());
  net::FaultPlan blackhole;
  blackhole.loss = 1.0;
  rig.fabric->faults().set_plan(blackhole);

  const auto buf = rig.pa->heap.malloc(1024);
  auto req = rig.pa->lib.isend(rig.pb->addr(), 0x5, buf, 1024);
  rig.drain();

  ASSERT_TRUE(req->completed());
  EXPECT_FALSE(req->status().ok);
  EXPECT_EQ(rig.pa->lib.counters().retry_exhausted, 1u);
  EXPECT_EQ(rig.pa->lib.counters().aborts, 1u);
  // budget+1 timeouts fired: the initial timeout plus `retry_budget` retries.
  EXPECT_EQ(rig.pa->lib.counters().retransmit_timeouts, 4u);
  // Exponential backoff: 100 + 200 + 400(capped) + 400 us, not 4 x 100 us.
  EXPECT_GE(rig.eng.now(), 1000 * sim::kMicrosecond);
  EXPECT_LE(rig.eng.now(), 2500 * sim::kMicrosecond);
}

TEST(RetryBudget, RecoverableLossStaysWellUnderTheBudget) {
  StackConfig stack = tight_budget_stack();
  stack.protocol.retry_budget = 16;
  Rig rig(stack);
  net::FaultPlan lossy;
  lossy.loss = 0.3;
  rig.fabric->faults().set_plan(lossy);

  const std::size_t size = 16 * 1024;
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  const auto data = pattern(size, 31);
  rig.pa->as.write(src, data);

  auto send = rig.pa->lib.isend(rig.pb->addr(), 0x6, src, size);
  auto recv = rig.pb->lib.irecv(0x6, kAll, dst, size);
  rig.drain();

  ASSERT_TRUE(send->completed());
  ASSERT_TRUE(send->status().ok);
  ASSERT_TRUE(recv->status().ok);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(rig.pa->lib.counters().retry_exhausted, 0u);
}

TEST(RetryBudget, MovingPullOutlivesTheSendBudget) {
  // A rendezvous sender's timer keeps ticking while the receiver pulls. A
  // tick with a PULL since the previous one is progress, not silence, so a
  // long transfer that keeps pulling completes past `retry_budget` ticks.
  StackConfig stack = tight_budget_stack();
  stack.protocol.retransmit_backoff_max = stack.protocol.retransmit_timeout;
  Rig rig(stack);

  const std::size_t size = 4 * 1024 * 1024;  // ~3.4 ms on the wire
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  const auto data = pattern(size, 47);
  rig.pa->as.write(src, data);
  const sim::Time posted = rig.eng.now();
  auto recv = rig.pb->lib.irecv(0x7, kAll, dst, size);
  auto send = rig.pa->lib.isend(rig.pb->addr(), 0x7, src, size);
  rig.drain();

  ASSERT_TRUE(send->completed());
  EXPECT_TRUE(send->status().ok);
  ASSERT_TRUE(recv->status().ok);
  std::vector<std::byte> got(size);
  rig.pb->as.read(dst, got);
  EXPECT_EQ(got, data);
  // The transfer outlived the budget: a tick fires at most 1.5 timeouts
  // after the previous one, so more ticks than the budget allows fired.
  const auto tick_max = stack.protocol.retransmit_timeout * 3 / 2;
  EXPECT_GT(send->completed_at() - posted,
            (stack.protocol.retry_budget + 2) * tick_max);
  EXPECT_EQ(rig.pa->lib.counters().retry_exhausted, 0u);
  EXPECT_EQ(rig.pa->lib.counters().aborts, 0u);
}

/// Records the sequence numbers of every kRetransmit event.
struct RetransmitLog final : obs::Sink {
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kRetransmit) seqs.push_back(e.seq);
  }
  std::vector<std::uint32_t> seqs;
};

TEST(RetryBudget, PassiveTicksUnderAMovingPullAreNoRetransmits) {
  // Once the receiver pulls, the sender's timer only watches: a tick that
  // resends nothing is neither a retransmit timeout nor a retransmit
  // event, so the critical path never blames retransmission for it.
  StackConfig stack = tight_budget_stack();
  stack.protocol.retransmit_timeout = 500 * sim::kMicrosecond;
  stack.protocol.retransmit_backoff_max = stack.protocol.retransmit_timeout;
  stack.protocol.retry_budget = 1;
  Rig rig(stack);
  obs::Bus bus(rig.eng);
  RetransmitLog log;
  obs::CriticalPathAnalyzer path;
  bus.attach(&log);
  bus.attach(&path);
  rig.a->driver().set_bus(&bus);
  rig.b->driver().set_bus(&bus);

  const std::size_t size = 4 * 1024 * 1024;  // ~3.4 ms on the wire
  const auto src = rig.pa->heap.malloc(size);
  const auto dst = rig.pb->heap.malloc(size);
  rig.pa->as.write(src, pattern(size, 53));
  const sim::Time posted = rig.eng.now();
  auto recv = rig.pb->lib.irecv(0x8, kAll, dst, size);
  auto send = rig.pa->lib.isend(rig.pb->addr(), 0x8, src, size);
  rig.drain();
  path.finalize();
  rig.a->driver().set_bus(nullptr);
  rig.b->driver().set_bus(nullptr);

  ASSERT_TRUE(send->completed());
  ASSERT_TRUE(send->status().ok);
  ASSERT_TRUE(recv->status().ok);
  // Several send timeouts passed while the pull ran.
  EXPECT_GT(send->completed_at() - posted,
            4 * stack.protocol.retransmit_timeout * 3 / 2);
  EXPECT_EQ(rig.pa->lib.counters().retransmit_timeouts, 0u);
  EXPECT_TRUE(log.seqs.empty());
  ASSERT_EQ(path.completed().size(), 1u);
  const auto& chain = path.completed().front();
  EXPECT_TRUE(chain.rndv);
  EXPECT_EQ(chain.retransmits, 0u);
  EXPECT_EQ(chain.phase(obs::Phase::kRetransmit), 0);
}

}  // namespace
}  // namespace pinsim::core
