// Hand-crafted event streams against the critical-path analyzer: each
// scenario encodes one way a message spends its time — a clean rendezvous,
// an overlap-miss stall, a retransmit storm, a restarted pin job — and the
// phase decomposition must sum exactly to the end-to-end latency while
// blaming the right phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/event.hpp"
#include "sim/random.hpp"
#include "sink_feed.hpp"

namespace pinsim::obs {
namespace {

constexpr std::uint32_t kSender = 1;
constexpr std::uint32_t kReceiver = 2;
constexpr std::uint8_t kEp = 0;
constexpr std::uint32_t kSeq = 42;
constexpr std::uint32_t kHandle = 7;
constexpr std::uint32_t kRegion = 5;

Event at(sim::Time t, EventKind kind) {
  Event e;
  e.time = t;
  e.kind = kind;
  return e;
}

// Sender-side events: emitted by (kSender, kEp), naming the chain via seq.
Event sender_ev(sim::Time t, EventKind kind, std::uint32_t seq = kSeq) {
  Event e = at(t, kind);
  e.node = kSender;
  e.ep = kEp;
  e.seq = seq;
  e.peer = kReceiver;
  e.peer_ep = kEp;
  return e;
}

// Receiver-side events: local handle in seq, sender chain in (peer,
// peer_ep, offset) — exactly how endpoint.cpp emits them.
Event recv_ev(sim::Time t, EventKind kind) {
  Event e = at(t, kind);
  e.node = kReceiver;
  e.ep = kEp;
  e.seq = kHandle;
  e.offset = kSeq;
  e.peer = kSender;
  e.peer_ep = kEp;
  return e;
}

Event pin_ev(sim::Time t, EventKind kind, std::uint32_t node = kSender) {
  Event e = at(t, kind);
  e.node = node;
  e.ep = kEp;
  e.region = kRegion;
  return e;
}

sim::Time phase_sum(const CriticalPathAnalyzer::Breakdown& b) {
  sim::Time sum = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) sum += b.phase_ns[i];
  return sum;
}

TEST(CriticalPath, CleanRendezvousDecomposesAndSums) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(1000, EventKind::kRndvPost);
  post.region = kRegion;
  post.len = 1 << 20;
  feed(post);
  // Sender pin job covers [1000, 3000] of the handshake.
  feed(pin_ev(1000, EventKind::kPinStart));
  feed(pin_ev(3000, EventKind::kPinDone));
  feed(recv_ev(5000, EventKind::kPullStart));
  Event copy = recv_ev(6000, EventKind::kCopyIn);
  copy.len = 4096;
  feed(copy);
  feed(recv_ev(9000, EventKind::kRecvDone));
  feed(sender_ev(10000, EventKind::kSendDone));
  a.finalize();

  ASSERT_EQ(a.completed_count(), 1u);
  const auto& b = a.completed()[0];
  EXPECT_EQ(b.node, kSender);
  EXPECT_EQ(b.seq, kSeq);
  EXPECT_TRUE(b.rndv);
  EXPECT_EQ(b.total(), 9000u);
  EXPECT_EQ(phase_sum(b), b.total());
  // Handshake [1000,5000] splits: 2000 ns pin-blocked, 2000 ns round trip.
  EXPECT_EQ(b.phase(Phase::kSenderPin), 2000u);
  EXPECT_EQ(b.phase(Phase::kHandshake), 2000u);
  EXPECT_EQ(b.phase(Phase::kTransfer), 4000u);   // [5000,9000]
  EXPECT_EQ(b.phase(Phase::kCompletion), 1000u);  // [9000,10000]
  EXPECT_EQ(b.phase(Phase::kPinStall), 0u);
  EXPECT_EQ(a.orphaned_count(), 0u);
}

TEST(CriticalPath, OverlapMissStallIsBlamedOnPinning) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(recv_ev(1000, EventKind::kPullStart));
  // The pull outruns the receiver's pin frontier: stalled [2000, 7000],
  // then a landed copy says bytes flow again.
  feed(recv_ev(2000, EventKind::kOverlapMissRecv));
  Event copy = recv_ev(7000, EventKind::kCopyIn);
  copy.len = 4096;
  feed(copy);
  feed(recv_ev(8000, EventKind::kRecvDone));
  feed(sender_ev(9000, EventKind::kSendDone));
  a.finalize();

  ASSERT_EQ(a.completed_count(), 1u);
  const auto& b = a.completed()[0];
  EXPECT_EQ(phase_sum(b), b.total());
  EXPECT_EQ(b.phase(Phase::kPinStall), 5000u);
  EXPECT_EQ(b.overlap_misses, 1u);
  EXPECT_EQ(b.dominant(), Phase::kPinStall);
  EXPECT_NE(a.digest().find("pin_stall"), std::string::npos);
}

TEST(CriticalPath, SenderSideMissAlsoStalls) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(recv_ev(500, EventKind::kPullStart));
  // Sender could not serve the pull from unpinned pages [1000, 4000];
  // a served copy-out ends the stall.
  feed(sender_ev(1000, EventKind::kOverlapMissSend));
  feed(sender_ev(4000, EventKind::kCopyOut));
  feed(recv_ev(6000, EventKind::kRecvDone));
  feed(sender_ev(7000, EventKind::kSendDone));
  a.finalize();

  ASSERT_EQ(a.completed_count(), 1u);
  const auto& b = a.completed()[0];
  EXPECT_EQ(phase_sum(b), b.total());
  EXPECT_EQ(b.phase(Phase::kPinStall), 3000u);
}

TEST(CriticalPath, RetransmitStormSumsAndCounts) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  feed(sender_ev(0, EventKind::kEagerPost));
  // Eager chain: opens directly in transfer, three timer fires.
  for (int i = 1; i <= 3; ++i) {
    Event r = sender_ev(static_cast<sim::Time>(i) * 1000,
                        EventKind::kRetransmit);
    r.offset = static_cast<std::uint64_t>(i);  // retry count
    feed(r);
  }
  feed(sender_ev(10000, EventKind::kSendDone));
  a.finalize();

  ASSERT_EQ(a.completed_count(), 1u);
  const auto& b = a.completed()[0];
  EXPECT_FALSE(b.rndv);
  EXPECT_EQ(b.retransmits, 3u);
  EXPECT_EQ(phase_sum(b), b.total());
  // Transfer [0,1000], then blamed on retransmission until completion.
  EXPECT_EQ(b.phase(Phase::kTransfer), 1000u);
  EXPECT_EQ(b.phase(Phase::kRetransmit), 9000u);
  EXPECT_EQ(b.dominant(), Phase::kRetransmit);
}

TEST(CriticalPath, PullRetryBlamesRetransmitUntilProgress) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(recv_ev(1000, EventKind::kPullStart));
  feed(recv_ev(2000, EventKind::kPullRetry));
  Event copy = recv_ev(5000, EventKind::kCopyIn);
  copy.len = 4096;
  feed(copy);
  feed(recv_ev(6000, EventKind::kRecvDone));
  feed(sender_ev(7000, EventKind::kSendDone));
  a.finalize();

  const auto& b = a.completed()[0];
  EXPECT_EQ(b.pull_retries, 1u);
  EXPECT_EQ(b.phase(Phase::kRetransmit), 3000u);
  EXPECT_EQ(phase_sum(b), b.total());
}

TEST(CriticalPath, PinStallKeepsBlameOverRetransmit) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(recv_ev(1000, EventKind::kPullStart));
  feed(recv_ev(2000, EventKind::kOverlapMissRecv));
  // A retry timer fires mid-stall: the unpinned page is the cause, the
  // retransmission only the mechanism — blame stays on pin_stall.
  feed(recv_ev(3000, EventKind::kPullRetry));
  Event copy = recv_ev(6000, EventKind::kCopyIn);
  copy.len = 4096;
  feed(copy);
  feed(recv_ev(7000, EventKind::kRecvDone));
  feed(sender_ev(8000, EventKind::kSendDone));
  a.finalize();

  const auto& b = a.completed()[0];
  EXPECT_EQ(b.phase(Phase::kPinStall), 4000u);  // [2000,6000]
  EXPECT_EQ(b.phase(Phase::kRetransmit), 0u);
  EXPECT_EQ(phase_sum(b), b.total());
}

TEST(CriticalPath, RestartedPinJobIsCountedAndStillSums) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(pin_ev(0, EventKind::kPinStart));
  // An MMU notifier restarts the job mid-pin; the span keeps running.
  feed(pin_ev(1000, EventKind::kPinRestart));
  feed(pin_ev(4000, EventKind::kPinDone));
  feed(recv_ev(5000, EventKind::kPullStart));
  feed(recv_ev(8000, EventKind::kRecvDone));
  feed(sender_ev(9000, EventKind::kSendDone));
  a.finalize();

  const auto& b = a.completed()[0];
  EXPECT_EQ(b.pin_restarts, 1u);
  EXPECT_EQ(b.phase(Phase::kSenderPin), 4000u);
  EXPECT_EQ(b.phase(Phase::kHandshake), 1000u);
  EXPECT_EQ(phase_sum(b), b.total());
}

TEST(CriticalPath, PrePinnedRegionBlocksHandshakeFromStart) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  // Pin job opened before the post (region reuse): the chain is pin-blocked
  // from its very first nanosecond.
  feed(pin_ev(0, EventKind::kPinStart));
  Event post = sender_ev(1000, EventKind::kRndvPost);
  post.region = kRegion;
  feed(post);
  feed(pin_ev(2000, EventKind::kPinDone));
  feed(recv_ev(3000, EventKind::kPullStart));
  feed(recv_ev(4000, EventKind::kRecvDone));
  feed(sender_ev(5000, EventKind::kSendDone));
  a.finalize();

  const auto& b = a.completed()[0];
  EXPECT_EQ(b.phase(Phase::kSenderPin), 1000u);  // [1000,2000]
  EXPECT_EQ(b.phase(Phase::kHandshake), 1000u);  // [2000,3000]
  EXPECT_EQ(phase_sum(b), b.total());
}

TEST(CriticalPath, AbortedChainExcludedFromAggregates) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  feed(sender_ev(0, EventKind::kEagerPost));
  feed(sender_ev(5000, EventKind::kSendAbort));
  a.finalize();

  EXPECT_EQ(a.completed_count(), 0u);
  EXPECT_EQ(a.aborted_count(), 1u);
  EXPECT_EQ(a.latency_total(), 0u);
  EXPECT_TRUE(a.completed().empty());
}

TEST(CriticalPath, OrphanedChainsCountedAtFinalize) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  feed(sender_ev(0, EventKind::kEagerPost));
  a.finalize();
  EXPECT_EQ(a.orphaned_count(), 1u);
  EXPECT_EQ(a.completed_count(), 0u);
}

TEST(CriticalPath, TopKKeepsSlowestSorted) {
  CriticalPathAnalyzer a(/*max_records=*/2, /*top_k=*/2);
  test::SinkFeed feed(a);
  for (std::uint32_t s = 1; s <= 4; ++s) {
    Event post = sender_ev(0, EventKind::kEagerPost, s);
    feed(post);
    // Message s takes s*1000 ns.
    feed(sender_ev(s * 1000, EventKind::kSendDone, s));
  }
  a.finalize();

  EXPECT_EQ(a.completed_count(), 4u);
  EXPECT_EQ(a.completed().size(), 2u);   // record cap
  EXPECT_EQ(a.dropped_records(), 2u);
  ASSERT_EQ(a.slowest().size(), 2u);     // top-K stays exact past the cap
  EXPECT_EQ(a.slowest()[0].seq, 4u);
  EXPECT_EQ(a.slowest()[1].seq, 3u);
  EXPECT_GE(a.slowest()[0].total(), a.slowest()[1].total());
}

TEST(CriticalPath, AggregateTotalsMatchPerMessage) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  for (std::uint32_t s = 1; s <= 3; ++s) {
    feed(sender_ev(0, EventKind::kEagerPost, s));
    feed(sender_ev(s * 500, EventKind::kSendDone, s));
  }
  a.finalize();

  sim::Time sum = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    sum += a.phase_total(static_cast<Phase>(i));
  }
  EXPECT_EQ(sum, a.latency_total());
  EXPECT_EQ(a.latency_total(), 500u + 1000u + 1500u);
}

TEST(CriticalPath, JsonAndDigestAreWellFormedOnEmptyStream) {
  CriticalPathAnalyzer a;
  a.finalize();
  const std::string j = a.json();
  EXPECT_NE(j.find("\"completed\":0"), std::string::npos);
  EXPECT_NE(j.find("\"messages\":[]"), std::string::npos);
  EXPECT_NE(a.digest().find("0 completed"), std::string::npos);
}

TEST(CriticalPath, JsonCarriesPhaseBreakdown) {
  CriticalPathAnalyzer a;
  test::SinkFeed feed(a);
  Event post = sender_ev(0, EventKind::kRndvPost);
  post.region = kRegion;
  post.len = 4096;
  feed(post);
  feed(recv_ev(1000, EventKind::kPullStart));
  feed(recv_ev(2000, EventKind::kRecvDone));
  feed(sender_ev(3000, EventKind::kSendDone));
  a.finalize();

  const std::string j = a.json();
  EXPECT_NE(j.find("\"rndv_handshake\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"total_ns\":3000"), std::string::npos);
  EXPECT_NE(j.find("\"dominant\":"), std::string::npos);
}

/// Sender-pin accounting with the full scan the analyzer used before it
/// indexed chains by region: every pin event visits every open chain and
/// matches (node, ep, region). Covers the event kinds of the stream below.
class ScanReference {
 public:
  void on_event(const Event& e) {
    switch (e.kind) {
      case EventKind::kRndvPost:
      case EventKind::kEagerPost: {
        Chain c;
        c.node = e.node;
        c.ep = e.ep;
        c.region = e.region;
        c.rndv = e.kind == EventKind::kRndvPost;
        c.start = c.since = e.time;
        c.in_handshake = c.rndv;
        if (c.rndv && pins_.count(std::tuple(e.node, e.ep, e.region)) != 0) {
          c.pin_open = true;
          c.pin_since = e.time;
        }
        open_[chain_key(e.node, e.ep, e.seq)] = c;
        break;
      }
      case EventKind::kPinStart:
        pins_.insert(std::tuple(e.node, e.ep, e.region));
        for (auto& [k, c] : open_) {
          if (on_region(c, e) && c.in_handshake && !c.pin_open && c.rndv) {
            c.pin_open = true;
            c.pin_since = e.time;
          }
        }
        break;
      case EventKind::kPinDone:
      case EventKind::kPinFail:
        pins_.erase(std::tuple(e.node, e.ep, e.region));
        for (auto& [k, c] : open_) {
          if (on_region(c, e) && c.pin_open) {
            c.sender_pin += e.time - c.pin_since;
            c.pin_open = false;
          }
        }
        break;
      case EventKind::kPinRestart:
        for (auto& [k, c] : open_) {
          if (on_region(c, e)) ++c.restarts;
        }
        break;
      case EventKind::kPullStart: {
        const auto it = open_.find(chain_key(
            e.peer, e.peer_ep, static_cast<std::uint32_t>(e.offset)));
        if (it != open_.end()) leave_phase(it->second, e.time);
        break;
      }
      case EventKind::kSendDone:
      case EventKind::kSendAbort: {
        const auto it = open_.find(chain_key(e.node, e.ep, e.seq));
        if (it == open_.end()) break;
        leave_phase(it->second, e.time);
        if (e.kind == EventKind::kSendDone) {
          for (std::size_t i = 0; i < kPhaseCount; ++i) {
            totals[i] += it->second.phase[i];
          }
          latency += e.time - it->second.start;
          restarts += it->second.restarts;
          ++completed;
        }
        open_.erase(it);
        break;
      }
      default:
        break;
    }
  }

  std::array<sim::Time, kPhaseCount> totals{};
  sim::Time latency = 0;
  std::uint64_t restarts = 0;
  std::uint64_t completed = 0;

 private:
  struct Chain {
    std::uint32_t node = 0;
    std::uint8_t ep = 0;
    std::uint32_t region = 0;
    bool rndv = false;
    bool in_handshake = false;
    bool pin_open = false;
    sim::Time start = 0;
    sim::Time since = 0;
    sim::Time pin_since = 0;
    sim::Time sender_pin = 0;
    std::uint32_t restarts = 0;
    std::array<sim::Time, kPhaseCount> phase{};
  };

  static bool on_region(const Chain& c, const Event& e) {
    return c.node == e.node && c.ep == e.ep && c.region == e.region;
  }

  // Ends the current phase: the handshake splits into sender-pin and
  // round-trip time; after it, the stream only has transfer time.
  static void leave_phase(Chain& c, sim::Time now) {
    const auto idx = [](Phase p) { return static_cast<std::size_t>(p); };
    if (c.in_handshake) {
      if (c.pin_open) {
        c.sender_pin += now - c.pin_since;
        c.pin_open = false;
      }
      const sim::Time span = now - c.since;
      const sim::Time pin = std::min(c.sender_pin, span);
      c.phase[idx(Phase::kSenderPin)] += pin;
      c.phase[idx(Phase::kHandshake)] += span - pin;
      c.in_handshake = false;
    } else {
      c.phase[idx(Phase::kTransfer)] += now - c.since;
    }
    c.since = now;
  }

  std::map<std::uint64_t, Chain> open_;
  std::set<std::tuple<std::uint32_t, std::uint8_t, std::uint32_t>> pins_;
};

TEST(CriticalPath, RegionIndexMatchesFullScanOnPinHeavyStream) {
  // Two nodes x two endpoints x four regions, so many open chains share a
  // region, interleaved with pin jobs that start, restart, finish and fail
  // on random regions while chains sit in their handshake.
  CriticalPathAnalyzer a(1u << 20);
  test::SinkFeed feed(a);
  ScanReference ref;
  sim::Rng rng(0xc41a);
  sim::Time now = 0;
  std::uint32_t next_seq = 1;
  std::uint32_t next_handle = 1;
  std::vector<Event> open_posts;  // posts still open, by position
  std::vector<bool> pulled;
  const auto emit = [&](const Event& e) {
    feed(e);
    ref.on_event(e);
  };
  for (int step = 0; step < 20000; ++step) {
    now += 1 + rng.next_below(50);
    const auto node = static_cast<std::uint32_t>(1 + rng.next_below(2));
    const auto ep = static_cast<std::uint8_t>(rng.next_below(2));
    const auto region = static_cast<std::uint32_t>(1 + rng.next_below(4));
    const std::uint64_t pick = rng.next_below(100);
    Event e = at(now, EventKind::kPktTx);
    e.node = node;
    e.ep = ep;
    e.region = region;
    if (pick < 25 || open_posts.empty()) {
      e.kind = rng.next_below(4) == 0 ? EventKind::kEagerPost
                                      : EventKind::kRndvPost;
      e.seq = next_seq++;
      e.len = 65536;
      open_posts.push_back(e);
      pulled.push_back(false);
    } else if (pick < 60) {
      static constexpr EventKind kPin[] = {
          EventKind::kPinStart, EventKind::kPinStart, EventKind::kPinDone,
          EventKind::kPinFail, EventKind::kPinRestart};
      e.kind = kPin[rng.next_below(5)];
    } else {
      const std::size_t i = rng.next_below(open_posts.size());
      const Event post = open_posts[i];
      if (post.kind == EventKind::kRndvPost && !pulled[i] &&
          rng.next_below(2) == 0) {
        e.kind = EventKind::kPullStart;
        e.node = 10;  // the receiver
        e.ep = 0;
        e.seq = next_handle++;
        e.peer = post.node;
        e.peer_ep = post.ep;
        e.offset = post.seq;
        pulled[i] = true;
      } else {
        e = post;
        e.time = now;
        e.kind = rng.next_below(8) == 0 ? EventKind::kSendAbort
                                        : EventKind::kSendDone;
        open_posts.erase(open_posts.begin() + static_cast<std::ptrdiff_t>(i));
        pulled.erase(pulled.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    emit(e);
  }
  a.finalize();

  ASSERT_GT(ref.completed, 1000u);
  EXPECT_EQ(a.completed_count(), ref.completed);
  EXPECT_EQ(a.latency_total(), ref.latency);
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    EXPECT_EQ(a.phase_total(static_cast<Phase>(i)), ref.totals[i])
        << phase_name(static_cast<Phase>(i));
  }
  EXPECT_GT(a.phase_total(Phase::kSenderPin), 0u);
  std::uint64_t restarts = 0;
  for (const auto& b : a.completed()) restarts += b.pin_restarts;
  EXPECT_EQ(restarts, ref.restarts);
  EXPECT_GT(restarts, 0u);
}

}  // namespace
}  // namespace pinsim::obs
