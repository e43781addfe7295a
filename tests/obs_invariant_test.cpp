// Hand-crafted event streams against the online invariant checker: each bad
// stream encodes one way a broken stack could misbehave, and the checker
// must flag it with a useful message and the event window leading up to it.
#include <gtest/gtest.h>

#include <string>

#include "obs/event.hpp"
#include "obs/invariants.hpp"
#include "sink_feed.hpp"

namespace pinsim::obs {
namespace {

Event ev(EventKind kind) {
  Event e;
  e.kind = kind;
  e.node = 1;
  e.ep = 0;
  return e;
}

Event pin(EventKind kind, std::uint32_t region, std::uint64_t frontier,
          std::uint64_t total) {
  Event e = ev(kind);
  e.region = region;
  e.offset = frontier;
  e.len = total;
  return e;
}

TEST(InvariantChecker, CleanStreamPasses) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  // Full pin lifecycle with a copy inside the frontier.
  feed(pin(EventKind::kPinStart, 7, 0, 4));
  feed(pin(EventKind::kPinPages, 7, 2, 4));
  Event copy = ev(EventKind::kCopyIn);
  copy.region = 7;
  copy.offset = 0;
  copy.len = 4096;  // page 0, frontier 2: fine
  feed(copy);
  feed(pin(EventKind::kPinPages, 7, 4, 4));
  feed(pin(EventKind::kPinDone, 7, 4, 4));
  feed(pin(EventKind::kPinUnpin, 7, 0, 4));
  // Send and pull lifecycles both terminate.
  Event post = ev(EventKind::kRndvPost);
  post.seq = 11;
  feed(post);
  Event done = ev(EventKind::kSendDone);
  done.seq = 11;
  feed(done);
  Event pull = ev(EventKind::kPullStart);
  pull.seq = 3;
  feed(pull);
  Event pdone = ev(EventKind::kRecvDone);
  pdone.seq = 3;
  feed(pdone);
  // Monotonic retries.
  Event r1 = ev(EventKind::kRetransmit);
  r1.seq = 11;
  r1.offset = 1;
  feed(r1);
  Event r2 = r1;
  r2.offset = 2;
  feed(r2);
  c.finalize();
  EXPECT_TRUE(c.ok()) << c.report();
  EXPECT_EQ(c.report(), "invariants: ok\n");
}

TEST(InvariantChecker, CopyOnUnpinnedPageFires) {
  InvariantChecker c(4096);
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 7, 0, 8));
  feed(pin(EventKind::kPinPages, 7, 2, 8));
  Event copy = ev(EventKind::kCopyIn);
  copy.region = 7;
  copy.offset = 3 * 4096;  // page 3, frontier 2: DMA into an unpinned page
  copy.len = 4096;
  feed(copy);
  EXPECT_FALSE(c.ok());
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_NE(c.violations()[0].message.find("unpinned page"),
            std::string::npos);
  // The window carries the interleaving that led to the violation.
  EXPECT_FALSE(c.violations()[0].window.empty());
}

TEST(InvariantChecker, CopyOutPastFrontierFires) {
  InvariantChecker c(4096);
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 2, 0, 4));
  feed(pin(EventKind::kPinPages, 2, 1, 4));
  Event copy = ev(EventKind::kCopyOut);
  copy.region = 2;
  copy.offset = 0;
  copy.len = 2 * 4096;  // spans pages 0-1, frontier 1
  feed(copy);
  EXPECT_EQ(c.violation_count(), 1u);
}

TEST(InvariantChecker, PinSurvivingInvalidationFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 7, 0, 8));
  feed(pin(EventKind::kPinPages, 7, 6, 8));
  // The MMU notifier cut at slot 2 but the frontier claims 6 pages still
  // pinned — pins survived the invalidation of their range.
  Event inval = pin(EventKind::kPinInvalidate, 7, 6, 8);
  inval.seq = 2;
  feed(inval);
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].message.find("survived an MMU invalidation"),
            std::string::npos);

  // A truncated frontier at (or below) the cut is the correct behaviour.
  InvariantChecker good;
  test::SinkFeed feed_good(good);
  feed_good(pin(EventKind::kPinStart, 7, 0, 8));
  feed_good(pin(EventKind::kPinPages, 7, 6, 8));
  Event cut = pin(EventKind::kPinInvalidate, 7, 2, 8);
  cut.seq = 2;
  feed_good(cut);
  EXPECT_TRUE(good.ok()) << good.report();
}

TEST(InvariantChecker, FrontierRetreatWithoutCauseFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 9, 0, 8));
  feed(pin(EventKind::kPinPages, 9, 5, 8));
  feed(pin(EventKind::kPinPages, 9, 3, 8));  // retreat, no invalidation
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].message.find("moved backwards"),
            std::string::npos);
}

TEST(InvariantChecker, PartialPinDoneFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 4, 0, 8));
  feed(pin(EventKind::kPinDone, 4, 6, 8));  // done but 6/8 pages
  EXPECT_EQ(c.violation_count(), 1u);
}

TEST(InvariantChecker, OrphanedRendezvousFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  Event post = ev(EventKind::kRndvPost);
  post.seq = 42;
  feed(post);
  EXPECT_TRUE(c.ok());  // still in flight: not yet a violation
  c.finalize();
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].message.find("orphaned rendezvous"),
            std::string::npos);
}

TEST(InvariantChecker, OrphanedPullFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  Event pull = ev(EventKind::kPullStart);
  pull.seq = 9;
  feed(pull);
  c.finalize();
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].message.find("orphaned pull"),
            std::string::npos);
}

TEST(InvariantChecker, CompletionWithoutPostFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  Event done = ev(EventKind::kSendDone);
  done.seq = 5;
  feed(done);
  Event pdone = ev(EventKind::kRecvDone);
  pdone.seq = 5;
  feed(pdone);
  EXPECT_EQ(c.violation_count(), 2u);
}

TEST(InvariantChecker, NonMonotonicRetryBudgetFires) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  Event post = ev(EventKind::kRndvPost);
  post.seq = 1;
  feed(post);
  Event r = ev(EventKind::kRetransmit);
  r.seq = 1;
  r.offset = 2;
  feed(r);
  Event stale = r;
  stale.offset = 2;  // repeated retry count: budget not consumed
  feed(stale);
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].message.find("not monotonically consumed"),
            std::string::npos);
}

TEST(InvariantChecker, DistinctEndpointsDoNotCollide) {
  // Same region/seq ids on different (node, ep) must be independent keys.
  InvariantChecker c;
  test::SinkFeed feed(c);
  feed(pin(EventKind::kPinStart, 7, 0, 4));
  Event other = pin(EventKind::kPinPages, 7, 2, 4);
  other.node = 2;  // different node, same region id
  feed(other);
  Event copy = ev(EventKind::kCopyIn);
  copy.region = 7;
  copy.offset = 0;
  copy.len = 4096;  // node 1 frontier is still 0 -> violation there only
  feed(copy);
  EXPECT_EQ(c.violation_count(), 1u);
}

TEST(InvariantChecker, ReportListsWindowAndOverflow) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  for (int i = 0; i < 40; ++i) {
    Event done = ev(EventKind::kSendDone);
    done.seq = static_cast<std::uint32_t>(i);
    feed(done);  // 40 violations, only 32 stored verbatim
  }
  EXPECT_EQ(c.violation_count(), 40u);
  EXPECT_EQ(c.violations().size(), 32u);
  const std::string rep = c.report();
  EXPECT_NE(rep.find("40 violation(s)"), std::string::npos);
  EXPECT_NE(rep.find("8 further violations not stored"), std::string::npos);
  EXPECT_NE(rep.find("last "), std::string::npos);
}

TEST(InvariantChecker, ReusedSeqStartsAFreshRetryBudget) {
  // A send completes and a later send reuses its seq (as after a 32-bit
  // wrap). The retry budget is the send's own: the second send's first
  // retransmit (offset 1) is not a budget regression.
  InvariantChecker c;
  test::SinkFeed feed(c);
  for (int round = 0; round < 2; ++round) {
    Event post = ev(EventKind::kRndvPost);
    post.seq = 5;
    feed(post);
    Event retx = ev(EventKind::kRetransmit);
    retx.seq = 5;
    retx.offset = 1;
    feed(retx);
    Event done = ev(round == 0 ? EventKind::kSendDone : EventKind::kSendAbort);
    done.seq = 5;
    feed(done);
  }
  c.finalize();
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(InvariantChecker, WindowHoldsTheLatestEventsOldestFirst) {
  InvariantChecker c;
  test::SinkFeed feed(c);
  // 100 clean events, then a violating one: the window is the last 64
  // events seen, ending with the offender.
  for (sim::Time t = 1; t <= 100; ++t) {
    Event e = pin(EventKind::kPinPages, 7, t, 1000);
    e.time = t;
    feed(e);
  }
  Event bad = pin(EventKind::kPinPages, 7, 1, 1000);  // frontier retreats
  bad.time = 101;
  feed(bad);
  ASSERT_EQ(c.violation_count(), 1u);
  const auto& w = c.violations()[0].window;
  ASSERT_EQ(w.size(), 64u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].time, 38 + i) << "window slot " << i;
  }
}

}  // namespace
}  // namespace pinsim::obs
