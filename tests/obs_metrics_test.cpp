// MetricsSampler edge cases: interval catch-up across idle gaps, gauge
// carry-forward vs per-interval counter reset, gauge resets on unpin and
// completion, pair-merge compaction, trailing-partial flush.
#include <gtest/gtest.h>

#include <string>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sink_feed.hpp"

namespace pinsim::obs {
namespace {

Event at(sim::Time t, EventKind kind) {
  Event e;
  e.time = t;
  e.kind = kind;
  e.node = 1;
  return e;
}

Event pin(sim::Time t, EventKind kind, std::uint32_t region,
          std::uint64_t frontier) {
  Event e = at(t, kind);
  e.region = region;
  e.offset = frontier;
  return e;
}

TEST(MetricsSampler, GaugesCarryForwardCountersReset) {
  MetricsSampler m(/*interval=*/1000);
  test::SinkFeed feed(m);
  feed(pin(100, EventKind::kPinStart, 1, 0));
  feed(pin(200, EventKind::kPinPages, 1, 4));
  Event rx = at(300, EventKind::kRetransmit);
  rx.seq = 9;
  feed(rx);
  // Crossing into the next interval closes [0,1000): counters captured.
  feed(pin(1500, EventKind::kPinPages, 1, 8));
  // And [1000,2000): no retransmit this time — the counter must have reset.
  feed(pin(2500, EventKind::kPinPages, 1, 12));
  m.finalize();

  ASSERT_GE(m.samples().size(), 3u);
  const auto& s0 = m.samples()[0];
  EXPECT_EQ(s0.t, 1000u);
  EXPECT_EQ(s0.pinned_pages, 4u);
  EXPECT_EQ(s0.inflight_pin_jobs, 1u);
  EXPECT_EQ(s0.retransmits, 1u);
  const auto& s1 = m.samples()[1];
  EXPECT_EQ(s1.t, 2000u);
  EXPECT_EQ(s1.pinned_pages, 8u);   // gauge carried + updated
  EXPECT_EQ(s1.retransmits, 0u);    // counter reset at the boundary
}

TEST(MetricsSampler, IdleGapEmitsAtMostTwoSamples) {
  MetricsSampler m(/*interval=*/1000);
  test::SinkFeed feed(m);
  feed(at(100, EventKind::kEagerPost));
  // 100 intervals of silence: no 100-sample flood, just the closing sample
  // and one flat carry-forward sample before the event's own interval.
  feed(at(100500, EventKind::kSendDone));
  m.finalize();

  ASSERT_EQ(m.samples().size(), 3u);
  EXPECT_EQ(m.samples()[0].t, 1000u);
  EXPECT_EQ(m.samples()[0].open_sends, 1u);
  EXPECT_EQ(m.samples()[1].t, 100000u);
  EXPECT_EQ(m.samples()[1].open_sends, 1u);  // carried through the gap
  EXPECT_EQ(m.samples()[2].t, 101000u);      // finalize flushes the tail
  EXPECT_EQ(m.samples()[2].open_sends, 0u);
}

TEST(MetricsSampler, GaugeResetsOnUnpinAndCompletion) {
  MetricsSampler m(/*interval=*/1000);
  test::SinkFeed feed(m);
  feed(pin(0, EventKind::kPinStart, 3, 0));
  feed(pin(100, EventKind::kPinPages, 3, 16));
  feed(pin(200, EventKind::kPinDone, 3, 16));
  Event post = at(300, EventKind::kRndvPost);
  post.seq = 5;
  feed(post);
  Event pull = at(400, EventKind::kPullStart);
  pull.node = 2;
  pull.seq = 77;
  feed(pull);
  // Everything winds down inside the second interval.
  feed(pin(1100, EventKind::kPinUnpin, 3, 0));
  Event rdone = at(1200, EventKind::kRecvDone);
  rdone.node = 2;
  rdone.seq = 77;
  feed(rdone);
  Event sdone = at(1300, EventKind::kSendDone);
  sdone.seq = 5;
  feed(sdone);
  m.finalize();

  ASSERT_GE(m.samples().size(), 2u);
  const auto& busy = m.samples()[0];
  EXPECT_EQ(busy.pinned_pages, 16u);
  EXPECT_EQ(busy.inflight_pin_jobs, 0u);  // done before the boundary
  EXPECT_EQ(busy.open_sends, 1u);
  EXPECT_EQ(busy.open_pulls, 1u);
  const auto& idle = m.samples().back();
  EXPECT_EQ(idle.pinned_pages, 0u);
  EXPECT_EQ(idle.open_sends, 0u);
  EXPECT_EQ(idle.open_pulls, 0u);
}

TEST(MetricsSampler, CompactionDoublesIntervalAndPreservesCounters) {
  MetricsSampler m(/*interval=*/100, /*max_samples=*/4);
  test::SinkFeed feed(m);
  std::uint32_t total_misses = 0;
  for (int i = 0; i < 10; ++i) {
    Event e = at(static_cast<sim::Time>(i) * 100 + 50,
                 EventKind::kOverlapMissRecv);
    feed(e);
    ++total_misses;
  }
  m.finalize();

  EXPECT_GE(m.compactions(), 1u);
  EXPECT_GT(m.interval(), 100u);
  EXPECT_LT(m.samples().size(), 10u);
  std::uint32_t seen = 0;
  for (const auto& s : m.samples()) seen += s.overlap_misses;
  EXPECT_EQ(seen, total_misses);  // merging never loses counter mass
}

TEST(MetricsSampler, CopiedBytesAndDenialsAccumulate) {
  MetricsSampler m(/*interval=*/1000);
  test::SinkFeed feed(m);
  Event c1 = at(100, EventKind::kCopyIn);
  c1.len = 4096;
  feed(c1);
  Event c2 = at(200, EventKind::kCopyIn);
  c2.len = 8192;
  feed(c2);
  feed(at(300, EventKind::kPressureDeny));
  feed(at(1500, EventKind::kPktTx));
  m.finalize();

  ASSERT_GE(m.samples().size(), 1u);
  EXPECT_EQ(m.samples()[0].copied_bytes, 12288u);
  EXPECT_EQ(m.samples()[0].pressure_denials, 1u);
}

TEST(MetricsSampler, FinalizeWithoutEventsIsEmpty) {
  MetricsSampler m;
  m.finalize();
  EXPECT_TRUE(m.samples().empty());
  const std::string j = m.json();
  EXPECT_NE(j.find("\"count\":0"), std::string::npos);
}

TEST(MetricsSampler, JsonIsColumnar) {
  MetricsSampler m(/*interval=*/1000);
  test::SinkFeed feed(m);
  feed(pin(100, EventKind::kPinStart, 1, 0));
  feed(pin(1200, EventKind::kPinDone, 1, 4));
  m.finalize();

  const std::string j = m.json();
  EXPECT_NE(j.find("\"interval_ns\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"t_ns\":[1000,2000]"), std::string::npos);
  EXPECT_NE(j.find("\"pinned_pages\":[0,4]"), std::string::npos);
  EXPECT_NE(j.find("\"inflight_pin_jobs\":[1,0]"), std::string::npos);
}

}  // namespace
}  // namespace pinsim::obs
