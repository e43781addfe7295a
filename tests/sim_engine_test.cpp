#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pinsim::sim {
namespace {

TEST(Engine, StartsAtTimeZeroWithEmptyQueue) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(eng.run(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(eng.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, SameTimeEventsFireInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  Time seen = 0;
  eng.schedule_at(100, [&] {
    eng.schedule_after(50, [&] { seen = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, SchedulingInThePastClampsToNow) {
  Engine eng;
  Time seen = 0;
  eng.schedule_at(100, [&] {
    eng.schedule_at(10, [&] { seen = eng.now(); });  // "earlier" than now
  });
  eng.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  auto id = eng.schedule_at(10, [&] { fired = true; });
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_EQ(eng.pending(), 0u);
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine eng;
  auto id = eng.schedule_at(10, [] {});
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine eng;
  auto id = eng.schedule_at(10, [] {});
  eng.run();
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, CancelInvalidIdReturnsFalse) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(Engine::EventId{}));
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(static_cast<Time>(i), [&] {
      if (++count == 3) eng.stop();
    });
  }
  EXPECT_EQ(eng.run(), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eng.pending(), 7u);
  // run() clears the stop flag and resumes.
  EXPECT_EQ(eng.run(), 7u);
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilProcessesOnlyDueEventsAndAdvancesClock) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(eng.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 20u);
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_EQ(eng.run_until(25), 0u);
  EXPECT_EQ(eng.now(), 25u);
  EXPECT_EQ(eng.run_until(100), 1u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(Engine, RunUntilSkipsCancelledHead) {
  Engine eng;
  bool fired = false;
  auto id = eng.schedule_at(5, [&] { fired = true; });
  eng.schedule_at(50, [] {});
  eng.cancel(id);
  EXPECT_EQ(eng.run_until(10), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.now(), 10u);
}

// Regression for the run_until/stop() contract (ISSUE 6): a stopped run
// leaves now() parked at the interrupting event's timestamp — NOT advanced
// to the deadline — and the remaining events in the window stay queued, so
// a subsequent run_until(deadline) resumes the unfinished window instead of
// silently skipping it.
TEST(Engine, StopDuringRunUntilParksClockAndResumes) {
  Engine eng;
  std::vector<Time> fired_at;
  eng.schedule_at(10, [&] { fired_at.push_back(eng.now()); });
  eng.schedule_at(20, [&] {
    fired_at.push_back(eng.now());
    eng.stop();
  });
  eng.schedule_at(30, [&] { fired_at.push_back(eng.now()); });
  eng.schedule_at(40, [&] { fired_at.push_back(eng.now()); });

  EXPECT_EQ(eng.run_until(100), 2u);
  EXPECT_TRUE(eng.stop_requested());
  // Clock parked at the stopping event, not at the deadline.
  EXPECT_EQ(eng.now(), 20u);
  EXPECT_EQ(eng.pending(), 2u);

  // Resuming with the same deadline finishes the window and only then
  // advances the clock to the deadline.
  EXPECT_EQ(eng.run_until(100), 2u);
  EXPECT_FALSE(eng.stop_requested());
  EXPECT_EQ(eng.now(), 100u);
  EXPECT_EQ(fired_at, (std::vector<Time>{10, 20, 30, 40}));
}

TEST(Engine, StopBetweenSameTimeEventsKeepsRestOfBatch) {
  Engine eng;
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    eng.schedule_at(50, [&] {
      if (++fired == 2) eng.stop();
    });
  }
  EXPECT_EQ(eng.run_until(90), 2u);
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_EQ(eng.pending(), 4u);
  // The rest of the 50 ns batch fires on resume, in original order.
  EXPECT_EQ(eng.run_until(90), 4u);
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(eng.now(), 90u);
}

TEST(Engine, RunUntilIdleStillAdvancesClockWhenNotStopped) {
  Engine eng;
  EXPECT_EQ(eng.run_until(1234), 0u);
  EXPECT_EQ(eng.now(), 1234u);
  // A stop requested before the run (not during it) is cleared on entry,
  // exactly like run(): the idle run still advances to the deadline.
  eng.stop();
  EXPECT_EQ(eng.run_until(9999), 0u);
  EXPECT_FALSE(eng.stop_requested());
  EXPECT_EQ(eng.now(), 9999u);
}

TEST(Engine, EventsScheduledInsideCallbackAtSameTimeStillRun) {
  Engine eng;
  int depth = 0;
  eng.schedule_at(10, [&] {
    eng.schedule_after(0, [&] {
      ++depth;
      eng.schedule_after(0, [&] { ++depth; });
    });
  });
  eng.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(eng.now(), 10u);
}

TEST(Engine, ProcessedCounterAccumulates) {
  Engine eng;
  for (int i = 0; i < 5; ++i) eng.schedule_at(static_cast<Time>(i), [] {});
  eng.run();
  EXPECT_EQ(eng.processed(), 5u);
}

TEST(Engine, MoveOnlyCallbackPayloadsAreSupported) {
  Engine eng;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  eng.schedule_at(1, [p = std::move(payload), &got] { got = *p + 1; });
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Engine, TaskFailureReporting) {
  Engine eng;
  EXPECT_NO_THROW(eng.rethrow_task_failures());
  eng.report_task_failure(
      std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(eng.rethrow_task_failures(), std::runtime_error);
}

// Randomized ordering property: N events with random timestamps always
// observe a non-decreasing clock, and all fire exactly once.
TEST(Engine, RandomizedOrderingProperty) {
  Engine eng;
  Rng rng(1234);
  constexpr int kEvents = 5000;
  int fired = 0;
  Time last = 0;
  bool monotonic = true;
  for (int i = 0; i < kEvents; ++i) {
    eng.schedule_at(rng.uniform(0, 10'000), [&] {
      if (eng.now() < last) monotonic = false;
      last = eng.now();
      ++fired;
    });
  }
  eng.run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_TRUE(monotonic);
}

// Cancellation under churn: schedule/cancel at random, verify only the
// surviving events fire.
TEST(Engine, RandomizedCancellationProperty) {
  Engine eng;
  Rng rng(99);
  constexpr int kEvents = 2000;
  std::vector<Engine::EventId> ids;
  std::vector<bool> fired(kEvents, false);
  std::vector<bool> expect(kEvents, true);
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(eng.schedule_at(rng.uniform(0, 1000),
                                  [&fired, i] { fired[static_cast<size_t>(i)] = true; }));
  }
  for (int i = 0; i < kEvents; ++i) {
    if (rng.bernoulli(0.4)) {
      EXPECT_TRUE(eng.cancel(ids[static_cast<size_t>(i)]));
      expect[static_cast<size_t>(i)] = false;
    }
  }
  eng.run();
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(eng.pending(), 0u);
}

// Mass-cancel torture (ISSUE 6): the old scheduler let cancelled entries
// linger in the heap until popped, so pending() could disagree with live
// occupancy after a retry-timer storm. Interleave schedule/cancel/run_until
// at scale and audit the full accounting invariant with self_check() — which
// walks the wheel, the due batch and the free list — at every phase.
TEST(Engine, MassCancelTortureKeepsAccountingExact) {
  Engine eng;
  Rng rng(0xc4a05);
  std::string why;
  std::vector<Engine::EventId> live_ids;
  std::size_t fired = 0;
  std::size_t expected = 0;
  constexpr int kRounds = 200;
  constexpr int kBatch = 64;
  for (int round = 0; round < kRounds; ++round) {
    // Burst of schedules across several wheel levels (retry timers, frame
    // hops, and long watchdogs all at once).
    for (int i = 0; i < kBatch; ++i) {
      const Time delay = rng.bernoulli(0.7)   ? rng.uniform(0, 2'000)
                         : rng.bernoulli(0.8) ? rng.uniform(2'000, 200'000)
                                              : rng.uniform(200'000, 50'000'000);
      live_ids.push_back(eng.schedule_after(delay, [&] { ++fired; }));
      ++expected;
    }
    // Mass-cancel sweep: kill roughly half of everything still pending,
    // including events already extracted into the current due batch.
    for (auto& id : live_ids) {
      if (id.valid() && rng.bernoulli(0.5) && eng.cancel(id)) {
        --expected;
        id = Engine::EventId{};
      }
    }
    std::erase_if(live_ids, [](Engine::EventId id) { return !id.valid(); });
    const std::size_t before = eng.pending();
    const std::size_t ran = eng.run_until(eng.now() + 5'000);
    EXPECT_EQ(eng.pending(), before - ran);
    // pending() must equal live occupancy exactly — no lazily-dead entries.
    ASSERT_TRUE(eng.self_check(&why)) << "round " << round << ": " << why;
  }
  eng.run();
  ASSERT_TRUE(eng.self_check(&why)) << "after drain: " << why;
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.processed(), fired);
}

// Cancelling events that are already in the extracted due batch must not
// leave stale entries behind or corrupt the batch cursor.
TEST(Engine, CancelInsideSameTimeBatchIsExact) {
  Engine eng;
  std::string why;
  std::vector<Engine::EventId> ids;
  int fired = 0;
  // First event of the batch cancels three later same-time events from
  // inside its callback — after extract_next has already moved the whole
  // batch into the due list, so the cancels hit kDue nodes.
  eng.schedule_at(10, [&] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(eng.cancel(ids[static_cast<size_t>(i)]));
    }
  });
  for (int i = 0; i < 8; ++i) {
    ids.push_back(eng.schedule_at(10, [&] { ++fired; }));
  }
  eng.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(eng.pending(), 0u);
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

TEST(Engine, SelfCheckPassesOnFreshAndDrainedEngine) {
  Engine eng;
  std::string why;
  ASSERT_TRUE(eng.self_check(&why)) << why;
  for (int i = 0; i < 100; ++i) {
    eng.schedule_at(static_cast<Time>(i * 17 % 50), [] {});
  }
  ASSERT_TRUE(eng.self_check(&why)) << why;
  eng.run();
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

// Whole-window dispatch: a due 64 ns window is one sorted run. These pin the
// run's edges — insertion ahead of pending entries, cancellation inside
// it, a deadline or stop() landing mid-run — each audited by self_check().

TEST(Engine, CallbackSchedulesIntoTheActiveWindowAheadOfLaterEntries) {
  Engine eng;
  std::string why;
  std::vector<int> order;
  // 130, 140 and 150 share the window [128, 192).
  eng.schedule_at(130, [&] {
    order.push_back(130);
    eng.schedule_at(135, [&] { order.push_back(135); });
    eng.schedule_after(0, [&] { order.push_back(1300); });  // same instant
    eng.schedule_at(191, [&] { order.push_back(191); });    // window's end
    eng.schedule_at(192, [&] { order.push_back(192); });    // next window
    EXPECT_TRUE(eng.self_check(&why)) << why;
  });
  eng.schedule_at(140, [&] { order.push_back(140); });
  eng.schedule_at(150, [&] { order.push_back(150); });
  eng.run();
  EXPECT_EQ(order,
            (std::vector<int>{130, 1300, 135, 140, 150, 191, 192}));
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

TEST(Engine, CancellingAPendingRunEntrySkipsOnlyIt) {
  Engine eng;
  std::string why;
  std::vector<int> order;
  Engine::EventId victim;
  eng.schedule_at(130, [&] {
    order.push_back(130);
    EXPECT_TRUE(eng.cancel(victim));
    EXPECT_FALSE(eng.cancel(victim));
    EXPECT_TRUE(eng.self_check(&why)) << why;
    // The freed slot is reused at once; the stale run entry must not fire it
    // early.
    eng.schedule_at(170, [&] { order.push_back(170); });
  });
  victim = eng.schedule_at(140, [&] { order.push_back(140); });
  eng.schedule_at(150, [&] { order.push_back(150); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{130, 150, 170}));
  EXPECT_EQ(eng.pending(), 0u);
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

TEST(Engine, RunUntilDeadlineInsideARunWindowResumesInOrder) {
  Engine eng;
  std::string why;
  std::vector<int> order;
  eng.schedule_at(130, [&] { order.push_back(130); });
  eng.schedule_at(150, [&] { order.push_back(150); });
  eng.schedule_at(160, [&] { order.push_back(160); });
  EXPECT_EQ(eng.run_until(140), 1u);
  EXPECT_EQ(eng.now(), 140u);
  EXPECT_EQ(eng.pending(), 2u);
  ASSERT_TRUE(eng.self_check(&why)) << why;
  // Scheduled from outside any callback, before the remaining entries.
  eng.schedule_at(145, [&] { order.push_back(145); });
  eng.schedule_after(0, [&] { order.push_back(140); });
  eng.schedule_at(150, [&] { order.push_back(1500); });  // after 150 (seq)
  ASSERT_TRUE(eng.self_check(&why)) << why;
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{130, 140, 145, 150, 1500, 160}));
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

TEST(Engine, StopMidRunThenResume) {
  Engine eng;
  std::string why;
  std::vector<int> order;
  eng.schedule_at(130, [&] { order.push_back(130); });
  eng.schedule_at(131, [&] {
    order.push_back(131);
    eng.stop();
  });
  eng.schedule_at(132, [&] { order.push_back(132); });
  eng.schedule_at(5000, [&] { order.push_back(5000); });
  EXPECT_EQ(eng.run_until(10'000), 2u);
  EXPECT_TRUE(eng.stop_requested());
  EXPECT_EQ(eng.now(), 131u);
  EXPECT_EQ(eng.pending(), 2u);
  ASSERT_TRUE(eng.self_check(&why)) << why;
  EXPECT_EQ(eng.run_until(10'000), 2u);
  EXPECT_EQ(order, (std::vector<int>{130, 131, 132, 5000}));
  EXPECT_EQ(eng.now(), 10'000u);
  ASSERT_TRUE(eng.self_check(&why)) << why;
}

TEST(Engine, FilingsCountSchedulesAndCascades) {
  Engine eng;
  // Level 1 (64 ns - 4 us out): filed once, then dispatched with its window.
  eng.schedule_at(100, [] {});
  eng.run();
  EXPECT_EQ(eng.filings(), 1u);
  // Level 2: filed, then re-filed once when its 4 us bucket cascades.
  eng.schedule_at(eng.now() + 5000, [] {});
  eng.run();
  EXPECT_EQ(eng.filings(), 3u);
  // Into the live window: one filing, no cascade.
  eng.schedule_after(0, [] {});
  eng.run();
  EXPECT_EQ(eng.filings(), 4u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyMatches) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(from_usec(1.0), kMicrosecond);
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(-1.0), 0u);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_usec(kMicrosecond), 1.0);
}

}  // namespace
}  // namespace pinsim::sim
