#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pinsim::sim {
namespace {

TEST(Task, SpawnedTaskRunsAtCurrentTimeNotSynchronously) {
  Engine eng;
  bool ran = false;
  spawn(eng, [](bool& flag) -> Task<void> {
    flag = true;
    co_return;
  }(ran));
  EXPECT_FALSE(ran);  // deferred until the engine dispatches
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 0u);
}

TEST(Task, DelayAdvancesSimulatedTime) {
  Engine eng;
  Time finished = 0;
  spawn(eng, [](Engine& e, Time& out) -> Task<void> {
    co_await delay(e, 100);
    co_await delay(e, 250);
    out = e.now();
  }(eng, finished));
  eng.run();
  EXPECT_EQ(finished, 350u);
}

Task<int> add_later(Engine& eng, int a, int b) {
  co_await delay(eng, 10);
  co_return a + b;
}

TEST(Task, NestedTasksReturnValues) {
  Engine eng;
  int result = 0;
  spawn(eng, [](Engine& e, int& out) -> Task<void> {
    const int x = co_await add_later(e, 2, 3);
    const int y = co_await add_later(e, x, 10);
    out = y;
  }(eng, result));
  eng.run();
  eng.rethrow_task_failures();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(eng.now(), 20u);
}

Task<int> thrower(Engine& eng) {
  co_await delay(eng, 5);
  throw std::runtime_error("kaboom");
}

TEST(Task, ExceptionsPropagateThroughCoAwait) {
  Engine eng;
  bool caught = false;
  spawn(eng, [](Engine& e, bool& flag) -> Task<void> {
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(eng, caught));
  eng.run();
  eng.rethrow_task_failures();
  EXPECT_TRUE(caught);
}

TEST(Task, UncaughtExceptionIsReportedToEngineNotTerminate) {
  Engine eng;
  spawn(eng, [](Engine& e) -> Task<void> {
    co_await delay(e, 1);
    throw std::logic_error("unhandled");
  }(eng));
  eng.run();
  ASSERT_EQ(eng.task_failures().size(), 1u);
  EXPECT_THROW(eng.rethrow_task_failures(), std::logic_error);
}

TEST(Task, ManyTasksInterleaveDeterministically) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn(eng, [](Engine& e, std::vector<int>& log, int id) -> Task<void> {
      for (int step = 0; step < 3; ++step) {
        co_await delay(e, 10);
        log.push_back(id * 10 + step);
      }
    }(eng, order, i));
  }
  eng.run();
  // All tasks wake at the same instants; spawn order breaks ties.
  ASSERT_EQ(order.size(), 12u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 10);
  EXPECT_EQ(order[2], 20);
  EXPECT_EQ(order[3], 30);
  EXPECT_EQ(order[4], 1);
}

TEST(Gate, WaitersReleaseOnOpen) {
  Engine eng;
  Gate gate(eng);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    spawn(eng, [](Gate& g, std::vector<int>& log, int id) -> Task<void> {
      co_await g.wait();
      log.push_back(id);
    }(gate, woke, i));
  }
  spawn(eng, [](Engine& e, Gate& g) -> Task<void> {
    co_await delay(e, 500);
    g.open();
  }(eng, gate));
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.now(), 500u);
}

TEST(Gate, WaitOnOpenGateDoesNotSuspend) {
  Engine eng;
  Gate gate(eng);
  gate.open();
  Time when = 1;
  spawn(eng, [](Engine& e, Gate& g, Time& out) -> Task<void> {
    co_await g.wait();
    out = e.now();
  }(eng, gate, when));
  eng.run();
  EXPECT_EQ(when, 0u);
}

TEST(Gate, DoubleOpenIsIdempotent) {
  Engine eng;
  Gate gate(eng);
  gate.open();
  gate.open();
  EXPECT_TRUE(gate.is_open());
}

TEST(Gate, OpenedAtKeepsTheFirstOpenUntilReset) {
  Engine eng;
  Gate gate(eng);
  eng.schedule_after(500, [&gate] { gate.open(); });
  eng.schedule_after(900, [&gate] { gate.open(); });
  eng.run();
  EXPECT_EQ(gate.opened_at(), 500);
  gate.reset(&eng);
  EXPECT_EQ(gate.opened_at(), 0);
}

class GateOrder : public ::testing::TestWithParam<int> {};

// The first waiter sits inline and later ones in an overflow list; open()
// must still resume them in the order they arrived, which here differs
// from their spawn order.
TEST_P(GateOrder, ResumesWaitersInArrivalOrder) {
  const int n = GetParam();
  Engine eng;
  Gate gate(eng);
  std::vector<int> arrived, woke;
  for (int i = 0; i < n; ++i) {
    const Time arrive = static_cast<Time>((i * 37) % n + 1);
    spawn(eng, [](Engine& e, Gate& g, Time at, int id, std::vector<int>& in,
                  std::vector<int>& out) -> Task<void> {
      co_await delay(e, at);
      in.push_back(id);
      co_await g.wait();
      out.push_back(id);
    }(eng, gate, arrive, i, arrived, woke));
  }
  eng.run_until(1000);
  ASSERT_EQ(arrived.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(woke.empty());
  gate.open();
  eng.run();
  EXPECT_EQ(woke, arrived);
}

INSTANTIATE_TEST_SUITE_P(Waiters, GateOrder, ::testing::Values(1, 2, 100));

TEST(Gate, ResetClosesTheGateAgain) {
  Engine eng;
  Gate gate(eng);
  gate.open();
  gate.reset(&eng);
  EXPECT_FALSE(gate.is_open());
  std::vector<int> woke;
  for (int i = 0; i < 2; ++i) {
    spawn(eng, [](Gate& g, std::vector<int>& log, int id) -> Task<void> {
      co_await g.wait();
      log.push_back(id);
    }(gate, woke, i));
  }
  eng.run();
  EXPECT_TRUE(woke.empty());
  gate.open();
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1}));
}

TEST(Latch, ReleasesAfterCountDowns) {
  Engine eng;
  Latch latch(eng, 3);
  bool released = false;
  spawn(eng, [](Latch& l, bool& flag) -> Task<void> {
    co_await l.wait();
    flag = true;
  }(latch, released));
  for (int i = 0; i < 3; ++i) {
    spawn(eng, [](Engine& e, Latch& l, int id) -> Task<void> {
      co_await delay(e, static_cast<Time>(100 * (id + 1)));
      l.count_down();
    }(eng, latch, i));
  }
  eng.run();
  EXPECT_TRUE(released);
  EXPECT_EQ(eng.now(), 300u);
  EXPECT_EQ(latch.remaining(), 0u);
}

TEST(Latch, ZeroCountIsImmediatelyOpen) {
  Engine eng;
  Latch latch(eng, 0);
  bool released = false;
  spawn(eng, [](Latch& l, bool& flag) -> Task<void> {
    co_await l.wait();
    flag = true;
  }(latch, released));
  eng.run();
  EXPECT_TRUE(released);
}

// A long chain of zero-delay awaits must not blow the native stack
// (each await yields through the event loop, not recursion).
TEST(Task, DeepZeroDelayChainDoesNotRecurse) {
  Engine eng;
  int steps = 0;
  spawn(eng, [](Engine& e, int& n) -> Task<void> {
    for (int i = 0; i < 100'000; ++i) {
      co_await delay(e, 0);
      ++n;
    }
  }(eng, steps));
  eng.run();
  EXPECT_EQ(steps, 100'000);
}

}  // namespace
}  // namespace pinsim::sim
