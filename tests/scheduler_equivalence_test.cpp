// Equivalence property test for the timing-wheel scheduler: the Engine must
// dispatch callbacks in exactly the (time, seq) total order of the simple
// binary-heap scheduler it replaced. A reference replica of the seed
// implementation (heap + lazily-erased cancel set) runs the same
// schedule/cancel/run_until stream, and the two dispatch logs must match
// element for element — any divergence is a scheduler bug even if every
// event still fires eventually.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace pinsim {
namespace {

/// Replica of the seed scheduler: binary min-heap on (when, seq) with a
/// cancelled-seq set erased lazily at pop time. Semantics mirror the seed
/// Engine: run_until(d) fires everything with when <= d and parks the clock
/// at d; run() drains; seq increments per schedule call.
class ReferenceScheduler {
 public:
  std::uint64_t schedule_at(sim::Time when, std::function<void()> cb) {
    // Written as std::max: GCC 12 at -O2 with -fsanitize=address,null and
    // _GLIBCXX_ASSERTIONS miscompiles the equivalent `if (when < now_)
    // when = now_;` here and files every event at a garbage time.
    when = std::max(when, now_);
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq});
    cbs_.emplace(seq, std::move(cb));
    return seq;
  }
  std::uint64_t schedule_after(sim::Time delay, std::function<void()> cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }
  void cancel(std::uint64_t seq) {
    if (cbs_.erase(seq) != 0) cancelled_.insert(seq);
  }
  void run_until(sim::Time deadline) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if (cancelled_.erase(top.seq) != 0) {
        heap_.pop();
        continue;
      }
      if (top.when > deadline) break;
      heap_.pop();
      now_ = top.when;
      auto it = cbs_.find(top.seq);
      std::function<void()> cb = std::move(it->second);
      cbs_.erase(it);
      cb();
    }
    if (now_ < deadline) now_ = deadline;
  }
  void run() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if (cancelled_.erase(top.seq) != 0) {
        heap_.pop();
        continue;
      }
      heap_.pop();
      now_ = top.when;
      auto it = cbs_.find(top.seq);
      std::function<void()> cb = std::move(it->second);
      cbs_.erase(it);
      cb();
    }
  }
  [[nodiscard]] sim::Time now() const { return now_; }

 private:
  struct Entry {
    sim::Time when;
    std::uint64_t seq;
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::map<std::uint64_t, std::function<void()>> cbs_;
  std::set<std::uint64_t> cancelled_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 1;
};

/// One dispatch record: the clock at fire time plus the event's tag.
using Log = std::vector<std::pair<sim::Time, std::uint64_t>>;

TEST(SchedulerEquivalenceTest, RandomWorkloadMatchesReferenceDispatchOrder) {
  // 50k events over three delay horizons with ~30% cancels and bounded
  // run_until windows — the steady-state mix of protocol RTOs, retry
  // backoffs and soak deadlines.
  Log wheel_log, ref_log;
  constexpr int kRounds = 500;
  constexpr int kBurst = 100;

  const auto drive = [&](auto& sched, Log& log) {
    sim::Rng rng(0x5eed5);
    std::uint64_t tag = 0;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<decltype(sched.schedule_after(0, [] {}))> ids;
      for (int i = 0; i < kBurst; ++i) {
        const std::uint64_t pick = rng.next_below(100);
        sim::Time delay;
        if (pick < 70) {
          delay = rng.next_below(2000);  // 0 included: same-time batches
        } else if (pick < 95) {
          delay = 2000 + static_cast<sim::Time>(rng.next_below(198'000));
        } else {
          delay = static_cast<sim::Time>(rng.next_below(50'000'000));
        }
        const std::uint64_t t = tag++;
        ids.push_back(sched.schedule_after(
            delay, [&log, &sched, t] { log.emplace_back(sched.now(), t); }));
      }
      for (const auto& id : ids) {
        if (rng.next_below(100) < 30) sched.cancel(id);
      }
      sched.run_until(sched.now() + 5000);
    }
    sched.run();
  };

  {
    sim::Engine eng;
    drive(eng, wheel_log);
  }
  {
    ReferenceScheduler ref;
    drive(ref, ref_log);
  }

  ASSERT_EQ(wheel_log.size(), ref_log.size());
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    ASSERT_EQ(wheel_log[i], ref_log[i]) << "divergence at dispatch " << i;
  }
}

TEST(SchedulerEquivalenceTest, NestedSchedulingMatchesReference) {
  // Callbacks that schedule children exercise filing while the clock sits
  // exactly on bucket boundaries (the cascade path). Child seq allocation
  // order must match because the parents fire in the same order.
  Log wheel_log, ref_log;

  const auto drive = [&](auto& sched, Log& log) {
    std::uint64_t tag = 0;
    std::function<void(int, sim::Time)> spawn =
        [&](int depth, sim::Time delay) {
          const std::uint64_t t = tag++;
          sched.schedule_after(delay, [&, depth, t] {
            log.emplace_back(sched.now(), t);
            if (depth > 0) {
              spawn(depth - 1, 1);
              spawn(depth - 1, 63);   // lands on a level-0 boundary
              spawn(depth - 1, 64);   // first slot of the next level
              spawn(depth - 1, 4096); // two levels up
            }
          });
        };
    for (int i = 0; i < 8; ++i) {
      spawn(4, static_cast<sim::Time>(i) * 37);
    }
    sched.run();
  };

  {
    sim::Engine eng;
    drive(eng, wheel_log);
  }
  {
    ReferenceScheduler ref;
    drive(ref, ref_log);
  }

  ASSERT_EQ(wheel_log.size(), ref_log.size());
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    ASSERT_EQ(wheel_log[i], ref_log[i]) << "divergence at dispatch " << i;
  }
}

TEST(SchedulerEquivalenceTest, SameInstantAcrossLevelsFiresInSeqOrder) {
  // Events targeting the same absolute instant but filed from different
  // clock positions live on different wheel levels until they fire; the
  // due-batch merge must still deliver them in schedule (seq) order.
  Log wheel_log, ref_log;
  constexpr sim::Time kT = 100'000;

  const auto drive = [&](auto& sched, Log& log) {
    std::uint64_t tag = 0;
    const auto record = [&log, &sched](std::uint64_t t) {
      return [&log, &sched, t] { log.emplace_back(sched.now(), t); };
    };
    // Far away: lands on a high level.
    sched.schedule_at(kT, record(tag++));
    // Stepping stones that re-file the far event closer and add same-time
    // peers from progressively nearer positions (lower levels).
    for (sim::Time at : {kT / 2, kT - 4096, kT - 64, kT - 1}) {
      const std::uint64_t t = tag++;
      sched.schedule_at(at, [&sched, &log, &tag, t, kT_ = kT] {
        log.emplace_back(sched.now(), t);
        sched.schedule_at(kT_, [&log, &sched, t2 = tag++] {
          log.emplace_back(sched.now(), t2);
        });
      });
    }
    sched.run_until(kT);
    sched.run();
  };

  {
    sim::Engine eng;
    drive(eng, wheel_log);
  }
  {
    ReferenceScheduler ref;
    drive(ref, ref_log);
  }

  ASSERT_EQ(wheel_log.size(), ref_log.size());
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    ASSERT_EQ(wheel_log[i], ref_log[i]) << "divergence at dispatch " << i;
  }
}

}  // namespace
}  // namespace pinsim
