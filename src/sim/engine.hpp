#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pinsim::sim {

/// Schedule-site identity stamped on a scheduled closure: which component
/// filed it ("net", "pin", "cpu", ...) and what the handler does
/// ("nic_tx", "send_rto", ...) — the EventKind-style taxonomy for engine
/// callbacks. Both strings must have static storage duration (string
/// literals); the engine and any dispatch observer keep only the pointers.
/// A default-constructed tag means "untagged" and is always legal.
struct TaskTag {
  const char* component = nullptr;
  const char* label = nullptr;
  [[nodiscard]] constexpr bool empty() const noexcept {
    return component == nullptr && label == nullptr;
  }
};

/// Hook around every engine dispatch. At most one observer is attached at a
/// time (obs::Profiler in practice); with none attached the hot path pays a
/// single pointer compare. Observers must not destroy the engine or mutate
/// the queue from inside the hooks; scheduling from the observed callback
/// itself is of course fine.
class DispatchObserver {
 public:
  virtual ~DispatchObserver() = default;
  /// Runs immediately before a callback fires. `tag` is the schedule-site
  /// tag (empty for untagged sites), `scheduled_at` the simulated time the
  /// closure was filed, `now` the dispatch time — their difference is the
  /// schedule->dispatch sim-time lag.
  virtual void on_dispatch_begin(const TaskTag& tag, Time scheduled_at,
                                 Time now) = 0;
  /// Runs after the callback returns (skipped if the callback throws; the
  /// exception propagates out of the engine either way).
  virtual void on_dispatch_end(const TaskTag& tag) = 0;
};

/// Discrete-event simulation engine.
///
/// Events are (time, sequence)-ordered: two events scheduled for the same
/// instant fire in scheduling order, which makes every run bit-reproducible.
/// The engine is strictly single-threaded; everything above it (memory, NIC
/// interrupts, the Open-MX driver, MPI ranks) is a state machine or coroutine
/// driven by these callbacks.
///
/// Internally the queue is a hierarchical timing wheel (calendar queue):
/// 11 levels of 64 buckets index successive 6-bit fields of the absolute
/// timestamp, so schedule and cancel are O(1) and dispatch is amortized O(1)
/// with occasional bucket cascades — no per-event heap churn and no hash-set
/// membership tracking on the hot path. Events live in a slab of pooled
/// nodes; an EventId carries the node's slot plus its generation-unique
/// sequence number, so cancellation is one bounds check and one compare
/// instead of a hash lookup.
///
/// The 64 ns window holding `now()` is not kept in the wheel but in the due
/// run: a vector sorted by (when, seq) that dispatch walks in order,
/// advancing the clock to each entry. When the earliest bucket is a level-1
/// bucket (one 64 ns window), its nodes move into the run as a whole and
/// are sorted once; a higher-level bucket cascades, and the nodes landing
/// in the window join the run. An event scheduled into the window while the
/// run is live is inserted at its (when, seq) slot. Level 0 of the wheel is
/// therefore never filed. The (time, seq) total order of the former
/// binary-heap scheduler is preserved bit-exactly.
class Engine {
 public:
  using Callback = UniqueFunction;

  /// Opaque handle for cancelling a scheduled event. `seq` is the globally
  /// unique scheduling sequence number; `slot` locates the slab node so
  /// cancellation needs no lookup structure (the node's own `seq` acts as a
  /// generation tag against slot reuse).
  struct EventId {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    [[nodiscard]] constexpr bool valid() const noexcept { return seq != 0; }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `when`. Scheduling in the past fires at
  /// `now()` (the event still runs after the current callback returns).
  /// `tag` names the schedule site for dispatch observers (profilers); it
  /// costs two pointer copies and is invisible to untagged callers.
  EventId schedule_at(Time when, Callback cb, TaskTag tag = {});

  /// Schedules `cb` `delay` nanoseconds from `now()`.
  EventId schedule_after(Time delay, Callback cb, TaskTag tag = {}) {
    return schedule_at(now_ + delay, std::move(cb), tag);
  }

  /// Attaches (or, with nullptr, detaches) the dispatch observer. The
  /// observer must outlive its attachment — detach before destroying it.
  void set_dispatch_observer(DispatchObserver* o) noexcept { observer_ = o; }
  [[nodiscard]] DispatchObserver* dispatch_observer() const noexcept {
    return observer_;
  }

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or `id` is invalid. Cancellation is O(1) and eager: the node
  /// is unlinked and recycled immediately, so `pending()` always equals live
  /// queue occupancy (no lazily-dead entries linger).
  bool cancel(EventId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains or `stop()` is called. Returns the number of
  /// events processed by this call.
  std::size_t run();

  /// Runs every event with timestamp <= `deadline`, then advances `now()` to
  /// `deadline` (even if idle) — unless `stop()` interrupted the run. A
  /// stopped run returns with `now()` parked at the interrupting event's
  /// timestamp and the remaining due events still queued, so a subsequent
  /// `run_until(deadline)` resumes the unfinished window instead of skipping
  /// it; check `stop_requested()` to distinguish the two outcomes. Returns
  /// events processed.
  std::size_t run_until(Time deadline);

  /// Makes `run()`/`run_until()` return after the current event completes.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stopped_; }
  void clear_stop() noexcept { stopped_ = false; }

  /// Number of live (non-cancelled) pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Times a node was placed by its timestamp: once per schedule plus once
  /// per re-filing when a level-2-or-higher bucket cascades. Moving a due
  /// level-1 window into the run is dispatch, not a filing. Deterministic,
  /// so filings per schedule measures wheel work independent of the host.
  [[nodiscard]] std::uint64_t filings() const noexcept { return filings_; }

  /// Exhaustive accounting audit for tests: walks the wheel, the due run
  /// and the slab free list and cross-checks them against `pending()` and
  /// the occupancy bitmaps. Returns true when consistent; otherwise fills
  /// `why` (if non-null) with the first discrepancy. O(slab size) — not for
  /// hot paths.
  [[nodiscard]] bool self_check(std::string* why = nullptr) const;

  /// Detached coroutines report uncaught exceptions here (see task.hpp)
  /// instead of terminating, so tests can assert on failure paths.
  void report_task_failure(std::exception_ptr e) { failures_.push_back(e); }
  [[nodiscard]] const std::vector<std::exception_ptr>& task_failures()
      const noexcept {
    return failures_;
  }

  /// Rethrows the first recorded detached-task failure, if any. Harnesses call
  /// this after run() so coroutine bugs surface as test failures.
  void rethrow_task_failures() const;

 private:
  static constexpr int kLevelBits = 6;
  static constexpr int kBucketsPerLevel = 1 << kLevelBits;  // 64
  /// 11 levels x 6 bits = 66 bits: every representable timestamp delta maps
  /// to some level, so there is no separate overflow list.
  static constexpr int kLevels = 11;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Where a slab node currently lives.
  enum class Where : std::uint8_t {
    kFree = 0,   // on the free list
    kWheel = 1,  // linked into a wheel bucket
    kDue = 2,    // in the due run, awaiting dispatch
  };

  struct Node {
    Time when = 0;
    std::uint64_t seq = 0;  // generation tag; 0 = never scheduled/freed
    Callback cb;
    Time created = 0;  // now() at the schedule call (observer lag metric)
    TaskTag tag;       // schedule-site identity for dispatch observers
    std::uint32_t prev = kNil;  // intrusive list links within a bucket
    std::uint32_t next = kNil;  // (free-list chaining reuses `next`)
    std::uint16_t level = 0;
    std::uint16_t bucket = 0;
    Where where = Where::kFree;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// One due-run entry. `seq` is checked against the node at dispatch, so
  /// a cancelled (and possibly reused) slot is skipped.
  struct DueEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t idx;
  };

  /// True if `when` lies in the 64 ns window holding now_ (the due run's).
  [[nodiscard]] bool in_window(Time when) const noexcept {
    return ((when ^ now_) >> kLevelBits) == 0;
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  /// Files node `idx` by `when` relative to `now_`: into the due run at its
  /// (when, seq) slot when `when` is in now_'s window, else a wheel bucket.
  void file_node(std::uint32_t idx);
  /// Links node `idx` (outside now_'s window) into its wheel bucket.
  void link_wheel(std::uint32_t idx);
  void bucket_unlink(std::uint32_t idx);
  /// With the run exhausted: advances `now_` to the earliest bucket's window
  /// if that is <= `limit` and moves every node of the new window into the
  /// run, sorted by (when, seq). Returns false — without overshooting
  /// `limit` — if nothing is due.
  bool extract_next(Time limit);
  /// Dispatches the next live run entry if its time is <= `limit`, advancing
  /// `now_` to it; false otherwise.
  bool fire_one(Time limit);

  std::vector<Node> slab_;
  std::uint32_t free_head_ = kNil;
  std::size_t free_count_ = 0;
  Bucket wheel_[kLevels][kBucketsPerLevel];  // level 0 unused: the due run
  std::uint64_t occupied_[kLevels] = {};
  /// The due run: entries [due_cursor_, end) sorted by (when, seq), all in
  /// now_'s 64 ns window.
  std::vector<DueEntry> due_;
  std::size_t due_cursor_ = 0;
  std::size_t live_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t filings_ = 0;
  DispatchObserver* observer_ = nullptr;
  bool stopped_ = false;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace pinsim::sim
