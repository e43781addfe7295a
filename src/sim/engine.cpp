#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace pinsim::sim {

namespace {

/// Wheel level for an event at `when` filed relative to base time `base`.
/// Levels index successive 6-bit fields of the absolute timestamp, so the
/// level is determined by the highest bit in which `when` and `base`
/// differ. Requires `when > base`.
inline int level_for(Time when, Time base) noexcept {
  const std::uint64_t diff = when ^ base;
  return (63 - std::countl_zero(diff)) / 6;
}

}  // namespace

std::uint32_t Engine::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = slab_[idx].next;
    --free_count_;
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Engine::free_node(std::uint32_t idx) {
  Node& n = slab_[idx];
  n.seq = 0;  // invalidate outstanding EventIds / due entries for this slot
  n.where = Where::kFree;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
  ++free_count_;
}

void Engine::file_node(std::uint32_t idx) {
  ++filings_;
  Node& n = slab_[idx];
  assert(n.when >= now_ && "filing an event into the past");
  if (!in_window(n.when)) {
    link_wheel(idx);
    return;
  }
  n.where = Where::kDue;
  // Only schedule_at files into a live run, and its node carries the
  // highest seq yet: its slot is after every entry with when <= its own.
  const DueEntry d{n.when, n.seq, idx};
  if (due_cursor_ == due_.size() || due_.back().when <= d.when) {
    due_.push_back(d);
    return;
  }
  const auto pos = std::upper_bound(
      due_.begin() + static_cast<std::ptrdiff_t>(due_cursor_), due_.end(),
      d.when, [](Time t, const DueEntry& e) { return t < e.when; });
  due_.insert(pos, d);
}

void Engine::link_wheel(std::uint32_t idx) {
  Node& n = slab_[idx];
  const int lvl = level_for(n.when, now_);
  assert(lvl > 0 && "wheel filing inside the due run's window");
  const int b =
      static_cast<int>((n.when >> (kLevelBits * lvl)) & (kBucketsPerLevel - 1));
  n.level = static_cast<std::uint16_t>(lvl);
  n.bucket = static_cast<std::uint16_t>(b);
  n.where = Where::kWheel;
  Bucket& bk = wheel_[lvl][b];
  n.prev = bk.tail;
  n.next = kNil;
  if (bk.tail != kNil) {
    slab_[bk.tail].next = idx;
  } else {
    bk.head = idx;
  }
  bk.tail = idx;
  occupied_[lvl] |= std::uint64_t{1} << b;
}

void Engine::bucket_unlink(std::uint32_t idx) {
  Node& n = slab_[idx];
  Bucket& bk = wheel_[n.level][n.bucket];
  if (n.prev != kNil) {
    slab_[n.prev].next = n.next;
  } else {
    bk.head = n.next;
  }
  if (n.next != kNil) {
    slab_[n.next].prev = n.prev;
  } else {
    bk.tail = n.prev;
  }
  if (bk.head == kNil) {
    occupied_[n.level] &= ~(std::uint64_t{1} << n.bucket);
  }
}

Engine::EventId Engine::schedule_at(Time when, Callback cb, TaskTag tag) {
  assert(cb && "scheduling an empty callback");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t idx = alloc_node();
  Node& n = slab_[idx];
  n.when = std::max(when, now_);
  n.seq = seq;
  n.cb = std::move(cb);
  n.created = now_;
  n.tag = tag;
  file_node(idx);
  ++live_;
  return EventId{seq, idx + 1};
}

bool Engine::cancel(EventId id) {
  if (!id.valid() || id.slot == 0 || id.slot > slab_.size()) return false;
  const std::uint32_t idx = id.slot - 1;
  Node& n = slab_[idx];
  if (n.seq != id.seq || n.where == Where::kFree) return false;
  if (n.where == Where::kWheel) bucket_unlink(idx);
  // A node in the due run is freed in place; its entry fails the
  // generation check at dispatch and is skipped.
  n.cb = Callback{};
  free_node(idx);
  --live_;
  return true;
}

bool Engine::fire_one(Time limit) {
  while (due_cursor_ < due_.size()) {
    const DueEntry d = due_[due_cursor_];
    Node& n = slab_[d.idx];
    if (n.where != Where::kDue || n.seq != d.seq) {  // cancelled
      ++due_cursor_;
      continue;
    }
    if (d.when > limit) return false;
    ++due_cursor_;
    now_ = d.when;
    Callback cb = std::move(n.cb);
    const TaskTag tag = n.tag;
    const Time created = n.created;
    free_node(d.idx);
    --live_;
    ++processed_;
    // Reset the run before dispatch when this entry exhausted it, so events
    // `cb` schedules into the window start a fresh run instead of growing an
    // already-consumed vector.
    if (due_cursor_ == due_.size()) {
      due_.clear();
      due_cursor_ = 0;
    }
    if (observer_ != nullptr) {
      observer_->on_dispatch_begin(tag, created, now_);
      cb();
      observer_->on_dispatch_end(tag);
    } else {
      cb();
    }
    return true;
  }
  due_.clear();
  due_cursor_ = 0;
  return false;
}

bool Engine::extract_next(Time limit) {
  assert(due_.empty() && "extracting with a live due run");
  for (;;) {
    // Find the occupied bucket with the earliest possible event: per level,
    // the lowest occupied bucket at or after now_'s own bucket (the filing
    // invariant guarantees nothing sits behind it). Its window start is a
    // lower bound on the timestamps it holds.
    int best_level = -1;
    int best_bucket = 0;
    Time best_time = 0;
    for (int lvl = 1; lvl < kLevels; ++lvl) {
      if (occupied_[lvl] == 0) continue;
      const int shift = kLevelBits * lvl;
      const int cur = static_cast<int>((now_ >> shift) & (kBucketsPerLevel - 1));
      const std::uint64_t ahead =
          occupied_[lvl] & ~((std::uint64_t{1} << cur) - 1);
      assert(ahead == occupied_[lvl] && "wheel bucket behind the clock");
      if (ahead == 0) continue;
      const int b = std::countr_zero(ahead);
      // Window start: now_'s bits above this level's field, the candidate
      // bucket in the field, zeros below — clamped to now_ for the bucket
      // now_ itself is in (its events differ only in lower bits).
      Time wstart;
      if (lvl >= kLevels - 1) {
        wstart = static_cast<Time>(b) << shift;
      } else {
        const Time field_end_mask =
            (Time{1} << (shift + kLevelBits)) - 1;  // bits below next level
        wstart = (now_ & ~field_end_mask) | (static_cast<Time>(b) << shift);
      }
      if (wstart < now_) wstart = now_;
      // On a window-start tie prefer the higher level: it cascades first,
      // and the loop below then also takes the lower bucket's window.
      if (best_level < 0 || wstart <= best_time) {
        best_level = lvl;
        best_bucket = b;
        best_time = wstart;
      }
    }
    if (best_level < 0) break;  // wheel empty
    if (due_.empty()) {
      if (best_time > limit) break;  // nothing due at or before limit
      // Advancing to the window start is safe: no event exists before it.
      now_ = best_time;
    } else if (!in_window(best_time)) {
      break;  // the run holds the whole window
    }
    Bucket& bk = wheel_[best_level][best_bucket];
    std::uint32_t idx = bk.head;
    bk.head = bk.tail = kNil;
    occupied_[best_level] &= ~(std::uint64_t{1} << best_bucket);
    // A level-1 bucket is one 64 ns window and joins the run whole; a
    // higher bucket cascades, re-filing what lies past the window.
    while (idx != kNil) {
      Node& n = slab_[idx];
      const std::uint32_t next = n.next;
      if (best_level > 1) ++filings_;
      if (in_window(n.when)) {
        n.where = Where::kDue;
        n.prev = n.next = kNil;
        due_.push_back(DueEntry{n.when, n.seq, idx});
      } else {
        link_wheel(idx);
      }
      idx = next;
    }
  }
  if (due_.empty()) return false;
  std::sort(due_.begin(), due_.end(), [](const DueEntry& a, const DueEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  });
  return true;
}

bool Engine::step() {
  if (fire_one(std::numeric_limits<Time>::max())) return true;
  if (!extract_next(std::numeric_limits<Time>::max())) return false;
  const bool fired = fire_one(std::numeric_limits<Time>::max());
  assert(fired && "extract_next produced an empty run");
  return fired;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  stopped_ = false;
  while (!stopped_ && step()) ++n;
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  std::size_t n = 0;
  stopped_ = false;
  while (!stopped_) {
    if (fire_one(deadline)) {
      ++n;
      continue;
    }
    // A run entry past the deadline ends the window early; the wheel holds
    // nothing earlier than the run.
    if (!due_.empty() || !extract_next(deadline)) break;
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return n;
}

bool Engine::self_check(std::string* why) const {
  const auto fail = [why](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  std::size_t wheel_nodes = 0;
  for (int lvl = 0; lvl < kLevels; ++lvl) {
    for (int b = 0; b < kBucketsPerLevel; ++b) {
      const Bucket& bk = wheel_[lvl][b];
      const bool marked = (occupied_[lvl] >> b) & 1;
      if (marked != (bk.head != kNil)) {
        return fail("occupancy bitmap disagrees with bucket list");
      }
      std::uint32_t prev = kNil;
      for (std::uint32_t idx = bk.head; idx != kNil; idx = slab_[idx].next) {
        const Node& node = slab_[idx];
        if (node.where != Where::kWheel) return fail("wheel node not kWheel");
        if (node.level != lvl || node.bucket != b) {
          return fail("node filed in the wrong bucket");
        }
        if (node.prev != prev) return fail("bucket links corrupt");
        if (node.seq == 0 || !node.cb) return fail("dead node in a bucket");
        if (node.when <= now_) return fail("wheel node at or behind now()");
        if (lvl == 0 || in_window(node.when)) {
          return fail("wheel node inside the due run's window");
        }
        prev = idx;
        ++wheel_nodes;
      }
      if (bk.tail != prev) return fail("bucket tail stale");
    }
  }
  std::size_t due_nodes = 0;
  for (std::size_t i = due_cursor_; i < due_.size(); ++i) {
    const DueEntry& d = due_[i];
    if (d.idx >= slab_.size()) return fail("due entry out of slab range");
    if (i > due_cursor_) {
      const DueEntry& p = due_[i - 1];
      if (p.when > d.when || (p.when == d.when && p.seq >= d.seq)) {
        return fail("due run not sorted by (when, seq)");
      }
    }
    const Node& node = slab_[d.idx];
    if (node.where != Where::kDue || node.seq != d.seq) continue;
    if (node.when != d.when) return fail("due entry time out of sync");
    if (d.when < now_ || !in_window(d.when)) {
      return fail("due entry outside now()'s window");
    }
    ++due_nodes;
  }
  std::size_t due_total = 0;
  std::size_t free_listed = 0;
  for (std::size_t i = 0; i < slab_.size(); ++i) {
    if (slab_[i].where == Where::kDue) ++due_total;
    if (slab_[i].where == Where::kFree) ++free_listed;
  }
  if (due_total != due_nodes) return fail("due node without a run entry");
  std::size_t free_walk = 0;
  for (std::uint32_t idx = free_head_; idx != kNil; idx = slab_[idx].next) {
    if (slab_[idx].where != Where::kFree) return fail("live node on free list");
    ++free_walk;
    if (free_walk > slab_.size()) return fail("free list cycle");
  }
  if (free_walk != free_count_ || free_listed != free_count_) {
    return fail("free-list accounting drifted");
  }
  if (wheel_nodes + due_nodes != live_) {
    return fail("pending() disagrees with live queue occupancy");
  }
  if (wheel_nodes + due_nodes + free_count_ != slab_.size()) {
    return fail("slab nodes leaked");
  }
  return true;
}

void Engine::rethrow_task_failures() const {
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

}  // namespace pinsim::sim
