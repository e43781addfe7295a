#include "obs/lifetimes.hpp"

namespace pinsim::obs {

namespace {

[[nodiscard]] std::uint64_t key_of(const Event& e) noexcept {
  return chain_key(e.node, e.ep, is_pin_kind(e.kind) ? e.region : e.seq);
}

}  // namespace

void Lifetimes::deliver(const Event& e, std::span<Sink* const> sinks) {
  open(e);
  for (Sink* s : sinks) s->on_event(e);
  settle(e);
}

void Lifetimes::open(const Event& e) {
  opened_ = false;
  if (e.kind == EventKind::kRndvPost || e.kind == EventKind::kEagerPost) {
    const auto [it, fresh] = sends_.emplace(key_of(e), Send{});
    it->second.open = e;
    opened_ = fresh;
    if (!fresh) return;
    if (free_slots_.empty()) free_slots_.push_back(next_slot_++);
    it->second.slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (e.kind == EventKind::kPullStart) {
    const auto [it, fresh] = pulls_.emplace(key_of(e), Pull{});
    it->second.open = e;
    opened_ = fresh;
  } else if (is_pin_kind(e.kind)) {
    regions_.emplace(key_of(e), Region{});
  }
}

template <typename Row>
void Lifetimes::close(sim::HashMap<Row>& rows, std::uint64_t key) {
  if (const auto it = rows.find(key); it != rows.end()) {
    forget(it->second);
    rows.erase(it);
  }
}

void Lifetimes::settle(const Event& e) {
  switch (e.kind) {
    case EventKind::kRndvPost:
    case EventKind::kEagerPost:
      counts_.sends += opened_ ? 1 : 0;
      break;
    case EventKind::kPullStart:
      counts_.pulls += opened_ ? 1 : 0;
      break;
    case EventKind::kRetransmit:
      if (const auto it = sends_.find(key_of(e)); it != sends_.end()) {
        it->second.retries = e.offset;
      }
      break;
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      close(sends_, key_of(e));
      break;
    case EventKind::kRecvDone:
    case EventKind::kRecvAbort:
      close(pulls_, key_of(e));
      break;
    case EventKind::kLifeCrash: {
      const std::uint64_t owner = chain_key(e.node, e.ep, 0) >> 32;
      const auto drop = [this, owner](auto& rows) {
        // pinlint: unordered-ok(erase by key; counts and free slots commute)
        for (auto it = rows.begin(); it != rows.end();) {
          if ((it->first >> 32) != owner) {
            ++it;
            continue;
          }
          forget(it->second);
          it = rows.erase(it);
        }
      };
      drop(sends_);
      drop(pulls_);
      drop(regions_);
      break;
    }
    default:
      if (is_pin_kind(e.kind)) settle_pin(regions_.at(key_of(e)), e);
      break;
  }
}

void Lifetimes::settle_pin(Region& r, const Event& e) {
  // Unsigned wrap cancels on a retreat.
  counts_.pinned_pages += e.offset - r.frontier;
  r.frontier = e.offset;
  const bool start = e.kind == EventKind::kPinStart;
  const bool end =
      e.kind == EventKind::kPinDone || e.kind == EventKind::kPinFail;
  if (r.pinning && (start || end)) {  // a start on an open job restarts it
    r.pinning = false;
    r.jobs_ns += e.time - r.job_start;
    --counts_.pin_jobs;
  }
  if (start) {
    r.pinning = true;
    r.job_start = e.time;
    ++counts_.pin_jobs;
  }
  if (e.kind == EventKind::kPinRestart) ++r.restarts;
}

void Lifetimes::forget(const Send& s) {
  free_slots_.push_back(s.slot);
  --counts_.sends;
}

void Lifetimes::forget(const Region& r) {
  counts_.pinned_pages -= r.frontier;
  if (r.pinning) --counts_.pin_jobs;
}

}  // namespace pinsim::obs
