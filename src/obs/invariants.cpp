#include "obs/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>


namespace pinsim::obs {

void InvariantChecker::violate(const Event& e, std::string message) {
  ++violation_count_;
  if (violations_.size() < kMaxStored) {
    Violation v;
    v.message = std::move(message);
    v.event = e;
    v.window.reserve(window_held_);
    const std::size_t start = window_held_ == kWindow ? window_head_ : 0;
    for (std::size_t i = 0; i < window_held_; ++i) {
      v.window.push_back(window_[(start + i) % kWindow]);
    }
    violations_.push_back(std::move(v));
    if (violation_hook_) violation_hook_(violations_.back());
  }
}

void InvariantChecker::on_pin_event(const Event& e) {
  RegionModel& m = regions_[key(e.node, e.ep, e.region)];
  switch (e.kind) {
    case EventKind::kPinStart:
      // A job may resume a partially-pinned region (or the checker attached
      // late): sync the shadow frontier, no check.
      m.pinned = e.offset;
      m.total = e.len;
      break;
    case EventKind::kPinPages:
      if (e.offset < m.pinned) {
        violate(e, "pin frontier moved backwards without an invalidation (" +
                       std::to_string(m.pinned) + " -> " +
                       std::to_string(e.offset) + " pages)");
      }
      m.pinned = e.offset;
      m.total = e.len;
      break;
    case EventKind::kPinDone:
      if (e.offset != e.len) {
        violate(e, "pin.done with a partial frontier (" +
                       std::to_string(e.offset) + "/" +
                       std::to_string(e.len) + " pages)");
      }
      m.pinned = e.offset;
      m.total = e.len;
      break;
    case EventKind::kPinInvalidate:
      // Pages at or above the cut slot had their translations invalidated;
      // a frontier still covering them means pinned pages survived an MMU
      // invalidation of their range — the paper's §3.1 contract broken.
      if (e.offset > e.seq) {
        violate(e, "pins survived an MMU invalidation: frontier " +
                       std::to_string(e.offset) + " pages past cut slot " +
                       std::to_string(e.seq));
      }
      m.pinned = e.offset;
      m.total = e.len;
      break;
    case EventKind::kPinUnpin:
    case EventKind::kPinShed:
      m.pinned = 0;
      break;
    default:
      // Informational pin events (reset/retry/shrink/restart/fail) carry
      // the frontier at emission time; keep the shadow in sync.
      m.pinned = e.offset;
      m.total = e.len;
      break;
  }
}

void InvariantChecker::on_event(const Event& e) {
  window_[window_head_] = e;
  window_head_ = (window_head_ + 1) % kWindow;
  if (window_held_ < kWindow) ++window_held_;

  switch (e.kind) {
    case EventKind::kPinReset:
    case EventKind::kPinStart:
    case EventKind::kPinPages:
    case EventKind::kPinShrink:
    case EventKind::kPinRetry:
    case EventKind::kPinRestart:
    case EventKind::kPinInvalidate:
    case EventKind::kPinDone:
    case EventKind::kPinFail:
    case EventKind::kPinShed:
    case EventKind::kPinUnpin:
      on_pin_event(e);
      break;

    case EventKind::kCopyIn:
    case EventKind::kCopyOut: {
      auto it = regions_.find(key(e.node, e.ep, e.region));
      if (it == regions_.end() || e.len == 0) break;  // unpinned-mode/unknown
      // Region pages may cover fewer than page_bytes_ (unaligned segments),
      // so byte/page_bytes_ is a lower bound on the slot index: flagging
      // only when even the lower bound escapes the frontier is sound.
      const std::uint64_t last_page = (e.offset + e.len - 1) / page_bytes_;
      if (last_page >= it->second.pinned) {
        violate(e, std::string(e.kind == EventKind::kCopyIn ? "copy-in"
                                                            : "copy-out") +
                       " touches unpinned page " + std::to_string(last_page) +
                       " (frontier " + std::to_string(it->second.pinned) +
                       " pages)");
      }
      break;
    }

    case EventKind::kEagerPost:
    case EventKind::kRndvPost: {
      auto [it, inserted] = open_sends_.emplace(key(e.node, e.ep, e.seq), e);
      (void)it;
      if (!inserted) {
        violate(e, "send seq " + std::to_string(e.seq) +
                       " reposted while still open");
      }
      break;
    }
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      if (open_sends_.erase(key(e.node, e.ep, e.seq)) == 0) {
        violate(e, "send completion for seq " + std::to_string(e.seq) +
                       " that was never posted");
      }
      // The retry budget belongs to this send: a later send reusing the seq
      // (after a wrap) starts from zero retries.
      send_retries_.erase(key(e.node, e.ep, e.seq));
      break;

    case EventKind::kRetransmit: {
      std::uint64_t& last = send_retries_[key(e.node, e.ep, e.seq)];
      if (e.offset <= last) {
        violate(e, "retry budget for seq " + std::to_string(e.seq) +
                       " not monotonically consumed (" +
                       std::to_string(last) + " -> " +
                       std::to_string(e.offset) + ")");
      }
      last = e.offset;
      break;
    }

    case EventKind::kPullStart: {
      auto [it, inserted] = open_pulls_.emplace(key(e.node, e.ep, e.seq), e);
      (void)it;
      if (!inserted) {
        violate(e, "pull handle " + std::to_string(e.seq) + " reused while "
                                                            "still open");
      }
      break;
    }
    case EventKind::kRecvDone:
    case EventKind::kRecvAbort:
      if (open_pulls_.erase(key(e.node, e.ep, e.seq)) == 0) {
        violate(e, "pull completion for handle " + std::to_string(e.seq) +
                       " that was never started");
      }
      break;

    case EventKind::kLifeCrash:
      // The crash sweep must return the host's pinned-page count exactly to
      // the pre-crash non-tenant baseline: anything above leaked pins,
      // anything below double-unpinned a bystander.
      if (e.offset > e.len) {
        violate(e, "crashed endpoint leaked pinned pages: " +
                       std::to_string(e.offset) + " pinned after the sweep, "
                       "baseline " + std::to_string(e.len));
      } else if (e.offset < e.len) {
        violate(e, "crash sweep unpinned bystander pages: " +
                       std::to_string(e.offset) + " pinned after the sweep, "
                       "baseline " + std::to_string(e.len));
      }
      // The incarnation is gone; its ids (regions, seqs, handles) restart
      // from 1 in the next one. Stale shadow models would turn that reuse
      // into false violations, and its open sends/pulls were either failed
      // (events already seen) or died with it — not orphans to report.
      drop_endpoint_state(e.node, e.ep);
      break;

    case EventKind::kNetPortQueue:
      // A bounded egress queue can never report more frames than it holds:
      // depth above capacity means the switch accounting double-counted.
      if (e.offset > e.len) {
        violate(e, "switch port queue depth above capacity (" +
                       std::to_string(e.offset) + "/" +
                       std::to_string(e.len) + " frames)");
      }
      break;

    default:
      break;
  }
}

void InvariantChecker::drop_endpoint_state(std::uint32_t node,
                                           std::uint8_t ep) {
  const std::uint64_t prefix =
      (static_cast<std::uint64_t>(node) << 8) | ep;
  auto drop = [prefix](auto& map) {
    // pinlint: unordered-ok(pure erase by key predicate, no observable order)
    for (auto it = map.begin(); it != map.end();) {
      if ((it->first >> 32) == prefix) {
        it = map.erase(it);
      } else {
        ++it;
      }
    }
  };
  drop(regions_);
  drop(open_sends_);
  drop(open_pulls_);
  drop(send_retries_);
}

void InvariantChecker::finalize() {
  // Violations land in report() text, so emit them in key order — bucket
  // order would make the report differ between bit-identical runs.
  std::vector<std::uint64_t> keys;
  keys.reserve(open_sends_.size());
  // pinlint: unordered-ok(keys collected then sorted below)
  for (const auto& [k, e] : open_sends_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t k : keys) {
    const Event& e = open_sends_.at(k);
    violate(e, "orphaned rendezvous: send seq " + std::to_string(e.seq) +
                   " never completed or aborted");
  }
  open_sends_.clear();

  keys.clear();
  keys.reserve(open_pulls_.size());
  // pinlint: unordered-ok(keys collected then sorted below)
  for (const auto& [k, e] : open_pulls_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t k : keys) {
    const Event& e = open_pulls_.at(k);
    violate(e, "orphaned pull: handle " + std::to_string(e.seq) +
                   " never completed or aborted");
  }
  open_pulls_.clear();
}

std::string InvariantChecker::report() const {
  if (ok()) return "invariants: ok\n";
  std::string out = "invariants: " + std::to_string(violation_count_) +
                    " violation(s)\n";
  for (const Violation& v : violations_) {
    out += "VIOLATION: " + v.message + "\n  at " + describe(v.event) + "\n";
    if (!v.window.empty()) {
      out += "  last " + std::to_string(v.window.size()) + " events:\n";
      for (const Event& w : v.window) out += "    " + describe(w) + "\n";
    }
  }
  if (violation_count_ > violations_.size()) {
    out += "  (" + std::to_string(violation_count_ - violations_.size()) +
           " further violations not stored)\n";
  }
  return out;
}

}  // namespace pinsim::obs
