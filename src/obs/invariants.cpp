#include "obs/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/lifetimes.hpp"

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

void InvariantChecker::on_event(const Event& e) {
  window_[window_head_] = e;
  window_head_ = (window_head_ + 1) % kWindow;
  if (window_held_ < kWindow) ++window_held_;
  life_ = e.life;

  switch (e.kind) {
    case EventKind::kPinPages: {
      const std::uint64_t pinned =
          life_->region(chain_key(e.node, e.ep, e.region))->frontier;
      if (e.offset < pinned) {
        violate(e, "pin frontier moved backwards without an invalidation (" +
                       std::to_string(pinned) + " -> " +
                       std::to_string(e.offset) + " pages)");
      }
      break;
    }
    case EventKind::kPinDone:
      if (e.offset != e.len) {
        violate(e, "pin.done with a partial frontier (" +
                       std::to_string(e.offset) + "/" +
                       std::to_string(e.len) + " pages)");
      }
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
      break;

    case EventKind::kCopyIn:
    case EventKind::kCopyOut: {
      const Lifetimes::Region* r =
          life_->region(chain_key(e.node, e.ep, e.region));
      if (r == nullptr || e.len == 0) break;  // unpinned-mode/unknown
      // Region pages may cover fewer than page_bytes_ (unaligned segments),
      // so byte/page_bytes_ is a lower bound on the slot index: flagging
      // only when even the lower bound escapes the frontier is sound.
      const std::uint64_t last_page = (e.offset + e.len - 1) / page_bytes_;
      if (last_page >= r->frontier) {
        violate(e, std::string(e.kind == EventKind::kCopyIn ? "copy-in"
                                                            : "copy-out") +
                       " touches unpinned page " + std::to_string(last_page) +
                       " (frontier " + std::to_string(r->frontier) +
                       " pages)");
      }
      break;
    }

    case EventKind::kEagerPost:
    case EventKind::kRndvPost:
      if (!life_->opened()) {
        violate(e, "send seq " + std::to_string(e.seq) +
                       " reposted while still open");
      }
      break;
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      if (life_->send(chain_key(e.node, e.ep, e.seq)) == nullptr) {
        violate(e, "send completion for seq " + std::to_string(e.seq) +
                       " that was never posted");
      }
      break;

    case EventKind::kRetransmit:
      // The retry budget belongs to the open send: a later send reusing the
      // seq (after a wrap) starts from zero retries.
      if (const Lifetimes::Send* s =
              life_->send(chain_key(e.node, e.ep, e.seq));
          s != nullptr && e.offset <= s->retries) {
        violate(e, "retry budget for seq " + std::to_string(e.seq) +
                       " not monotonically consumed (" +
                       std::to_string(s->retries) + " -> " +
                       std::to_string(e.offset) + ")");
      }
      break;

    case EventKind::kPullStart:
      if (!life_->opened()) {
        violate(e, "pull handle " + std::to_string(e.seq) + " reused while "
                                                            "still open");
      }
      break;
    case EventKind::kRecvDone:
    case EventKind::kRecvAbort:
      if (life_->pull(chain_key(e.node, e.ep, e.seq)) == nullptr) {
        violate(e, "pull completion for handle " + std::to_string(e.seq) +
                       " that was never started");
      }
      break;

    case EventKind::kLifeCrash:
      // The crash sweep must return the host's pinned-page count exactly to
      // the pre-crash non-tenant baseline: anything above leaked pins,
      // anything below double-unpinned a bystander. The table then drops
      // the incarnation's rows: its open sends and pulls were failed
      // (events already seen) or died with it — not orphans to report.
      if (e.offset > e.len) {
        violate(e, "crashed endpoint leaked pinned pages: " +
                       std::to_string(e.offset) + " pinned after the sweep, "
                       "baseline " + std::to_string(e.len));
      } else if (e.offset < e.len) {
        violate(e, "crash sweep unpinned bystander pages: " +
                       std::to_string(e.offset) + " pinned after the sweep, "
                       "baseline " + std::to_string(e.len));
      }
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

void InvariantChecker::finalize() {
  if (life_ == nullptr) return;
  // Violations land in report() text, so emit them in key order — slot
  // order would make the report differ between bit-identical runs.
  const auto orphans = [this](const auto& rows, const std::string& what) {
    std::vector<std::pair<std::uint64_t, const Event*>> open;
    open.reserve(rows.size());
    // pinlint: unordered-ok(rows collected then sorted below)
    for (const auto& [k, row] : rows) open.emplace_back(k, &row.open);
    std::sort(open.begin(), open.end());
    for (const auto& [k, e] : open) {
      violate(*e, what + std::to_string(e->seq) +
                      " never completed or aborted");
    }
  };
  orphans(life_->sends(), "orphaned rendezvous: send seq ");
  orphans(life_->pulls(), "orphaned pull: handle ");
  life_ = nullptr;
}

std::string InvariantChecker::report() const {
  drain();
  if (violation_count_ == 0) return "invariants: ok\n";
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
