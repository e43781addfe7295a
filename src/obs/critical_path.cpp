#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace pinsim::obs {

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kSenderPin: return "sender_pin";
    case Phase::kHandshake: return "rndv_handshake";
    case Phase::kPinStall: return "pin_stall";
    case Phase::kRetransmit: return "retransmit";
    case Phase::kTransfer: return "transfer";
    case Phase::kCompletion: return "completion";
  }
  return "?";
}

Phase CriticalPathAnalyzer::Breakdown::dominant() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kPhaseCount; ++i) {
    if (phase_ns[i] > phase_ns[best]) best = i;
  }
  return static_cast<Phase>(best);
}

void CriticalPathAnalyzer::transition(Chain& c, sim::Time now, Phase next) {
  if (c.in_handshake) {
    // Leaving the handshake splits its span into pin-blocked and pure
    // round-trip time: pin-blocked is the time the posted region had a pin
    // job open since the post. Past the handshake, an overlapped pin is
    // free.
    const sim::Time span = now - c.since;
    const Lifetimes::Region* r = region_of(c);
    const sim::Time pinning =
        r == nullptr ? 0 : r->pinning_ns(now) - c.pinning_at_post;
    const sim::Time pin = std::min(pinning, span);
    c.rec.phase_ns[static_cast<std::size_t>(Phase::kSenderPin)] += pin;
    c.rec.phase_ns[static_cast<std::size_t>(Phase::kHandshake)] += span - pin;
    c.in_handshake = false;
  } else {
    c.rec.phase_ns[static_cast<std::size_t>(c.cur)] += now - c.since;
  }
  c.cur = next;
  c.since = now;
}

void CriticalPathAnalyzer::close(Chain& c, sim::Time now, bool aborted) {
  transition(c, now, c.cur);
  c.open = false;
  c.rec.end = now;
  c.rec.aborted = aborted;
  if (const Lifetimes::Region* r = region_of(c)) {
    c.rec.pin_restarts = r->restarts - c.restarts_at_post;
  }
  if (aborted) {
    ++aborted_count_;
    return;
  }
  ++completed_count_;
  latency_total_ += c.rec.total();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase_totals_[i] += c.rec.phase_ns[i];
  }
  if (completed_.size() < max_records_) {
    completed_.push_back(c.rec);
  } else {
    ++dropped_records_;
  }
  // Top-K slowest, kept sorted and exact regardless of record drops.
  const auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), c.rec,
      [](const Breakdown& a, const Breakdown& b) {
        return a.total() > b.total();
      });
  if (pos != slowest_.end() || slowest_.size() < top_k_) {
    slowest_.insert(pos, c.rec);
    if (slowest_.size() > top_k_) slowest_.pop_back();
  }
}

const Lifetimes::Region* CriticalPathAnalyzer::region_of(
    const Chain& c) const {
  return life_->region(chain_key(c.rec.node, c.rec.ep, c.region));
}

CriticalPathAnalyzer::Chain* CriticalPathAnalyzer::find_chain(
    std::uint64_t key) {
  const Lifetimes::Send* s = life_->send(key);
  if (s == nullptr || s->slot >= chains_.size()) return nullptr;
  Chain& c = chains_[s->slot];
  return c.open ? &c : nullptr;
}

CriticalPathAnalyzer::Chain* CriticalPathAnalyzer::chain_of(const Event& e) {
  switch (e.kind) {
    case EventKind::kOverlapMissSend:
    case EventKind::kRetransmit:
    case EventKind::kCopyOut:
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      return find_chain(chain_key(e.node, e.ep, e.seq));
    // A pull's start and done carry the sender chain; its other events
    // carry the pull handle in `seq`, which the table bound to the chain at
    // the start.
    case EventKind::kPullStart:
    case EventKind::kRecvDone:
      return find_chain(sender_chain(e));
    case EventKind::kOverlapMissRecv:
    case EventKind::kPullRetry:
    case EventKind::kCopyIn: {
      const Lifetimes::Pull* p = life_->pull(chain_key(e.node, e.ep, e.seq));
      return p == nullptr ? nullptr : find_chain(sender_chain(p->open));
    }
    default:
      return nullptr;
  }
}

void CriticalPathAnalyzer::on_event(const Event& e) {
  life_ = e.life;
  if (e.kind == EventKind::kRndvPost || e.kind == EventKind::kEagerPost) {
    // A re-post of an open key replaces its chain in place.
    const std::uint32_t slot =
        life_->send(chain_key(e.node, e.ep, e.seq))->slot;
    if (chains_.size() <= slot) chains_.resize(slot + 1);
    Chain& c = chains_[slot];
    c = Chain{};
    c.rec.node = e.node;
    c.rec.ep = e.ep;
    c.rec.seq = e.seq;
    c.rec.rndv = e.kind == EventKind::kRndvPost;
    c.rec.bytes = e.len;
    c.rec.start = e.time;
    c.since = e.time;
    c.region = e.region;
    c.open = true;
    c.cur = c.rec.rndv ? Phase::kHandshake : Phase::kTransfer;
    c.in_handshake = c.rec.rndv;
    if (const Lifetimes::Region* r = region_of(c)) {
      c.pinning_at_post = r->pinning_ns(e.time);
      c.restarts_at_post = r->restarts;
    }
    return;
  }
  Chain* c = chain_of(e);
  if (c == nullptr) return;
  switch (e.kind) {
    case EventKind::kPullStart:
      transition(*c, e.time, Phase::kTransfer);
      break;
    case EventKind::kOverlapMissSend:
    case EventKind::kOverlapMissRecv:
      if (!c->in_handshake) {
        ++c->rec.overlap_misses;
        transition(*c, e.time, Phase::kPinStall);
      }
      break;
    case EventKind::kRetransmit:
    case EventKind::kPullRetry:
      ++(e.kind == EventKind::kRetransmit ? c->rec.retransmits
                                          : c->rec.pull_retries);
      // Pin stalls keep the blame: the retransmission is the mechanism,
      // the unpinned page is the cause. Handshake retransmits just widen
      // the handshake.
      if (c->cur == Phase::kTransfer) {
        transition(*c, e.time, Phase::kRetransmit);
      }
      break;
    // Bytes moving again ends a stall: flip back to transfer.
    case EventKind::kCopyOut:
    case EventKind::kCopyIn:
      if (c->cur == Phase::kPinStall || c->cur == Phase::kRetransmit) {
        transition(*c, e.time, Phase::kTransfer);
      }
      break;
    case EventKind::kRecvDone:
      transition(*c, e.time, Phase::kCompletion);
      break;
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      close(*c, e.time, e.kind == EventKind::kSendAbort);
      break;
    default:
      break;
  }
}

void CriticalPathAnalyzer::finalize() {
  if (life_ != nullptr) orphaned_count_ += life_->counts().sends;
  life_ = nullptr;
  chains_.clear();
}

std::string CriticalPathAnalyzer::json() const {
  drain();
  std::string out = "{";
  out += "\"completed\":" + json_num(completed_count_);
  out += ",\"aborted\":" + json_num(aborted_count_);
  out += ",\"orphaned\":" + json_num(orphaned_count_);
  out += ",\"dropped_records\":" + json_num(dropped_records_);
  out += ",\"latency_total_ns\":" + json_num(latency_total_);
  out += ",\"phase_totals_ns\":{";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (i != 0) out += ",";
    out += json_str(phase_name(static_cast<Phase>(i))) + ":" +
           json_num(phase_totals_[i]);
  }
  out += "}";

  const auto message = [](const Breakdown& b) {
    std::string m = "{";
    m += "\"node\":" + json_num(static_cast<std::uint64_t>(b.node));
    m += ",\"ep\":" + json_num(static_cast<std::uint64_t>(b.ep));
    m += ",\"seq\":" + json_num(static_cast<std::uint64_t>(b.seq));
    m += ",\"rndv\":";
    m += b.rndv ? "true" : "false";
    m += ",\"bytes\":" + json_num(b.bytes);
    m += ",\"start_ns\":" + json_num(b.start);
    m += ",\"end_ns\":" + json_num(b.end);
    m += ",\"total_ns\":" + json_num(b.total());
    m += ",\"dominant\":" + json_str(phase_name(b.dominant()));
    m += ",\"phases_ns\":{";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      if (i != 0) m += ",";
      m += json_str(phase_name(static_cast<Phase>(i))) + ":" +
           json_num(b.phase_ns[i]);
    }
    m += "}";
    m += ",\"overlap_misses\":" +
         json_num(static_cast<std::uint64_t>(b.overlap_misses));
    m += ",\"retransmits\":" +
         json_num(static_cast<std::uint64_t>(b.retransmits));
    m += ",\"pull_retries\":" +
         json_num(static_cast<std::uint64_t>(b.pull_retries));
    m += ",\"pin_restarts\":" +
         json_num(static_cast<std::uint64_t>(b.pin_restarts));
    m += "}";
    return m;
  };

  out += ",\"slowest\":[";
  for (std::size_t i = 0; i < slowest_.size(); ++i) {
    if (i != 0) out += ",";
    out += message(slowest_[i]);
  }
  out += "],\"messages\":[";
  for (std::size_t i = 0; i < completed_.size(); ++i) {
    if (i != 0) out += ",";
    out += message(completed_[i]);
  }
  out += "]}";
  return out;
}

std::string CriticalPathAnalyzer::digest() const {
  drain();
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "critical-path: %llu completed, %llu aborted, %llu orphaned\n",
                static_cast<unsigned long long>(completed_count_),
                static_cast<unsigned long long>(aborted_count_),
                static_cast<unsigned long long>(orphaned_count_));
  out += buf;
  if (completed_count_ != 0) {
    out += "  aggregate phase share:";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const double pct =
          latency_total_ == 0
              ? 0.0
              : 100.0 * static_cast<double>(phase_totals_[i]) /
                    static_cast<double>(latency_total_);
      std::snprintf(buf, sizeof buf, " %s=%.1f%%",
                    phase_name(static_cast<Phase>(i)), pct);
      out += buf;
    }
    out += "\n";
  }
  if (!slowest_.empty()) out += "  slowest messages (why was this slow):\n";
  for (std::size_t i = 0; i < slowest_.size(); ++i) {
    const Breakdown& b = slowest_[i];
    std::snprintf(buf, sizeof buf,
                  "  #%zu node%u:ep%u seq=%u %lluB total=%.1fus"
                  " dominant=%s |",
                  i + 1, b.node, static_cast<unsigned>(b.ep), b.seq,
                  static_cast<unsigned long long>(b.bytes),
                  static_cast<double>(b.total()) / 1000.0,
                  phase_name(b.dominant()));
    out += buf;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (b.phase_ns[p] == 0) continue;
      std::snprintf(buf, sizeof buf, " %s=%.1fus",
                    phase_name(static_cast<Phase>(p)),
                    static_cast<double>(b.phase_ns[p]) / 1000.0);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, " (misses=%u retx=%u retries=%u)\n",
                  b.overlap_misses, b.retransmits, b.pull_retries);
    out += buf;
  }
  return out;
}

}  // namespace pinsim::obs
