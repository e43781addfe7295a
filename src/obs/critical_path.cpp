#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace pinsim::obs {

namespace {

// Pin jobs are identified like pin spans in the Chrome trace: the region id
// takes the seq slot of the chain key.
std::uint64_t pin_key(std::uint32_t node, std::uint8_t ep,
                      std::uint32_t region) {
  return chain_key(node, ep, region);
}

}  // namespace

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
    // round-trip time; everything else is a plain bucket flip.
    const sim::Time span = now - c.since;
    if (c.pin_open) {
      c.sender_pin += now - c.pin_since;
      c.pin_open = false;  // past the handshake, an overlapped pin is free
    }
    const sim::Time pin = std::min(c.sender_pin, span);
    c.rec.phase_ns[static_cast<std::size_t>(Phase::kSenderPin)] += pin;
    c.rec.phase_ns[static_cast<std::size_t>(Phase::kHandshake)] += span - pin;
    c.in_handshake = false;
  } else {
    c.rec.phase_ns[static_cast<std::size_t>(c.cur)] += now - c.since;
  }
  c.cur = next;
  c.since = now;
}

void CriticalPathAnalyzer::close(std::uint32_t idx, std::uint64_t key,
                                 sim::Time now, bool aborted) {
  Chain& c = chains_[idx];
  transition(c, now, c.cur);
  c.rec.end = now;
  c.rec.aborted = aborted;
  if (aborted) {
    ++aborted_count_;
  } else {
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
  unlink_region(idx);
  free_chains_.push_back(idx);
  open_.erase(key);
}

void CriticalPathAnalyzer::link_region(std::uint32_t idx) {
  Chain& c = chains_[idx];
  c.region_prev = kNoChain;
  c.region_next = kNoChain;
  const auto [it, inserted] =
      by_region_.emplace(pin_key(c.rec.node, c.rec.ep, c.region), idx);
  if (!inserted) {
    c.region_next = it->second;
    chains_[it->second].region_prev = idx;
    it->second = idx;
  }
}

void CriticalPathAnalyzer::unlink_region(std::uint32_t idx) {
  const Chain& c = chains_[idx];
  if (c.region_next != kNoChain) {
    chains_[c.region_next].region_prev = c.region_prev;
  }
  if (c.region_prev != kNoChain) {
    chains_[c.region_prev].region_next = c.region_next;
    return;
  }
  const std::uint64_t pk = pin_key(c.rec.node, c.rec.ep, c.region);
  if (c.region_next == kNoChain) {
    by_region_.erase(pk);
  } else {
    by_region_.find(pk)->second = c.region_next;
  }
}

void CriticalPathAnalyzer::on_pin_event(const Event& e) {
  const std::uint64_t pk = pin_key(e.node, e.ep, e.region);
  if (e.kind == EventKind::kPinStart) {
    pins_open_.insert(pk);
  } else if (e.kind != EventKind::kPinRestart) {
    pins_open_.erase(pk);
  }
  const auto head = by_region_.find(pk);
  if (head == by_region_.end()) return;
  // Only the open chains on this region can be affected.
  for (std::uint32_t i = head->second; i != kNoChain;
       i = chains_[i].region_next) {
    Chain& c = chains_[i];
    switch (e.kind) {
      case EventKind::kPinStart:
        if (c.in_handshake && !c.pin_open && c.rec.rndv) {
          c.pin_open = true;
          c.pin_since = e.time;
        }
        break;
      case EventKind::kPinDone:
      case EventKind::kPinFail:
        if (c.pin_open) {
          c.sender_pin += e.time - c.pin_since;
          c.pin_open = false;
        }
        break;
      case EventKind::kPinRestart:
        ++c.rec.pin_restarts;
        break;
      default:
        break;
    }
  }
}

CriticalPathAnalyzer::Chain* CriticalPathAnalyzer::find_chain(
    std::uint64_t key) {
  const auto it = open_.find(key);
  return it == open_.end() ? nullptr : &chains_[it->second];
}

CriticalPathAnalyzer::Chain* CriticalPathAnalyzer::resolve_receiver(
    const Event& e) {
  // Receiver-local events carry the pull handle in `seq`; the handle was
  // bound to the sender-side chain at kPullStart.
  const auto hit = pulls_.find(chain_key(e.node, e.ep, e.seq));
  return hit == pulls_.end() ? nullptr : find_chain(hit->second);
}

void CriticalPathAnalyzer::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kRndvPost:
    case EventKind::kEagerPost: {
      Chain c;
      c.rec.node = e.node;
      c.rec.ep = e.ep;
      c.rec.seq = e.seq;
      c.rec.rndv = e.kind == EventKind::kRndvPost;
      c.rec.bytes = e.len;
      c.rec.start = e.time;
      c.since = e.time;
      c.region = e.region;
      if (c.rec.rndv) {
        c.cur = Phase::kHandshake;
        c.in_handshake = true;
        // A pin job already running on this region (pre-pin, region reuse)
        // blocks the handshake from the very start.
        if (pins_open_.count(pin_key(e.node, e.ep, e.region)) != 0) {
          c.pin_open = true;
          c.pin_since = e.time;
        }
      } else {
        c.cur = Phase::kTransfer;
        c.in_handshake = false;
      }
      // A re-post of an open key replaces its chain in place.
      const std::uint64_t ck = chain_key(e.node, e.ep, e.seq);
      std::uint32_t idx;
      if (const auto it = open_.find(ck); it != open_.end()) {
        idx = it->second;
        unlink_region(idx);
      } else if (!free_chains_.empty()) {
        idx = free_chains_.back();
        free_chains_.pop_back();
        open_.emplace(ck, idx);
      } else {
        idx = static_cast<std::uint32_t>(chains_.size());
        chains_.emplace_back();
        open_.emplace(ck, idx);
      }
      chains_[idx] = c;
      link_region(idx);
      break;
    }

    case EventKind::kPullStart: {
      // Receiver names the sender chain via (peer, peer_ep, sender seq in
      // `offset`) and binds its local handle to it for later events.
      const std::uint64_t ck = chain_key(
          e.peer, e.peer_ep, static_cast<std::uint32_t>(e.offset));
      pulls_[chain_key(e.node, e.ep, e.seq)] = ck;
      if (Chain* c = find_chain(ck); c != nullptr) {
        transition(*c, e.time, Phase::kTransfer);
      }
      break;
    }

    case EventKind::kOverlapMissSend: {
      Chain* c = find_chain(chain_key(e.node, e.ep, e.seq));
      if (c != nullptr && !c->in_handshake) {
        ++c->rec.overlap_misses;
        transition(*c, e.time, Phase::kPinStall);
      }
      break;
    }
    case EventKind::kOverlapMissRecv: {
      if (Chain* c = resolve_receiver(e); c != nullptr && !c->in_handshake) {
        ++c->rec.overlap_misses;
        transition(*c, e.time, Phase::kPinStall);
      }
      break;
    }

    case EventKind::kRetransmit: {
      if (Chain* c = find_chain(chain_key(e.node, e.ep, e.seq));
          c != nullptr) {
        ++c->rec.retransmits;
        // Pin stalls keep the blame: the retransmission is the mechanism,
        // the unpinned page is the cause. Handshake retransmits just widen
        // the handshake.
        if (c->cur == Phase::kTransfer) {
          transition(*c, e.time, Phase::kRetransmit);
        }
      }
      break;
    }
    case EventKind::kPullRetry: {
      if (Chain* c = resolve_receiver(e); c != nullptr) {
        ++c->rec.pull_retries;
        if (c->cur == Phase::kTransfer) {
          transition(*c, e.time, Phase::kRetransmit);
        }
      }
      break;
    }

    // Bytes moving again ends a stall: flip back to transfer.
    case EventKind::kCopyOut: {
      Chain* c = find_chain(chain_key(e.node, e.ep, e.seq));
      if (c != nullptr &&
          (c->cur == Phase::kPinStall || c->cur == Phase::kRetransmit)) {
        transition(*c, e.time, Phase::kTransfer);
      }
      break;
    }
    case EventKind::kCopyIn: {
      if (Chain* c = resolve_receiver(e);
          c != nullptr &&
          (c->cur == Phase::kPinStall || c->cur == Phase::kRetransmit)) {
        transition(*c, e.time, Phase::kTransfer);
      }
      break;
    }

    case EventKind::kRecvDone:
    case EventKind::kRecvAbort: {
      const std::uint64_t ck = chain_key(
          e.peer, e.peer_ep, static_cast<std::uint32_t>(e.offset));
      if (e.kind == EventKind::kRecvDone) {
        if (Chain* c = find_chain(ck); c != nullptr) {
          transition(*c, e.time, Phase::kCompletion);
        }
      }
      pulls_.erase(chain_key(e.node, e.ep, e.seq));
      break;
    }

    case EventKind::kSendDone:
    case EventKind::kSendAbort: {
      const std::uint64_t ck = chain_key(e.node, e.ep, e.seq);
      if (const auto it = open_.find(ck); it != open_.end()) {
        close(it->second, ck, e.time, e.kind == EventKind::kSendAbort);
      }
      break;
    }

    case EventKind::kPinStart:
    case EventKind::kPinDone:
    case EventKind::kPinFail:
    case EventKind::kPinRestart:
      on_pin_event(e);
      break;

    default:
      break;
  }
}

void CriticalPathAnalyzer::finalize() {
  orphaned_count_ += open_.size();
  chains_.clear();
  free_chains_.clear();
  open_.clear();
  by_region_.clear();
  pulls_.clear();
  pins_open_.clear();
}

std::string CriticalPathAnalyzer::json() const {
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
