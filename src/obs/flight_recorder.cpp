#include "obs/flight_recorder.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace pinsim::obs {

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config cfg)
    : cap_(cfg.capacity < 16 ? 16 : cfg.capacity),
      max_dumps_(cfg.max_dumps),
      dump_prefix_(std::move(cfg.dump_prefix)),
      expected_aborts_(cfg.expected_aborts) {
  ring_.resize(cap_);
}

// Per-kind compaction: keep the three argument words a post-mortem reader
// actually needs, per the field documentation on EventKind. Exhaustive so
// pinlint D5 forces an update when a kind is added.
FlightRecorder::CompactEvent FlightRecorder::compact_encode(
    const Event& e) noexcept {
  CompactEvent ce;
  ce.time = e.time;
  ce.kind = e.kind;
  ce.node = e.node;
  ce.ep = e.ep;
  switch (e.kind) {
    case EventKind::kPktTx:
    case EventKind::kPktRx:
    case EventKind::kPktChecksumDrop:
    case EventKind::kPktMalformed:
      ce.a = e.peer;  // remote node
      ce.b = e.pkt;   // packet type
      ce.c = e.len;
      break;
    case EventKind::kEagerPost:
    case EventKind::kRndvPost:
    case EventKind::kSendDone:
    case EventKind::kSendAbort:
      ce.a = e.seq;
      ce.b = e.peer;
      ce.c = e.len;  // cause code for kSendAbort
      break;
    case EventKind::kRetransmit:
      ce.a = e.seq;
      ce.b = e.peer;
      ce.c = e.offset;  // retry count
      break;
    case EventKind::kPullStart:
    case EventKind::kPullRetry:
    case EventKind::kRecvDone:
    case EventKind::kRecvAbort:
      ce.a = e.seq;     // pull handle
      ce.b = e.offset;  // sender seq
      ce.c = e.len;     // cause code for kRecvAbort
      break;
    case EventKind::kPullBlockReq:
    case EventKind::kCopyIn:
    case EventKind::kCopyOut:
      ce.a = e.region;
      ce.b = e.offset;
      ce.c = e.len;
      break;
    case EventKind::kOverlapMissSend:
    case EventKind::kOverlapMissRecv:
      ce.a = e.region;
      ce.b = e.offset;
      ce.c = e.len;
      break;
    case EventKind::kDmaCopy:
      ce.a = e.len;  // bytes copied
      break;
    case EventKind::kPinReset:
    case EventKind::kPinStart:
    case EventKind::kPinPages:
    case EventKind::kPinShrink:
    case EventKind::kPinRetry:
    case EventKind::kPinRestart:
    case EventKind::kPinDone:
    case EventKind::kPinFail:
    case EventKind::kPinShed:
    case EventKind::kPinUnpin:
      ce.a = e.region;
      ce.b = e.offset;  // pinned frontier, pages
      ce.c = e.len;     // total pages
      break;
    case EventKind::kPinInvalidate:
      ce.a = e.region;
      ce.b = e.seq;  // invalidation cut slot
      ce.c = e.len;
      break;
    case EventKind::kPressureDeny:
    case EventKind::kPressureSweep:
    case EventKind::kPressureMigrate:
    case EventKind::kPressureCow:
      ce.a = e.region;
      ce.b = e.offset;
      ce.c = e.len;
      break;
    case EventKind::kFaultDrop:
    case EventKind::kFaultCorrupt:
    case EventKind::kFaultDup:
    case EventKind::kFaultReorder:
      ce.a = e.peer;
      ce.b = e.pkt;
      ce.c = e.len;
      break;
    case EventKind::kLifeCrash:
      ce.a = e.offset;  // pinned pages after sweep
      ce.b = e.len;     // expected baseline
      ce.c = e.seq;     // dying epoch
      break;
    case EventKind::kLifeRestart:
    case EventKind::kLifeFence:
      ce.a = e.seq;  // epoch
      break;
    case EventKind::kLifeLinkDown:
    case EventKind::kLifeLinkUp:
      break;  // node alone identifies the port
    case EventKind::kLifeNicReset:
      ce.a = e.len;  // tx frames dropped
      break;
    case EventKind::kLifePeerDead:
    case EventKind::kLifePeerAlive:
      ce.a = e.peer;
      break;
    case EventKind::kNetPortQueue:
      ce.a = e.pkt;     // 1 on uplink ports
      ce.b = e.offset;  // depth
      ce.c = e.len;     // capacity
      break;
    case EventKind::kNetPortTx:
      ce.a = e.pkt;
      ce.b = e.offset;  // serialization ns
      ce.c = e.len;     // wire bytes
      break;
    case EventKind::kNetCongestionDrop:
      ce.a = e.pkt;
      ce.b = e.peer;  // frame destination
      ce.c = e.len;   // wire bytes
      break;
  }
  return ce;
}

// Argument names matching compact_encode's per-kind slot choices, for the
// rendered JSON. Exhaustive so pinlint D5 keeps it in lock-step with the
// encoder above.
void FlightRecorder::compact_arg_names(EventKind k, const char*& a,
                                       const char*& b,
                                       const char*& c) noexcept {
  a = b = c = nullptr;
  switch (k) {
    case EventKind::kPktTx:
    case EventKind::kPktRx:
    case EventKind::kPktChecksumDrop:
    case EventKind::kPktMalformed:
      a = "peer";
      b = "pkt";
      c = "len";
      break;
    case EventKind::kEagerPost:
    case EventKind::kRndvPost:
    case EventKind::kSendDone:
      a = "seq";
      b = "peer";
      c = "len";
      break;
    case EventKind::kSendAbort:
      a = "seq";
      b = "peer";
      c = "cause";
      break;
    case EventKind::kRetransmit:
      a = "seq";
      b = "peer";
      c = "retries";
      break;
    case EventKind::kPullStart:
    case EventKind::kPullRetry:
    case EventKind::kRecvDone:
      a = "handle";
      b = "sender_seq";
      c = "len";
      break;
    case EventKind::kRecvAbort:
      a = "handle";
      b = "sender_seq";
      c = "cause";
      break;
    case EventKind::kPullBlockReq:
    case EventKind::kCopyIn:
    case EventKind::kCopyOut:
    case EventKind::kOverlapMissSend:
    case EventKind::kOverlapMissRecv:
      a = "region";
      b = "offset";
      c = "len";
      break;
    case EventKind::kDmaCopy:
      a = "bytes";
      break;
    case EventKind::kPinReset:
    case EventKind::kPinStart:
    case EventKind::kPinPages:
    case EventKind::kPinShrink:
    case EventKind::kPinRetry:
    case EventKind::kPinRestart:
    case EventKind::kPinDone:
    case EventKind::kPinFail:
    case EventKind::kPinShed:
    case EventKind::kPinUnpin:
      a = "region";
      b = "frontier_pages";
      c = "total_pages";
      break;
    case EventKind::kPinInvalidate:
      a = "region";
      b = "cut_slot";
      c = "total_pages";
      break;
    case EventKind::kPressureDeny:
    case EventKind::kPressureSweep:
    case EventKind::kPressureMigrate:
    case EventKind::kPressureCow:
      a = "region";
      b = "offset";
      c = "len";
      break;
    case EventKind::kFaultDrop:
    case EventKind::kFaultCorrupt:
    case EventKind::kFaultDup:
    case EventKind::kFaultReorder:
      a = "peer";
      b = "pkt";
      c = "len";
      break;
    case EventKind::kLifeCrash:
      a = "pinned_after_sweep";
      b = "baseline";
      c = "epoch";
      break;
    case EventKind::kLifeRestart:
    case EventKind::kLifeFence:
      a = "epoch";
      break;
    case EventKind::kLifeLinkDown:
    case EventKind::kLifeLinkUp:
      break;
    case EventKind::kLifeNicReset:
      a = "tx_dropped";
      break;
    case EventKind::kLifePeerDead:
    case EventKind::kLifePeerAlive:
      a = "peer";
      break;
    case EventKind::kNetPortQueue:
      a = "uplink";
      b = "depth";
      c = "capacity";
      break;
    case EventKind::kNetPortTx:
      a = "uplink";
      b = "serialization_ns";
      c = "wire_bytes";
      break;
    case EventKind::kNetCongestionDrop:
      a = "uplink";
      b = "dst";
      c = "wire_bytes";
      break;
  }
}

void FlightRecorder::on_event(const Event& e) {
  if (held_ == cap_) ++dropped_;
  ring_[head_] = compact_encode(e);
  if (++head_ == cap_) head_ = 0;
  if (held_ < cap_) ++held_;
  ++recorded_;
  const bool abort = e.kind == EventKind::kSendAbort ||
                     e.kind == EventKind::kRecvAbort;
  if (dumping_ || (!abort && e.kind != EventKind::kLifePeerDead)) return;
  const std::uint64_t cause = abort ? e.len : kPeerDeadCause;
  if (cause < 32 && (expected_aborts_ >> cause & 1u) != 0) return;
  std::string reason = "auto: ";
  reason += event_kind_name(e.kind);
  dump(reason);
}

void FlightRecorder::for_each_held(
    const std::function<void(const CompactEvent&)>& fn) const {
  const std::size_t start = held_ == cap_ ? head_ : 0;
  for (std::size_t i = 0; i < held_; ++i) {
    fn(ring_[(start + i) % cap_]);
  }
}

void FlightRecorder::append_entry_json(std::string& out,
                                       const CompactEvent& ce) const {
  const char* an = nullptr;
  const char* bn = nullptr;
  const char* cn = nullptr;
  compact_arg_names(ce.kind, an, bn, cn);
  out += "{\"name\":" + json_str(event_kind_name(ce.kind));
  out += ",\"ph\":\"i\",\"s\":\"t\"";
  // Chrome trace ts is in microseconds; keep ns precision as a fraction.
  out += ",\"ts\":" + json_num(static_cast<double>(ce.time) / 1000.0);
  out += ",\"pid\":" + json_num(static_cast<std::uint64_t>(ce.node));
  out += ",\"tid\":" + json_num(static_cast<std::uint64_t>(ce.ep));
  out += ",\"args\":{\"t_ns\":" + json_num(static_cast<std::uint64_t>(ce.time));
  if (an != nullptr) {
    out += ",";
    out += json_str(an) + ":" + json_num(ce.a);
  }
  if (bn != nullptr) {
    out += ",";
    out += json_str(bn) + ":" + json_num(ce.b);
  }
  if (cn != nullptr) {
    out += ",";
    out += json_str(cn) + ":" + json_num(ce.c);
  }
  out += "}}";
}

std::string FlightRecorder::render(std::string_view reason) const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for_each_held([&](const CompactEvent& ce) {
    if (!first) out += ",";
    first = false;
    append_entry_json(out, ce);
  });
  out += "],\"metadata\":{\"reason\":" + json_str(reason);
  out += ",\"recorded\":" + json_num(recorded_);
  out += ",\"dropped\":" + json_num(dropped_);
  out += ",\"window\":" + json_num(static_cast<std::uint64_t>(held_));
  out += "}}";
  return out;
}

std::string FlightRecorder::digest(std::string_view reason,
                                   std::size_t tail) const {
  std::string out = "flight recorder: ";
  out += reason;
  out += "\n  window: last " + json_num(static_cast<std::uint64_t>(held_)) +
         " of " + json_num(recorded_) + " events\n";
  std::vector<CompactEvent> last;
  last.reserve(held_);
  for_each_held([&](const CompactEvent& ce) { last.push_back(ce); });
  const std::size_t begin = last.size() > tail ? last.size() - tail : 0;
  for (std::size_t i = begin; i < last.size(); ++i) {
    const CompactEvent& ce = last[i];
    const char* an = nullptr;
    const char* bn = nullptr;
    const char* cn = nullptr;
    compact_arg_names(ce.kind, an, bn, cn);
    out += "  t=" + json_num(static_cast<std::uint64_t>(ce.time));
    out += " n" + json_num(static_cast<std::uint64_t>(ce.node));
    out += "/e" + json_num(static_cast<std::uint64_t>(ce.ep));
    out += " ";
    out += event_kind_name(ce.kind);
    if (an != nullptr) out += std::string(" ") + an + "=" + json_num(ce.a);
    if (bn != nullptr) out += std::string(" ") + bn + "=" + json_num(ce.b);
    if (cn != nullptr) out += std::string(" ") + cn + "=" + json_num(ce.c);
    out += "\n";
  }
  return out;
}

std::string FlightRecorder::dump(std::string_view reason) {
  ++dump_attempts_;
  if (dump_attempts_ > max_dumps_) return "";
  dumping_ = true;
  const std::string path =
      dump_prefix_ + "-" + json_num(dump_attempts_) + ".flight.json";
  const std::string body = render(reason);
  std::fputs(digest(reason).c_str(), stderr);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write flight dump to %s\n",
                 path.c_str());
    dumping_ = false;
    return "";
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  dumping_ = false;
  if (!ok) {
    std::fprintf(stderr, "obs: short write on %s\n", path.c_str());
    return "";
  }
  std::fprintf(stderr, "  dump: %s\n", path.c_str());
  return path;
}

std::string FlightRecorder::json() const {
  std::string out = "{\"capacity\":" +
                    json_num(static_cast<std::uint64_t>(cap_));
  out += ",\"recorded\":" + json_num(recorded_);
  out += ",\"dropped\":" + json_num(dropped_);
  out += ",\"dump_attempts\":" + json_num(dump_attempts_);
  out += "}";
  return out;
}

}  // namespace pinsim::obs
