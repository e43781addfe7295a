#include "obs/latency.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace pinsim::obs {

namespace {

void record_open(sim::HashMap<sim::Time>& open,
                 std::uint64_t k, sim::Time t) {
  open[k] = t;  // a re-post overwrites: latency measured from the last start
}

void record_close(sim::HashMap<sim::Time>& open,
                  std::uint64_t k, sim::Time t, sim::LogHistogram& h) {
  const auto it = open.find(k);
  if (it == open.end()) return;
  h.add(static_cast<double>(t - it->second));
  open.erase(k);
}

std::string histogram_json(const sim::LogHistogram& h) {
  std::string out = "{";
  out += "\"count\":" + json_num(h.count());
  out += ",\"min\":" + json_num(h.min());
  out += ",\"max\":" + json_num(h.max());
  out += ",\"mean\":" + json_num(h.mean());
  out += ",\"p50\":" + json_num(h.p50());
  out += ",\"p95\":" + json_num(h.p95());
  out += ",\"p99\":" + json_num(h.p99());
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& b : h.nonempty_buckets()) {
    if (!first) out += ",";
    first = false;
    out += "{\"lo\":" + json_num(b.lo) + ",\"hi\":" + json_num(b.hi) +
           ",\"count\":" + json_num(b.count) + "}";
  }
  out += "]}";
  return out;
}

void summary_line(std::string& out, const char* what,
                  const sim::LogHistogram& h, const char* unit) {
  if (h.count() == 0) return;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "  %-14s n=%llu p50=%.1f%s p95=%.1f%s p99=%.1f%s max=%.1f%s\n",
                what, static_cast<unsigned long long>(h.count()), h.p50(), unit,
                h.p95(), unit, h.p99(), unit, h.max(), unit);
  out += buf;
}

}  // namespace

void LatencyRecorder::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kPinStart:
      record_open(pin_open_, key(e, e.region), e.time);
      break;
    case EventKind::kPinDone:
      record_close(pin_open_, key(e, e.region), e.time, pin_);
      break;
    case EventKind::kPinFail:
      pin_open_.erase(key(e, e.region));
      break;
    case EventKind::kEagerPost:
    case EventKind::kRndvPost:
      record_open(send_open_, key(e, e.seq), e.time);
      sizes_.add(static_cast<double>(e.len));
      break;
    case EventKind::kSendDone:
      record_close(send_open_, key(e, e.seq), e.time, send_);
      break;
    case EventKind::kSendAbort:
      send_open_.erase(key(e, e.seq));
      break;
    case EventKind::kPullStart:
      record_open(pull_open_, key(e, e.seq), e.time);
      break;
    case EventKind::kRecvDone:
      record_close(pull_open_, key(e, e.seq), e.time, pull_);
      break;
    case EventKind::kRecvAbort:
      pull_open_.erase(key(e, e.seq));
      break;
    default:
      break;
  }
}

std::string LatencyRecorder::summary() const {
  std::string out;
  summary_line(out, "pin (ns)", pin_, "");
  summary_line(out, "send (ns)", send_, "");
  summary_line(out, "pull (ns)", pull_, "");
  summary_line(out, "msg size (B)", sizes_, "");
  if (out.empty()) out = "  (no latency samples)\n";
  return out;
}

std::string LatencyRecorder::json() const {
  std::string out = "{";
  out += "\"pin_latency_ns\":" + histogram_json(pin_);
  out += ",\"send_latency_ns\":" + histogram_json(send_);
  out += ",\"pull_latency_ns\":" + histogram_json(pull_);
  out += ",\"message_size_bytes\":" + histogram_json(sizes_);
  out += "}";
  return out;
}

}  // namespace pinsim::obs
