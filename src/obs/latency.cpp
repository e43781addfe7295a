#include "obs/latency.hpp"

#include <cstdio>

#include "obs/json.hpp"
#include "obs/lifetimes.hpp"

namespace pinsim::obs {

namespace {

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
  const auto since = [&e](sim::Time start) {
    return static_cast<double>(e.time - start);
  };
  switch (e.kind) {
    case EventKind::kPinDone:
      if (const auto* r = e.life->region(chain_key(e.node, e.ep, e.region));
          r != nullptr && r->pinning) {
        pin_.add(since(r->job_start));
      }
      break;
    case EventKind::kEagerPost:
    case EventKind::kRndvPost:
      sizes_.add(static_cast<double>(e.len));
      break;
    case EventKind::kSendDone:
      if (const auto* s = e.life->send(chain_key(e.node, e.ep, e.seq))) {
        send_.add(since(s->open.time));
      }
      break;
    case EventKind::kRecvDone:
      if (const auto* p = e.life->pull(chain_key(e.node, e.ep, e.seq))) {
        pull_.add(since(p->open.time));
      }
      break;
    default:
      break;
  }
}

std::string LatencyRecorder::summary() const {
  drain();
  std::string out;
  summary_line(out, "pin (ns)", pin_, "");
  summary_line(out, "send (ns)", send_, "");
  summary_line(out, "pull (ns)", pull_, "");
  summary_line(out, "msg size (B)", sizes_, "");
  if (out.empty()) out = "  (no latency samples)\n";
  return out;
}

std::string LatencyRecorder::json() const {
  drain();
  std::string out = "{";
  out += "\"pin_latency_ns\":" + histogram_json(pin_);
  out += ",\"send_latency_ns\":" + histogram_json(send_);
  out += ",\"pull_latency_ns\":" + histogram_json(pull_);
  out += ",\"message_size_bytes\":" + histogram_json(sizes_);
  out += "}";
  return out;
}

}  // namespace pinsim::obs
