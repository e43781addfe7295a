#include "obs/metrics.hpp"

#include "obs/json.hpp"
#include "obs/lifetimes.hpp"

namespace pinsim::obs {

void MetricsSampler::push_sample(sim::Time boundary) {
  Sample s;
  s.t = boundary;
  // Mid-event, the table still describes the stream before the event.
  const Lifetimes::Counts& open = life_->counts();
  s.pinned_pages = open.pinned_pages;
  s.inflight_pin_jobs = open.pin_jobs;
  s.open_sends = open.sends;
  s.open_pulls = open.pulls;
  s.port_queue_depth = port_queue_depth_;
  s.overlap_misses = overlap_misses_;
  s.retransmits = retransmits_;
  s.copied_bytes = copied_bytes_;
  s.pressure_denials = pressure_denials_;
  s.congestion_drops = congestion_drops_;
  s.uplink_busy_ns = uplink_busy_ns_;
  overlap_misses_ = 0;
  retransmits_ = 0;
  copied_bytes_ = 0;
  pressure_denials_ = 0;
  congestion_drops_ = 0;
  uplink_busy_ns_ = 0;
  dirty_ = false;
  samples_.push_back(s);
  if (samples_.size() >= max_samples_) compact();
}

void MetricsSampler::compact() {
  // Merge adjacent pairs: counters sum over the doubled interval, gauges
  // are step functions so the later edge's value stands.
  std::size_t w = 0;
  for (std::size_t i = 0; i + 1 < samples_.size(); i += 2) {
    Sample m = samples_[i + 1];
    m.overlap_misses += samples_[i].overlap_misses;
    m.retransmits += samples_[i].retransmits;
    m.copied_bytes += samples_[i].copied_bytes;
    m.pressure_denials += samples_[i].pressure_denials;
    m.congestion_drops += samples_[i].congestion_drops;
    m.uplink_busy_ns += samples_[i].uplink_busy_ns;
    samples_[w++] = m;
  }
  if (samples_.size() % 2 != 0) samples_[w++] = samples_.back();
  samples_.resize(w);
  interval_ *= 2;
  ++compactions_;
}

void MetricsSampler::roll_to(sim::Time t) {
  if (!started_) {
    started_ = true;
    // Align the first boundary past the first event so time 0 streams do
    // not emit an empty leading sample.
    next_ = (t / interval_ + 1) * interval_;
    return;
  }
  if (t < next_) return;
  push_sample(next_);
  next_ += interval_;
  if (t >= next_) {
    // Idle gap: every skipped interval is identical (zero counters, carried
    // gauges), so one flat sample at the last boundary before t says it all.
    next_ += ((t - next_) / interval_) * interval_;
    push_sample(next_);
    next_ += interval_;
  }
}

void MetricsSampler::on_event(const Event& e) {
  life_ = e.life;
  roll_to(e.time);
  dirty_ = true;
  switch (e.kind) {
    case EventKind::kOverlapMissSend:
    case EventKind::kOverlapMissRecv:
      ++overlap_misses_;
      break;
    case EventKind::kRetransmit:
    case EventKind::kPullRetry:
      ++retransmits_;
      break;
    case EventKind::kCopyIn:
      copied_bytes_ += e.len;
      break;
    case EventKind::kPressureDeny:
      ++pressure_denials_;
      break;

    // Switch-port gauge: every kNetPortQueue carries the port's absolute
    // depth in `offset`, so the cluster-wide gauge sums the per-port deltas.
    case EventKind::kNetPortQueue: {
      std::uint64_t& d = port_depths_[e.node];
      port_queue_depth_ += e.offset - d;  // unsigned wrap cancels on drain
      d = e.offset;
      break;
    }
    case EventKind::kNetPortTx:
      if (e.pkt != 0) uplink_busy_ns_ += e.offset;
      break;
    case EventKind::kNetCongestionDrop:
      ++congestion_drops_;
      break;

    default:
      break;
  }
}

void MetricsSampler::finalize() {
  if (dirty_) {
    push_sample(next_);
    next_ += interval_;
  }
}

std::string MetricsSampler::json() const {
  drain();
  std::string out = "{";
  out += "\"interval_ns\":" + json_num(interval_);
  out += ",\"compactions\":" +
         json_num(static_cast<std::uint64_t>(compactions_));
  out += ",\"count\":" + json_num(static_cast<std::uint64_t>(samples_.size()));
  const auto column = [&](const char* name, auto get) {
    out += ",\"";
    out += name;
    out += "\":[";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      if (i != 0) out += ",";
      out += json_num(static_cast<std::uint64_t>(get(samples_[i])));
    }
    out += "]";
  };
  column("t_ns", [](const Sample& s) { return s.t; });
  column("pinned_pages", [](const Sample& s) { return s.pinned_pages; });
  column("inflight_pin_jobs",
         [](const Sample& s) { return s.inflight_pin_jobs; });
  column("open_sends", [](const Sample& s) { return s.open_sends; });
  column("open_pulls", [](const Sample& s) { return s.open_pulls; });
  column("overlap_misses", [](const Sample& s) { return s.overlap_misses; });
  column("retransmits", [](const Sample& s) { return s.retransmits; });
  column("copied_bytes", [](const Sample& s) { return s.copied_bytes; });
  column("pressure_denials",
         [](const Sample& s) { return s.pressure_denials; });
  column("port_queue_depth",
         [](const Sample& s) { return s.port_queue_depth; });
  column("congestion_drops",
         [](const Sample& s) { return s.congestion_drops; });
  column("uplink_busy_ns", [](const Sample& s) { return s.uplink_busy_ns; });
  out += "}";
  return out;
}

}  // namespace pinsim::obs
