#include "net/switch_port.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pinsim::net {

SwitchPort::SwitchPort(sim::Engine& eng, Config cfg) : eng_(eng), cfg_(cfg) {
  if (cfg_.bandwidth_gbps <= 0.0) {
    throw std::invalid_argument("switch port bandwidth must be positive");
  }
  if (cfg_.queue_frames == 0) {
    throw std::invalid_argument("switch port queue must hold >= 1 frame");
  }
}

sim::Time SwitchPort::serialization_time(std::size_t wire_bytes) const {
  const double bytes_per_ns = cfg_.bandwidth_gbps / 8.0;
  return static_cast<sim::Time>(static_cast<double>(wire_bytes) /
                                    bytes_per_ns +
                                0.5);
}

bool SwitchPort::offer(Frame frame) {
  if (depth() >= cfg_.queue_frames) {
    ++stats_.overflow_drops;
    return false;
  }
  queue_.push_back(std::move(frame));
  ++stats_.enqueued;
  stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth());
  if (!busy_) pump();
  return true;
}

void SwitchPort::pump() {
  if (busy_ || queue_.empty()) return;
  Frame frame = queue_.pop_front();
  busy_ = true;
  const sim::Time wire = serialization_time(frame.wire_bytes());
  stats_.busy += wire;
  eng_.schedule_after(
      wire,
      // pinlint: allow(D7: switch ports are owned by the Topology, which
      // is network hardware constructed before and destroyed after the
      // engine drains)
      [this, wire, f = std::move(frame)]() mutable {
        busy_ = false;
        ++stats_.drained;
        if (drain_) drain_(std::move(f), wire);
        pump();
      },
      {"net", "port_drain"});
}

}  // namespace pinsim::net
