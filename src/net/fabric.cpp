#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/nic.hpp"

namespace pinsim::net {

Fabric::Fabric(sim::Engine& eng, Config cfg)
    : eng_(eng), cfg_(cfg), faults_(cfg.seed ^ 0xfa017u) {
  if (cfg_.bandwidth_gbps <= 0.0) {
    throw std::invalid_argument("fabric bandwidth must be positive");
  }
}

NodeId Fabric::attach(Nic* nic) {
  assert(nic != nullptr);
  nics_.push_back(nic);
  ingress_free_.push_back(0);
  port_up_.push_back(1);
  return static_cast<NodeId>(nics_.size() - 1);
}

void Fabric::set_port_up(NodeId port, bool up) {
  if (port >= port_up_.size()) return;
  if ((port_up_[port] != 0) == up) return;
  port_up_[port] = up ? 1 : 0;
  obs::Event e;
  e.kind = up ? obs::EventKind::kLifeLinkUp : obs::EventKind::kLifeLinkDown;
  e.node = port;
  emit(e);
}

sim::Time Fabric::serialization_time(std::size_t wire_bytes) const {
  // Gbit/s -> bytes/ns: 10 Gb/s == 1.25 bytes per ns.
  const double bytes_per_ns = cfg_.bandwidth_gbps / 8.0;
  return static_cast<sim::Time>(static_cast<double>(wire_bytes) /
                                    bytes_per_ns +
                                0.5);
}

bool Fabric::admit(Frame& frame, FaultInjector::Verdict& verdict) {
  if (frame.dst >= nics_.size()) {
    throw std::invalid_argument("frame to unknown node");
  }
  if (!port_up(frame.dst) ||
      (frame.src < port_up_.size() && !port_up(frame.src))) {
    // A downed link loses frames silently, exactly like wire loss: the
    // retransmission machinery (or the watchdog, if it stays down) recovers.
    ++fault_dropped_;
    ++link_down_drops_;
    return false;
  }
  if (faults_.enabled()) verdict = faults_.inspect(frame);
  if (verdict.drop) {
    ++fault_dropped_;
    return false;
  }
  return true;
}

void Fabric::transmit(Frame frame) {
  FaultInjector::Verdict verdict;
  if (!admit(frame, verdict)) return;
  if (verdict.duplicate) deliver_frame(frame, 0);
  deliver_frame(std::move(frame), verdict.extra_latency);
}

void Fabric::deliver_frame(Frame frame, sim::Time extra_latency) {
  const sim::Time wire = serialization_time(frame.wire_bytes());
  sim::Time done;
  if (extra_latency == 0) {
    // The frame starts arriving after the one-way latency, but the ingress
    // port clocks frames in one at a time at line rate.
    const sim::Time start =
        std::max(eng_.now() + cfg_.latency, ingress_free_[frame.dst]);
    done = start + wire;
    ingress_free_[frame.dst] = done;
  } else {
    // Jittered (reordered) frame: model it as arriving over a different
    // switch path. It does not reserve the ingress port ahead of time —
    // otherwise one long jitter would stall every frame queued behind it.
    done = eng_.now() + cfg_.latency + extra_latency + wire;
  }
  ++delivered_;
  eng_.schedule_at(
      done,
      // pinlint: allow(D7: the fabric is the physical network, constructed
      // before and destroyed after the engine drains; dead destination
      // ports are fenced by the port_up() check below)
      [this, f = std::move(frame)]() mutable {
        if (!port_up(f.dst)) {
          // The link dropped while the frame was in flight.
          --delivered_;
          ++fault_dropped_;
          ++link_down_drops_;
          return;
        }
        nics_[f.dst]->deliver(std::move(f));
      },
      {"net", "fabric_deliver"});
}

void Fabric::deliver_after(Frame frame, sim::Time propagation) {
  ++delivered_;
  eng_.schedule_after(
      propagation,
      // pinlint: allow(D7: the fabric is the physical network, constructed
      // before and destroyed after the engine drains; dead destination
      // ports are fenced by the port_up() check below)
      [this, f = std::move(frame)]() mutable {
        if (!port_up(f.dst)) {
          --delivered_;
          ++fault_dropped_;
          ++link_down_drops_;
          return;
        }
        nics_[f.dst]->deliver(std::move(f));
      },
      {"net", "fabric_propagate"});
}

}  // namespace pinsim::net
