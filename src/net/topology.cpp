#include "net/topology.hpp"

#include <stdexcept>
#include <utility>

#include "net/nic.hpp"

namespace pinsim::net {

namespace {

std::uint32_t uplink_port_id(const Topology::Config& topo, std::size_t rack,
                             std::size_t i) noexcept {
  return Topology::kUplinkPortBase +
         static_cast<std::uint32_t>(rack * topo.uplinks_per_rack + i);
}

}  // namespace

Topology::Topology(sim::Engine& eng, Config cfg)
    : Fabric(eng, cfg.link), topo_(cfg) {
  if (topo_.nodes_per_rack == 0) {
    throw std::invalid_argument("topology needs >= 1 node per rack");
  }
  if (topo_.uplinks_per_rack == 0) {
    throw std::invalid_argument("topology needs >= 1 uplink per rack");
  }
}

NodeId Topology::attach(Nic* nic) {
  const NodeId id = Fabric::attach(nic);
  SwitchPort::Config pc;
  pc.bandwidth_gbps = cfg_.bandwidth_gbps;
  pc.queue_frames = topo_.downlink_queue_frames;
  auto port = std::make_unique<SwitchPort>(eng_, pc);
  SwitchPort* raw = port.get();
  port->set_drain_handler([this, raw, id](Frame&& f, sim::Time wire) {
    emit_port_tx(id, /*is_uplink=*/false, wire, f.wire_bytes());
    emit_queue_depth(*raw, id, /*is_uplink=*/false);
    deliver_after(std::move(f), cfg_.latency);
  });
  downlinks_.push_back(std::move(port));
  ensure_rack(rack_of(id));
  return id;
}

void Topology::ensure_rack(std::size_t rack) {
  while (racks_.size() <= rack) {
    const std::size_t r = racks_.size();
    Rack rk;
    for (std::size_t i = 0; i < topo_.uplinks_per_rack; ++i) {
      SwitchPort::Config pc;
      pc.bandwidth_gbps = cfg_.bandwidth_gbps;
      pc.queue_frames = topo_.uplink_queue_frames;
      auto up = std::make_unique<SwitchPort>(eng_, pc);
      SwitchPort* raw = up.get();
      const std::uint32_t pid = uplink_port_id(topo_, r, i);
      // An uplink drain lands the frame at the destination rack's switch:
      // one more hop, then the destination's downlink queue.
      up->set_drain_handler([this, raw, pid](Frame&& f, sim::Time wire) {
        emit_port_tx(pid, /*is_uplink=*/true, wire, f.wire_bytes());
        emit_queue_depth(*raw, pid, /*is_uplink=*/true);
        eng_.schedule_after(
            topo_.switch_hop_latency,
            // pinlint: allow(D7: the topology is network hardware that
            // outlives the engine; per-port faults drop in offer_or_drop)
            [this, f = std::move(f)]() mutable {
              offer_or_drop(*downlinks_[f.dst], f.dst,
                            /*is_uplink=*/false, std::move(f));
            },
            {"net", "switch_hop"});
      });
      rk.uplinks.push_back(std::move(up));
    }
    racks_.push_back(std::move(rk));
  }
}

void Topology::transmit(Frame frame) {
  FaultInjector::Verdict verdict;
  if (!admit(frame, verdict)) return;
  if (verdict.duplicate) route(frame, 0);
  route(std::move(frame), verdict.extra_latency);
}

void Topology::route(Frame frame, sim::Time extra_latency) {
  const std::size_t src_rack = rack_of(frame.src);
  const std::size_t dst_rack = rack_of(frame.dst);
  if (extra_latency > 0) {
    // Reorder-jittered frame: it took a different path through the switches
    // and does not contend for the egress queues (mirrors the base class's
    // ingress bypass). Charge the full path latency plus its wire time.
    const std::size_t hops = (src_rack == dst_rack) ? 1 : 2;
    const sim::Time wire = serialization_time(frame.wire_bytes());
    deliver_after(std::move(frame),
                  static_cast<sim::Time>(hops) * topo_.switch_hop_latency +
                      extra_latency + wire + cfg_.latency);
    return;
  }
  if (src_rack == dst_rack) {
    eng_.schedule_after(
        topo_.switch_hop_latency,
        // pinlint: allow(D7: the topology is network hardware that
        // outlives the engine; per-port faults drop in offer_or_drop)
        [this, f = std::move(frame)]() mutable {
          offer_or_drop(*downlinks_[f.dst], f.dst,
                        /*is_uplink=*/false, std::move(f));
        },
        {"net", "switch_hop"});
    return;
  }
  // Cross-rack: the source's own uplink (see class comment).
  const std::size_t i = uplink_index(frame.src);
  SwitchPort* up = racks_[src_rack].uplinks[i].get();
  const std::uint32_t pid = uplink_port_id(topo_, src_rack, i);
  eng_.schedule_after(
      topo_.switch_hop_latency,
      // pinlint: allow(D7: the topology owns its uplink ports and both are
      // network hardware that outlives the engine; racks_ never shrinks)
      [this, up, pid, f = std::move(frame)]() mutable {
        const bool stranded = up->depth() > 0 && sibling_idle(rack_of(f.src));
        if (offer_or_drop(*up, pid, /*is_uplink=*/true, std::move(f)) &&
            stranded) {
          ++uplink_stranded_;
        }
      },
      {"net", "switch_hop"});
}

bool Topology::sibling_idle(std::size_t rack) const {
  for (const auto& up : racks_[rack].uplinks) {
    if (up->depth() == 0) return true;
  }
  return false;
}

bool Topology::offer_or_drop(SwitchPort& port, std::uint32_t port_id,
                             bool is_uplink, Frame frame) {
  const std::uint32_t dst = frame.dst;
  const std::uint64_t bytes = frame.wire_bytes();
  if (!port.offer(std::move(frame))) {
    ++congestion_dropped_;
    if (bus_ != nullptr && bus_->active()) {
      obs::Event e;
      e.kind = obs::EventKind::kNetCongestionDrop;
      e.node = port_id;
      e.pkt = is_uplink ? 1 : 0;
      e.peer = dst;
      e.len = bytes;
      bus_->emit(e);
    }
    return false;
  }
  emit_queue_depth(port, port_id, is_uplink);
  return true;
}

void Topology::emit_queue_depth(const SwitchPort& port, std::uint32_t port_id,
                                bool is_uplink) {
  if (bus_ == nullptr || !bus_->active()) return;
  obs::Event e;
  e.kind = obs::EventKind::kNetPortQueue;
  e.node = port_id;
  e.pkt = is_uplink ? 1 : 0;
  e.offset = port.depth();
  e.len = port.capacity();
  bus_->emit(e);
}

void Topology::emit_port_tx(std::uint32_t port_id, bool is_uplink,
                            sim::Time wire, std::size_t wire_bytes) {
  if (bus_ == nullptr || !bus_->active()) return;
  obs::Event e;
  e.kind = obs::EventKind::kNetPortTx;
  e.node = port_id;
  e.pkt = is_uplink ? 1 : 0;
  e.offset = static_cast<std::uint64_t>(wire);
  e.len = wire_bytes;
  bus_->emit(e);
}

sim::Time Topology::uplink_busy_time() const {
  sim::Time total = 0;
  for (const Rack& rk : racks_) {
    for (const auto& up : rk.uplinks) total += up->stats().busy;
  }
  return total;
}

}  // namespace pinsim::net
