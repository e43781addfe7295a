#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/switch_port.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

/// N-node rack topology: the cluster-scale generalization of the
/// point-to-point `Fabric`. Nodes attach in rack-major order
/// (`nodes_per_rack` consecutive node ids per rack); each rack has one
/// switch with a bounded-FIFO egress `SwitchPort` per downlink (toward each
/// node) and `uplinks_per_rack` shared uplink ports toward the spine.
///
/// Routing is deterministic:
///  * intra-rack: src NIC -> [hop] -> dst downlink queue -> [link] -> dst;
///  * cross-rack: src NIC -> [hop] -> shared uplink queue of the *source*
///    rack -> [hop] -> dst rack's downlink queue -> [link] -> dst,
/// where [hop] is `switch_hop_latency` and [link] the base `Config::latency`.
/// The uplink is the source's index in its rack modulo `uplinks_per_rack`
/// (`uplink_index`): a host's frames always take one path, so they never
/// reorder, and no uplink carries the egress of more than
/// ceil(nodes_per_rack / uplinks_per_rack) NICs, whatever the traffic
/// matrix. A hash of (src, dst) could not promise that: XOR-paired rounds
/// (the pairwise-exchange schedule of collectives) give every cross-rack
/// pair h -> h ^ mask the same `src ^ dst`, so one uplink would carry the
/// whole rack while its siblings idle. `uplink_stranded()` counts frames
/// that queue at a busy uplink while a sibling is idle.
/// The downlink queue replaces the base class's ingress serialization — it
/// is the same wire — so several senders blasting one receiver still share
/// its line rate, now with an explicit bounded buffer in front of it:
/// incast past the buffer is *congestion* loss, counted separately from
/// fault-injected loss (`congestion_dropped()` vs `fault_dropped()`).
///
/// Fault admission (link state, FaultInjector) is shared with the base
/// class, so fault plans compose with congestion unchanged.
/// Reorder-jittered frames model a different switch path and bypass the
/// queues, exactly like the base class's ingress bypass.
class Topology : public Fabric {
 public:
  /// Uplink port ids live here so they can never collide with downlink
  /// ports (which reuse node ids) in events and stats.
  static constexpr std::uint32_t kUplinkPortBase = 0x10000;

  struct Config {
    Fabric::Config link;             // per-port line rate, latency, faults
    std::size_t nodes_per_rack = 8;
    std::size_t uplinks_per_rack = 2;
    std::size_t downlink_queue_frames = 64;
    std::size_t uplink_queue_frames = 128;
    sim::Time switch_hop_latency = 500;  // ns per switch traversal
  };

  Topology(sim::Engine& eng, Config cfg);

  /// Registers a NIC, assigns its node id and creates the node's downlink
  /// egress port (and its rack's uplink ports on first contact).
  NodeId attach(Nic* nic) override;

  /// Routes the frame through the rack switches (see class comment).
  void transmit(Frame frame) override;

  [[nodiscard]] std::size_t rack_of(NodeId node) const noexcept {
    return node / topo_.nodes_per_rack;
  }
  /// The source rack's uplink a cross-rack frame from `src` takes.
  [[nodiscard]] std::size_t uplink_index(NodeId src) const noexcept {
    return src % topo_.nodes_per_rack % topo_.uplinks_per_rack;
  }
  [[nodiscard]] std::size_t rack_count() const noexcept {
    return racks_.size();
  }
  [[nodiscard]] const Config& topology_config() const noexcept {
    return topo_;
  }

  /// Per-port introspection (tests, reports). Downlinks are indexed by node
  /// id; uplinks by (rack, uplink index).
  [[nodiscard]] const SwitchPort& downlink(NodeId node) const {
    return *downlinks_.at(node);
  }
  [[nodiscard]] const SwitchPort& uplink(std::size_t rack,
                                         std::size_t i) const {
    return *racks_.at(rack).uplinks.at(i);
  }

  /// Aggregate time the uplink ports spent serializing frames — the
  /// utilization numerator for the shared spine links.
  [[nodiscard]] sim::Time uplink_busy_time() const;

 private:
  struct Rack {
    std::vector<std::unique_ptr<SwitchPort>> uplinks;
  };

  void ensure_rack(std::size_t rack);
  /// True when some uplink of `rack` holds no frame. Asked only about a
  /// busy uplink's rack, so the idle one is a sibling.
  [[nodiscard]] bool sibling_idle(std::size_t rack) const;
  /// Admission already happened; schedules the switch hops and queue
  /// traversals for one (possibly duplicated) frame.
  void route(Frame frame, sim::Time extra_latency);
  /// Enqueues on `port`; on overflow counts a congestion drop and emits
  /// kNetCongestionDrop. Emits the post-transition queue-depth event.
  /// True when the port took the frame.
  bool offer_or_drop(SwitchPort& port, std::uint32_t port_id, bool is_uplink,
                     Frame frame);
  void emit_queue_depth(const SwitchPort& port, std::uint32_t port_id,
                        bool is_uplink);
  void emit_port_tx(std::uint32_t port_id, bool is_uplink, sim::Time wire,
                    std::size_t wire_bytes);

  Config topo_;
  std::vector<std::unique_ptr<SwitchPort>> downlinks_;  // one per node
  std::vector<Rack> racks_;
};

}  // namespace pinsim::net
