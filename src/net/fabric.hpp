#pragma once

#include <cstdint>
#include <vector>

#include "net/fault.hpp"
#include "net/frame.hpp"
#include "obs/bus.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

class Nic;

/// The switched Ethernet fabric connecting hosts. Full duplex, one port per
/// NIC; a fixed one-way latency models propagation plus the cut-through
/// switch. The built-in FaultInjector (see net/fault.hpp) exercises the MXoE
/// retransmission machinery under loss, bursty loss, corruption, duplication
/// and reordering.
///
/// Delivery into a port is serialized at the port's line rate, so several
/// senders blasting one receiver share its 10 Gb/s ingress — which is what
/// makes the shared-NIC experiments (Table 2 runs several processes per
/// node) behave like the real thing.
///
/// The base class is the paper's two-host cut-through switch; `Topology`
/// (net/topology.hpp) overrides `transmit`/`attach` to route frames through
/// explicit rack switches with bounded per-port egress queues. Loss is
/// attributed by cause: `fault_dropped()` counts injected/link loss,
/// `congestion_dropped()` counts queue-overflow loss (always zero here — the
/// ideal switch has infinite buffers; only a Topology increments it), and
/// `uplink_stranded()` counts frames that queued behind a busy uplink while
/// a sibling uplink sat idle (always zero here too: no uplinks).
class Fabric {
 public:
  struct Config {
    double bandwidth_gbps = 10.0;  // line rate per port, 10G Ethernet
    sim::Time latency = 2 * sim::kMicrosecond;  // NIC->NIC one-way
    std::uint64_t seed = 0xfab51c;              // seeds the FaultInjector
  };

  Fabric(sim::Engine& eng, Config cfg);
  explicit Fabric(sim::Engine& eng) : Fabric(eng, Config()) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  virtual ~Fabric() {
    if (bus_ != nullptr) bus_->unregister_emitter();
  }

  /// Registers a NIC and assigns its node id.
  virtual NodeId attach(Nic* nic);

  /// Hands a fully-serialized frame to the fabric (called by the sending NIC
  /// when egress serialization completes). Applies latency, loss and ingress
  /// port sharing, then delivers to the destination NIC.
  virtual void transmit(Frame frame);

  /// Time to clock `bytes` onto a port at line rate.
  [[nodiscard]] sim::Time serialization_time(std::size_t wire_bytes) const;

  [[nodiscard]] sim::Time latency() const noexcept { return cfg_.latency; }
  [[nodiscard]] std::uint64_t frames_delivered() const noexcept {
    return delivered_;
  }
  /// All losses regardless of cause (fault + congestion).
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return fault_dropped_ + congestion_dropped_;
  }
  /// Fault-attributed loss: injected drops, random loss, downed links.
  [[nodiscard]] std::uint64_t fault_dropped() const noexcept {
    return fault_dropped_;
  }
  /// Congestion-attributed loss: bounded egress queues overflowing under
  /// incast. The ideal point-to-point fabric never congests.
  [[nodiscard]] std::uint64_t congestion_dropped() const noexcept {
    return congestion_dropped_;
  }
  /// Frames that queued at a busy uplink while a sibling uplink of the same
  /// rack was idle: the load imbalance of the uplink choice, not a loss.
  [[nodiscard]] std::uint64_t uplink_stranded() const noexcept {
    return uplink_stranded_;
  }

  /// The fabric's fault-injection layer. Configure plans on it directly; it
  /// is seeded from Config::seed so runs stay reproducible.
  [[nodiscard]] FaultInjector& faults() noexcept { return faults_; }

  /// Forces a port administratively down (link flap injection): frames to
  /// or from a down port are dropped at the switch, including frames
  /// already past the sender's NIC. Ports start (and new attaches arrive)
  /// up; bringing a port down twice is idempotent.
  void set_port_up(NodeId port, bool up);
  [[nodiscard]] bool port_up(NodeId port) const {
    return port >= port_up_.size() || port_up_[port] != 0;
  }
  [[nodiscard]] std::uint64_t link_down_drops() const noexcept {
    return link_down_drops_;
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nics_.size();
  }

  /// Lifecycle-event emission point (kLifeLinkDown/Up, and kLifeNicReset
  /// for the NICs attached here); optional. The fabric registers with the
  /// bus's teardown-order guard.
  void set_bus(obs::Bus* bus) noexcept {
    if (bus_ == bus) return;
    if (bus_ != nullptr) bus_->unregister_emitter();
    if (bus != nullptr) bus->register_emitter();
    bus_ = bus;
  }

  /// Emits a lifecycle event on the attached bus; a no-op without one.
  void emit(const obs::Event& e) const {
    if (bus_ != nullptr && bus_->active()) bus_->emit(e);
  }

 protected:
  /// The shared admission pipeline: administrative link state, then the
  /// fault injector (which may corrupt the frame in place). Returns false
  /// when the frame was consumed (dropped and accounted); otherwise fills
  /// `verdict` with the duplicate/extra-latency decisions the caller must
  /// honour.
  bool admit(Frame& frame, FaultInjector::Verdict& verdict);

  /// Applies latency/ingress accounting and hands the frame to the NIC.
  void deliver_frame(Frame frame, sim::Time extra_latency);

  /// Final-hop delivery for routed (Topology) frames: the egress queue
  /// already serialized the frame toward `frame.dst`, so this only models
  /// the remaining propagation delay and the in-flight link-down loss.
  void deliver_after(Frame frame, sim::Time propagation);

  sim::Engine& eng_;
  Config cfg_;
  std::vector<Nic*> nics_;
  std::vector<sim::Time> ingress_free_;  // per-port ingress availability
  std::vector<std::uint8_t> port_up_;    // administrative link state
  FaultInjector faults_;
  obs::Bus* bus_ = nullptr;
  std::uint64_t delivered_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t congestion_dropped_ = 0;
  std::uint64_t uplink_stranded_ = 0;
  std::uint64_t link_down_drops_ = 0;
};

}  // namespace pinsim::net
