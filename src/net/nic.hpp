#pragma once

#include <cstdint>
#include <functional>

#include "cpu/core.hpp"
#include "net/fabric.hpp"
#include "net/frame.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

/// A 10G Ethernet NIC: transmit ring serialized onto the wire at line rate,
/// receive path raising interrupt work (bottom halves) on a bound core.
///
/// The receive handler runs in bottom-half context on `irq_core` after the
/// per-frame receive overhead has been charged — the "strongly privileged
/// receive processing" whose core-starvation behaviour §4.3 analyses.
class Nic {
 public:
  /// Called in BH context when a frame has been received and charged.
  using RxHandler = std::function<void(Frame&&)>;

  /// Picks the core whose bottom half processes a frame. Default: the irq
  /// core. Installing a selector models RSS/MSI-X flow steering ("one
  /// process per core" with distributed interrupt load); the paper's §4.3
  /// pathology is the non-steered case with everything on one core.
  using RxCoreSelector = std::function<cpu::Core&(const Frame&)>;

  struct Config {
    std::size_t mtu = 9000;          // jumbo frames, as Myri-10G Ethernet
    std::size_t tx_ring = 512;       // frames queued for egress
    std::size_t rx_ring = 512;       // frames awaiting BH processing
    sim::Time rx_frame_overhead = 1000;  // charged per frame on irq core
  };

  struct Stats {
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_ring_drops = 0;
    std::uint64_t rx_ring_drops = 0;
  };

  Nic(sim::Engine& eng, Fabric& fabric, cpu::Core& irq_core, Config cfg);
  Nic(sim::Engine& eng, Fabric& fabric, cpu::Core& irq_core)
      : Nic(eng, fabric, irq_core, Config()) {}

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] NodeId node_id() const noexcept { return node_; }
  [[nodiscard]] std::size_t mtu() const noexcept { return cfg_.mtu; }

  /// Queues a frame for transmission. Returns false (and counts a drop) if
  /// the TX ring is full — callers treat that like wire loss.
  bool send(Frame frame);

  /// Installs the receive upcall (the Open-MX driver's rx handler).
  void set_rx_handler(RxHandler h) { rx_handler_ = std::move(h); }

  /// Installs RSS-style flow steering (see RxCoreSelector).
  void set_rx_core_selector(RxCoreSelector s) { rx_select_ = std::move(s); }

  /// Fabric-side entry: a frame has finished arriving at this port.
  void deliver(Frame frame);

  /// Hard NIC reset (firmware reload / lifecycle injection): wipes the TX
  /// ring including the frame currently clocking out, and invalidates every
  /// RX frame still waiting for its bottom half — they were sitting in ring
  /// memory the reset just reinitialized. Returns the number of TX frames
  /// lost (counted as tx_ring_drops; RX casualties count as rx_ring_drops)
  /// and emitted as kLifeNicReset's `len` on the fabric's bus.
  std::size_t reset();

  [[nodiscard]] std::uint64_t resets() const noexcept { return resets_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] cpu::Core& irq_core() noexcept { return irq_core_; }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const Fabric& fabric() const noexcept { return fabric_; }

 private:
  void pump_tx();

  sim::Engine& eng_;
  Fabric& fabric_;
  cpu::Core& irq_core_;
  Config cfg_;
  NodeId node_;
  RxHandler rx_handler_;
  RxCoreSelector rx_select_;
  sim::Ring<Frame> tx_queue_;
  bool tx_busy_ = false;
  sim::Engine::EventId tx_done_{};  // in-flight egress serialization
  std::size_t rx_inflight_ = 0;  // frames in the rx ring awaiting BH
  std::uint64_t reset_gen_ = 0;  // invalidates queued rx bottom halves
  std::uint64_t resets_ = 0;
  Stats stats_;
};

}  // namespace pinsim::net
