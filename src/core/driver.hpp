#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/endpoint.hpp"
#include "cpu/cpu_model.hpp"
#include "ioat/dma_engine.hpp"
#include "net/nic.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"

namespace pinsim::net {
class Watchdog;
}

namespace pinsim::core {

/// The per-host Open-MX driver: owns the endpoints, demultiplexes incoming
/// frames to them (in BH context), and carries the host-wide pieces every
/// endpoint needs (NIC, CPU model, optional I/OAT channel, stack config).
class Driver {
 public:
  static constexpr std::size_t kMaxEndpoints = 16;

  Driver(sim::Engine& eng, net::Nic& nic, const cpu::CpuModel& cpu,
         ioat::DmaEngine* dma, StackConfig config);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Opens an endpoint for a process. The MMU notifier is attached to the
  /// process address space here, exactly once per endpoint (paper §3.1:
  /// "attaching a notifier to the process address space when an Open-MX
  /// endpoint is open").
  [[nodiscard]] Endpoint& open_endpoint(mem::AddressSpace& as,
                                        cpu::Core& process_core);

  void close_endpoint(std::uint8_t id);

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] net::Nic& nic() noexcept { return nic_; }
  [[nodiscard]] const cpu::CpuModel& cpu() const noexcept { return cpu_; }
  [[nodiscard]] ioat::DmaEngine* dma() noexcept { return dma_; }
  [[nodiscard]] const StackConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::NodeId node() const noexcept { return nic_.node_id(); }
  [[nodiscard]] Endpoint* endpoint(std::uint8_t id) noexcept {
    return id < endpoints_.size() ? endpoints_[id].get() : nullptr;
  }

  /// Attaches a typed event bus (nullptr detaches); see obs/bus.hpp. The
  /// stack emits packet, pinning and invalidation obs::Events into it. The
  /// bus must outlive the driver (teardown still emits — cached regions
  /// unpin during endpoint destruction) or be detached first. The
  /// watchdog (if attached) shares the bus so lifecycle events interleave
  /// with protocol events in one deterministic stream.
  void set_bus(obs::Bus* bus) noexcept;
  [[nodiscard]] obs::Relay& relay() noexcept { return relay_; }

  // --- crash/restart lifecycle ----------------------------------------------

  /// Records a crash on endpoint slot `id` (called by Host::kill_process
  /// after the MMU-notifier sweep, while the dying endpoint still exists).
  /// `reclaimed` is the pinned pages the sweep took back; `pinned_after` the
  /// host-wide pinned-page count once the sweep finished; `baseline` the
  /// expected non-tenant count (pre-crash total minus the victim's pins).
  /// Emits kLifeCrash carrying all three so obs::InvariantChecker can prove
  /// pinned_after == baseline — no leaks, no double-unpins.
  void note_crash(std::uint8_t id, std::uint64_t reclaimed,
                  std::uint64_t pinned_after, std::uint64_t baseline);

  /// Current incarnation number of an endpoint slot. Slots are born at
  /// epoch 1 and bump on every close (wrapping 255 -> 1, skipping 0: epoch 0
  /// on the wire means "unknown" and is never fenced).
  [[nodiscard]] std::uint8_t slot_epoch(std::uint8_t id) const noexcept {
    return id < slots_.size() ? slots_[id].epoch : 0;
  }

  /// Last incarnation learned for a remote (node, endpoint) — from the
  /// src_epoch of its frames and from watchdog announcements. 0 = unknown.
  [[nodiscard]] std::uint8_t peer_epoch(net::NodeId node,
                                        std::uint8_t ep) const;

  /// Wires a node-liveness watchdog into the rx path: heartbeat frames are
  /// intercepted before wire decode, the per-slot epoch table rides in the
  /// announcement blob, and a peer that misses the threshold has every
  /// outstanding request to it failed with cause peer_dead.
  void attach_watchdog(net::Watchdog& wd);
  [[nodiscard]] net::Watchdog* watchdog() noexcept { return watchdog_; }

  /// True while the watchdog has `node` declared dead. The user-space
  /// library turns this into a synchronous PeerDeadError on submission.
  [[nodiscard]] bool peer_dead(net::NodeId node) const {
    return dead_peers_.count(node) != 0;
  }

 private:
  /// Per-slot state that must survive the endpoint object itself: the
  /// incarnation number peers fence against, and crash-history totals the
  /// next incarnation's counters are stamped from at open_endpoint.
  struct SlotLifecycle {
    std::uint8_t epoch = 1;
    bool crashed = false;  // pending restart (set by note_crash)
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t reclaimed_pages = 0;
  };

  void on_frame(net::Frame&& frame);

  /// Wrap-safe "is incarnation a newer than b" (serial-number arithmetic on
  /// the 1..255 epoch ring; both args nonzero).
  [[nodiscard]] static bool epoch_newer(std::uint8_t a,
                                        std::uint8_t b) noexcept {
    return static_cast<std::int8_t>(a - b) > 0;
  }

  [[nodiscard]] static std::uint64_t peer_key(net::NodeId node,
                                              std::uint8_t ep) noexcept {
    return (static_cast<std::uint64_t>(node) << 8) | ep;
  }

  /// A remote slot changed incarnation: flush per-peer duplicate-suppression
  /// state and fail requests outstanding to the dead incarnation.
  void on_peer_epoch_change(net::NodeId node, std::uint8_t ep);

  /// Watchdog plumbing.
  void on_announcement(net::NodeId peer, std::span<const std::byte> blob);
  void on_peer_status(net::NodeId peer, bool alive);
  [[nodiscard]] std::vector<std::byte> announcement_blob() const;

  sim::Engine& eng_;
  net::Nic& nic_;
  const cpu::CpuModel& cpu_;
  ioat::DmaEngine* dma_;
  StackConfig config_;
  obs::Relay relay_;
  std::array<std::unique_ptr<Endpoint>, kMaxEndpoints> endpoints_;
  std::array<SlotLifecycle, kMaxEndpoints> slots_;
  sim::FlatMap<std::uint64_t, std::uint8_t> peer_epochs_;
  sim::FlatSet<std::uint64_t> closed_peer_slots_;  // announced 0 after nonzero
  sim::FlatSet<net::NodeId> dead_peers_;
  net::Watchdog* watchdog_ = nullptr;
};

}  // namespace pinsim::core
