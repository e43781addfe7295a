#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/library.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "ioat/dma_engine.hpp"
#include "mem/address_space.hpp"
#include "mem/malloc_sim.hpp"
#include "mem/physical_memory.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/watchdog.hpp"
#include "sim/engine.hpp"

namespace pinsim::core {

/// One simulated machine: physical memory, cores, a 10G NIC (interrupts
/// bound to core 0), an optional I/OAT engine, the Open-MX driver, and the
/// processes running on it. This is the unit the benchmarks instantiate two
/// of (the paper's testbed is a pair of hosts on a Myri-10G Ethernet).
class Host {
 public:
  struct Config {
    cpu::CpuModel cpu = cpu::xeon_e5460();
    std::size_t cores = 4;             // quad-core like the E5460 testbed
    std::size_t memory_frames = 32768; // 128 MiB of 4 kB frames
    bool with_ioat = false;
    ioat::DmaEngine::Config ioat = {};
    net::Nic::Config nic = {};         // rx overhead filled from `cpu`
    std::string name = "host";
  };

  Host(sim::Engine& eng, net::Fabric& fabric, Config cfg, StackConfig stack);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// A process: its own address space and heap, one core, one endpoint, one
  /// library instance.
  ///
  /// Member order is load-bearing for teardown: the library (which
  /// undeclares cached regions through the endpoint) dies first, then the
  /// endpoint (which unregisters its MMU notifier from the address space),
  /// and only then the address space itself.
  struct Process {
    Process(Host& host, cpu::Core& bound_core);

    mem::AddressSpace as;
    mem::MallocSim heap;
    cpu::Core& core;

   private:
    struct EndpointHolder {
      EndpointHolder(Driver& d, mem::AddressSpace& a, cpu::Core& c)
          : driver(d), ep(d.open_endpoint(a, c)) {}
      ~EndpointHolder() { driver.close_endpoint(ep.id()); }
      Driver& driver;
      Endpoint& ep;
    };
    EndpointHolder holder_;

   public:
    Endpoint& ep;
    Library lib;

    [[nodiscard]] EndpointAddr addr() const noexcept { return ep.addr(); }
  };

  /// Spawns a process on the next free core (round-robin over cores 1..N-1,
  /// keeping core 0 — the interrupt core — free when there is more than one
  /// core; the paper's §4.3 pathology binds a process there on purpose).
  Process& spawn_process();

  /// Spawns a process bound to a specific core.
  Process& spawn_process_on(std::size_t core_idx);

  // --- crash/restart lifecycle ----------------------------------------------

  /// Kills process `i` the way a SIGKILL mid-transfer would: every in-flight
  /// request fails locally (no wire traffic — a dead process sends no
  /// aborts), the region cache is flushed, and the address space is torn
  /// down exit()-style so the MMU notifiers reclaim every pinned page and
  /// cancel in-flight pin jobs. The driver records the crash (kLifeCrash
  /// carries the pinned-page baseline proof) and the slot's epoch bumps when
  /// the endpoint closes, fencing stale frames off the next incarnation.
  /// The process slot stays empty until restart_process(i).
  void kill_process(std::size_t i);

  /// Respawns a killed process on the core it died on. Fresh address space,
  /// fresh endpoint (same slot if free, stamped with the bumped epoch),
  /// fresh library. Emits kLifeRestart.
  Process& restart_process(std::size_t i);

  [[nodiscard]] bool process_alive(std::size_t i) const {
    return i < processes_.size() && processes_[i] != nullptr;
  }

  /// Creates the node-liveness watchdog and wires it into the driver (epoch
  /// announcements, heartbeat interception, dead-peer request failure).
  /// Callers still pick the peers (add_peer) and start() it.
  net::Watchdog& enable_watchdog(net::Watchdog::Config cfg);
  [[nodiscard]] net::Watchdog* watchdog() noexcept { return watchdog_.get(); }

  /// Shares this host's pin quota among its processes: a quota denial a
  /// process cannot cover from its own idle regions sheds other processes'
  /// idle regions (see Driver::enable_pin_arbitration). Idempotent.
  void enable_pin_arbitration() noexcept { driver_.enable_pin_arbitration(); }

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] net::Nic& nic() noexcept { return nic_; }
  [[nodiscard]] Driver& driver() noexcept { return driver_; }
  [[nodiscard]] mem::PhysicalMemory& memory() noexcept { return pm_; }
  [[nodiscard]] cpu::Core& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] std::size_t core_count() const noexcept {
    return cores_.size();
  }
  [[nodiscard]] ioat::DmaEngine* dma() noexcept { return dma_.get(); }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] Process& process(std::size_t i) { return *processes_.at(i); }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return processes_.size();
  }

 private:
  static net::Nic::Config nic_config(const Config& cfg);

  sim::Engine& eng_;
  Config cfg_;
  mem::PhysicalMemory pm_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  net::Nic nic_;
  std::unique_ptr<ioat::DmaEngine> dma_;
  Driver driver_;
  std::unique_ptr<net::Watchdog> watchdog_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::size_t> process_core_;  // core index, for restart
  std::size_t next_core_ = 1;
};

}  // namespace pinsim::core
