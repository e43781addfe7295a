#pragma once

#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"
#include "obs/event.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pinsim::mem {

/// One memory-pressure recipe, the `net::FaultPlan` of the VM side. All
/// probabilities are independent unless noted; a plan with every knob at its
/// default injects nothing.
///
/// The paper's §3.1 contract is that the kernel may unpin declared regions
/// under memory pressure and the driver repins on demand at the next
/// communication. The PressureInjector exists to make that contract testable
/// under *adversarial* VM behaviour, not just the occasional swap-out:
/// get_user_pages-style pin denials (random and bursty), and notifier storms
/// — swap-daemon sweeps, page migrations and COW breaks fired into in-flight
/// transfers.
struct PressurePlan {
  /// Independent (Bernoulli) per-page pin denial, the transient -ENOMEM a
  /// loaded allocator returns from get_user_pages.
  double pin_fail = 0.0;

  /// Gilbert–Elliott bursty denial: a two-state Markov channel stepped once
  /// per pin attempt (good -> bad with `burst_enter`, bad -> good with
  /// `burst_exit`); while bad, attempts are denied with `burst_fail`.
  /// Models sustained reclaim episodes rather than isolated failures.
  /// `burst_enter == 0` disables the chain.
  double burst_enter = 0.0;
  double burst_exit = 0.25;
  double burst_fail = 1.0;

  /// Notifier-storm knobs, applied on every storm tick to each watched
  /// address space. `sweep` swaps out up to `sweep_pages` random unpinned
  /// resident pages (an aggressive kswapd pass); `migrate` moves up to
  /// `migrate_pages` pages to fresh frames (NUMA balancing / compaction);
  /// `cow` snapshots-then-writes up to `cow_pages` pages (fork + touch),
  /// breaking COW under any later pin. Each fires MMU notifiers exactly like
  /// the real VM events they model.
  double sweep = 0.0;
  std::size_t sweep_pages = 32;
  double migrate = 0.0;
  std::size_t migrate_pages = 4;
  double cow = 0.0;
  std::size_t cow_pages = 2;
  sim::Time storm_period = 20 * sim::kMicrosecond;

  [[nodiscard]] bool denies_pins() const noexcept {
    return pin_fail > 0.0 || burst_enter > 0.0;
  }
  [[nodiscard]] bool storms() const noexcept {
    return sweep > 0.0 || migrate > 0.0 || cow > 0.0;
  }
  [[nodiscard]] bool active() const noexcept {
    return denies_pins() || storms();
  }
};

/// Deterministic memory-pressure fault injection, mirroring
/// `net::FaultInjector` for the memory subsystem.
///
/// Two attack surfaces:
///  * pin denial — `PhysicalMemory::set_pressure` hooks the injector into
///    `AddressSpace::pin_page`, which consults `allow_pin()` before touching
///    the page table and throws PinDeniedError on refusal;
///  * notifier storms — `start_storm` schedules a periodic tick that drives
///    swap-outs, migrations and COW breaks against every watched address
///    space, each firing the MMU notifiers registered there.
///
/// All randomness comes from one seeded sim::Rng, so a run with the same
/// seed and schedule is bit-reproducible.
class PressureInjector {
 public:
  struct Stats {
    std::uint64_t pin_attempts = 0;
    std::uint64_t pins_denied = 0;   // independent (Bernoulli) denials
    std::uint64_t burst_denied = 0;  // Gilbert–Elliott denials
    std::uint64_t storm_ticks = 0;
    std::uint64_t swept_pages = 0;   // pages swapped out by storms
    std::uint64_t migrated_pages = 0;
    std::uint64_t cow_breaks = 0;

    [[nodiscard]] std::uint64_t total_denied() const noexcept {
      return pins_denied + burst_denied;
    }
  };

  explicit PressureInjector(std::uint64_t seed = 0x9e550e) : rng_(seed) {}
  ~PressureInjector();

  PressureInjector(const PressureInjector&) = delete;
  PressureInjector& operator=(const PressureInjector&) = delete;

  void set_plan(PressurePlan plan) noexcept { plan_ = plan; }
  [[nodiscard]] const PressurePlan& plan() const noexcept { return plan_; }

  /// Address spaces the notifier storms target. Not owned; callers keep them
  /// alive while the injector runs (or call `unwatch`).
  void watch(AddressSpace* as);
  void unwatch(AddressSpace* as);

  /// Pin-denial gate, called by AddressSpace::pin_page for every attempt.
  /// Returns false when the attempt must fail.
  [[nodiscard]] bool allow_pin();

  /// Starts the periodic notifier-storm tick on `eng`.
  void start_storm(sim::Engine& eng);
  void stop_storm();

  /// One synchronous storm pass over all watched address spaces (also used
  /// by tests and the torture harness).
  void storm_once();

  /// Attaches a typed event bus; decisions are emitted as kPressure* events.
  void set_bus(obs::Bus* bus) noexcept { relay_.set_bus(bus); }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void tick();
  void trace(obs::EventKind kind, const char* what);

  PressurePlan plan_;
  std::vector<AddressSpace*> spaces_;
  sim::Rng rng_;
  obs::Relay relay_;
  Stats stats_;
  bool burst_bad_ = false;  // Gilbert–Elliott channel state
  sim::Engine* eng_ = nullptr;
  bool storming_ = false;
  sim::Engine::EventId pending_{};
};

}  // namespace pinsim::mem
