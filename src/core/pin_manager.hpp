#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/region.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/pin_arbiter.hpp"
#include "mem/pool.hpp"
#include "obs/event.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"

namespace pinsim::core {

/// Driver-side pinning engine (paper §3.1/§3.3): pins declared regions on
/// demand, strictly in address order, charging Table-1-calibrated costs to
/// the owning process's core at kernel priority; unpins on MMU-notifier
/// invalidation, memory pressure or undeclare; repins transparently on next
/// use.
///
/// Every wait for pins is a wait for the region's frontier (`when_pinned`):
/// a completion names a page count and fires once that many pages, counted
/// from the region's start, are pinned. `ensure_pinned`, the entry point a
/// communication starts with, picks the target from the configured mode:
///  * non-overlapped: the whole region (the communication start waits —
///    Figure 2);
///  * overlapped: only `sync_prepin_pages` (default 0, i.e. immediately);
///    the rest keeps pinning in the background while the rendezvous
///    round-trip runs (Figure 5).
/// A frame dropped on an overlap miss waits on the same list for the pages
/// it touches, so its re-request leaves as soon as they are pinned.
///
/// On multi-tenant hosts the manager doubles as one tenant of the host's
/// `mem::PinArbiter`: it joins arbitration lazily on first quota contact,
/// answers shed requests with its own LRU walk, and asks the arbiter for
/// headroom (shedding over-floor tenants) when the shared quota denies it.
class PinManager : public mem::PinArbiter::TenantOps {
 public:
  /// done(ok): ok=false means a segment was invalid (or went away) and the
  /// region is PinState::kFailed; the caller aborts its request.
  using Completion = std::function<void(bool ok)>;

  /// `relay` (optional) is the typed observability emission point; it must
  /// outlive the manager (the Endpoint passes its Driver's relay, whose
  /// address is stable). Bus attachment happens on the relay, so a
  /// sink attached after construction is still picked up.
  PinManager(sim::Engine& eng, cpu::Core& core, const cpu::CpuModel& cpu,
             const PinningConfig& cfg, Counters& counters,
             const obs::Relay* relay = nullptr);

  void set_relay(const obs::Relay* relay) noexcept { relay_ = relay; }
  /// (node, endpoint) stamped onto emitted events.
  void set_identity(std::uint32_t node, std::uint8_t ep) noexcept {
    node_ = node;
    ep_ = ep;
  }

  PinManager(const PinManager&) = delete;
  PinManager& operator=(const PinManager&) = delete;
  ~PinManager() override;

  /// Tracks a declared region for LRU/pressure management.
  void register_region(Region& r);
  /// Stops tracking (undeclare). Any pins are released first.
  void unregister_region(Region& r);

  /// Calls `done(true)` once the first `pages` pages of `r` are pinned
  /// (clamped to the region), joining the region's pin job or starting one.
  /// A target the frontier already covers fires inline. Waiters wake in
  /// (target, arrival) order as the frontier advances; a frontier the MMU
  /// notifier truncates makes them wait for it to pass again; a failed job
  /// calls each pending waiter once with false; unregister_region drops
  /// them uncalled. The job starting is counted as a repin if the region
  /// had been pinned before and lost its pages (invalidation/pressure).
  void when_pinned(Region& r, std::size_t pages, Completion done);

  /// when_pinned with the configured mode's target (see above).
  void ensure_pinned(Region& r, Completion done);

  /// Per-request override of the overlap decision (§6: "only enabling
  /// decoupled/overlapped pinning for blocking operations").
  void ensure_pinned(Region& r, bool overlapped, Completion done);

  /// Releases every pin of `r` (charging the unpin cost) without
  /// undeclaring it. Next ensure_pinned repins.
  void unpin(Region& r);

  /// MMU-notifier path: the VM is invalidating [start, end). Every tracked
  /// region overlapping it loses its pins *now* (before the VM proceeds);
  /// in-flight asynchronous pinning of it is cancelled.
  void invalidate_range(mem::VirtAddr start, mem::VirtAddr end);

  /// Marks `r` recently used (for LRU eviction under pressure).
  void touch(Region& r);

  /// Invoked when asynchronous pinning fails after the communication already
  /// started (overlapped mode): the driver aborts the affected requests.
  void set_failure_handler(std::function<void(Region&)> h) {
    failure_handler_ = std::move(h);
  }

  [[nodiscard]] const PinningConfig& config() const noexcept { return cfg_; }

 private:
  /// A completion waiting for the frontier to reach `pages`.
  struct Waiter {
    std::size_t pages = 0;
    Completion done;
  };

  struct PinJob {
    std::uint64_t generation = 0;
    std::vector<Waiter> waiters;  // sorted by (pages, arrival)
    bool charged_base = false;
    bool active = false;
    int retries = 0;        // consecutive zero-progress chunk attempts
    int inval_restarts = 0; // notifier invalidations absorbed by this job

    void reset() { mem::reset_keeping(*this, &PinJob::waiters); }
  };

  /// Everything the manager knows about one region, keyed by the region's
  /// stable id in an *ordered* flat map: iteration order (notifier
  /// invalidation, LRU shedding ties) is then part of the deterministic
  /// contract instead of hash-of-pointer happenstance (pinlint D1/D2). The
  /// Region pointer is re-validated against the tracked entry before any
  /// deref from a timer callback, so a region destroyed during a backoff
  /// cannot be touched. Entries live in pooled nodes so references survive
  /// reentrant completions that insert into the map, and churn (declare/
  /// undeclare cycles) stops allocating at steady state.
  struct Tracked {
    Region* region = nullptr;
    sim::Time last_use = 0;
    bool registered = false;  // register_region() called: visible to the
                              // LRU shedder and the MMU-notifier path
    bool was_pinned = false;  // pinned at least once (repin counting)
    PinJob job;

    void reset() {
      PinJob kept = std::move(job);
      kept.reset();
      *this = Tracked{};
      job = std::move(kept);
    }
  };

  /// The tracked entry for `r`, created on first use (a region pinned
  /// without register_region() still needs job state, but stays invisible
  /// to the LRU/notifier paths until registered).
  Tracked& track(Region& r);
  /// The entry for `rid` iff it still tracks the exact object `expected` —
  /// the timer-callback guard (undeclare + id reuse cannot alias).
  Tracked* find_alive(RegionId rid, const Region* expected);

  void schedule_chunk(Region& r);
  void retry_or_fail(Region& r);
  [[nodiscard]] sim::Time retry_backoff(int retries) const;
  void finish(Region& r, bool ok);
  /// Calls, in list order, every waiter of `r` whose target is at most
  /// `frontier`, with `ok`.
  void wake(Region& r, std::size_t frontier, bool ok);
  void shed_pins_if_needed(mem::PhysicalMemory& pm,
                           std::size_t incoming_pages);
  bool shed_one_victim();

  // Cross-tenant arbitration (mem::PinArbiter::TenantOps).
  [[nodiscard]] std::size_t arb_pinned_pages() const override;
  bool arb_shed_idle() override;
  /// Registers with the host arbiter on first quota contact (idempotent).
  void maybe_join_arbitration(mem::PhysicalMemory& pm);
  /// Asks the arbiter to shed another tenant below us. True when headroom
  /// exists on return.
  bool arbitrate_headroom();
  void do_unpin(Region& r, std::uint64_t& op_counter);
  void do_unpin_from(Region& r, std::size_t first_slot,
                     std::uint64_t& op_counter);

  sim::Engine& eng_;
  cpu::Core& core_;
  const cpu::CpuModel& cpu_;
  PinningConfig cfg_;
  Counters& counters_;
  // Pool declared before the map: map entries hold pool nodes, so the pool
  // must outlive them on destruction.
  mem::ObjectPool<Tracked> tracked_pool_;
  sim::FlatMap<RegionId, mem::ObjectPool<Tracked>::Ptr> tracked_;
  std::function<void(Region&)> failure_handler_;
  const obs::Relay* relay_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint8_t ep_ = 0;
  mem::PinArbiter* arbiter_ = nullptr;  // joined lazily; not owned
  std::uint32_t arb_id_ = 0;
  bool arb_registered_ = false;
  // Liveness token for engine timers (retry backoff): a timer may fire after
  // the endpoint (and its PinManager) is destroyed; captured weakly.
  std::shared_ptr<char> alive_ = std::make_shared<char>('p');

  /// Emits a pin event carrying the region's current frontier/total pages.
  /// `what` must have static storage duration.
  void emit(obs::EventKind kind, Region& r, const char* what);
  /// Range-invalidation event: `cut` is the first invalidated slot, the
  /// frontier snapshot in `offset` must already be post-truncation so the
  /// invariant `offset <= cut` is checkable.
  void emit_invalidate(Region& r, std::size_t cut);
};

}  // namespace pinsim::core
