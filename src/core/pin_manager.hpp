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
#include "mem/pool.hpp"
#include "obs/event.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"

namespace pinsim::core {

class Driver;

/// Driver-side pinning engine (paper §3.1/§3.3): pins declared regions on
/// demand, strictly in address order, charging Table-1-calibrated costs to
/// the owning process's core at kernel priority; unpins on MMU-notifier
/// invalidation, memory pressure or undeclare; repins transparently on next
/// use.
///
/// The manager is the one owner of pin state and the only reader of
/// `PinningConfig`: the mode decides what `declare` makes (a paged region
/// under PinMode::kNone, a region pinned at once under kPermanent), and the
/// overlap settings decide `ensure_pinned`'s target. A region's frontier
/// records which of its pages are pinned; the manager's job table records
/// whether a pin job is running (`pinning`) or the last one failed.
///
/// Every wait for pins is a wait for the region's frontier (`when_pinned`):
/// a completion names a page count and fires once that many pages, counted
/// from the region's start, are pinned. `ensure_pinned`, the entry point a
/// communication starts with, picks the target:
///  * non-overlapped: the whole region (the communication start waits —
///    Figure 2);
///  * overlapped: only `sync_prepin_pages` (default 0, i.e. immediately);
///    the rest keeps pinning in the background while the rendezvous
///    round-trip runs (Figure 5).
/// A frame dropped on an overlap miss waits on the same list for the pages
/// it touches, so its re-request leaves as soon as they are pinned.
///
/// On a host with pin arbitration enabled (`Driver::enable_pin_arbitration`)
/// the manager is one tenant of the host's shared pin quota: it joins the
/// driver's tenant list when it first schedules a pin chunk, and a quota
/// denial it cannot cover from its own idle regions sheds other tenants'
/// (`make_headroom`).
class PinManager {
 public:
  /// done(ok): ok=false means a segment was invalid (or went away), or the
  /// pin was starved past its budget, and the region's pin failed; the
  /// caller aborts its request. The next use of the region retries.
  using Completion = std::function<void(bool ok)>;

  /// `relay` (optional) is the typed observability emission point; it must
  /// outlive the manager (the Endpoint passes its Driver's relay, whose
  /// address is stable). Bus attachment happens on the relay, so a
  /// sink attached after construction is still picked up.
  PinManager(sim::Engine& eng, cpu::Core& core, const cpu::CpuModel& cpu,
             const PinningConfig& cfg, Counters& counters,
             const obs::Relay* relay = nullptr);

  void set_relay(const obs::Relay* relay) noexcept { relay_ = relay; }
  /// The host driver whose tenant list this manager joins once pin
  /// arbitration is enabled; it must outlive the manager. nullptr (the
  /// default) keeps the manager on its own.
  void set_driver(Driver* driver) noexcept { driver_ = driver; }
  /// (node, endpoint) stamped onto emitted events.
  void set_identity(std::uint32_t node, std::uint8_t ep) noexcept {
    node_ = node;
    ep_ = ep;
  }

  PinManager(const PinManager&) = delete;
  PinManager& operator=(const PinManager&) = delete;
  ~PinManager();

  /// Declares a region: the manager owns it until undeclare (or its own
  /// destruction). Ids ascend from 1 and are never reused, so a timer that
  /// re-finds its region by id cannot reach a later declaration. Under
  /// PinMode::kNone the region is paged (never pinned); under kPermanent
  /// its pin starts here. Declaring invalid segments *succeeds*: the
  /// failure surfaces at pin time (paper §3.1).
  Region& declare(mem::AddressSpace& as, std::vector<Segment> segments);
  /// Destroys a declared region, cancelling its pin job and releasing its
  /// pins first. Throws std::invalid_argument for an unknown id.
  void undeclare(RegionId id);
  /// The declared region `id`, or nullptr.
  [[nodiscard]] Region* find(RegionId id);

  /// Calls `done(true)` once the first `pages` pages of `r` are pinned
  /// (clamped to the region), joining the region's pin job or starting one.
  /// A target the frontier already covers fires inline. Waiters wake in
  /// (target, arrival) order as the frontier advances; a frontier the MMU
  /// notifier truncates makes them wait for it to pass again; a failed job
  /// calls each pending waiter once with false; undeclare drops them
  /// uncalled. The job starting is counted as a repin if the region
  /// had been pinned before and lost its pages (invalidation/pressure).
  void when_pinned(Region& r, std::size_t pages, Completion done);

  /// when_pinned with the configured target (see above). The pin overlaps
  /// the communication when the config says so, except that with
  /// `overlap_blocking_only` a request the application will not block on
  /// (`blocking_hint` false) waits for the whole region (§6: "only enabling
  /// decoupled/overlapped pinning for blocking operations").
  void ensure_pinned(Region& r, Completion done, bool blocking_hint = true);

  /// True while a pin job of `r` runs (started, not yet done, failed or
  /// cancelled).
  [[nodiscard]] bool pinning(const Region& r) const;

  /// Releases every pin of `r` (charging the unpin cost) without
  /// undeclaring it. Next ensure_pinned repins. A running pin job is
  /// cancelled and closes with a kPinFail labelled "cancelled".
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

  /// One declared region and everything the manager knows about it, keyed
  /// by the region's id in an *ordered* flat map: iteration order (notifier
  /// invalidation, LRU shedding ties, destruction) is then part of the
  /// deterministic contract instead of hash-of-pointer happenstance (pinlint
  /// D1/D2). Entries live in pooled nodes so references survive reentrant
  /// completions that insert into the map, and churn (declare/undeclare
  /// cycles) stops allocating at steady state.
  struct Tracked {
    std::unique_ptr<Region> region;
    sim::Time last_use = 0;
    bool was_pinned = false;  // pinned at least once (repin counting)
    bool failed = false;      // the last job failed; the next use retries
    PinJob job;

    void reset() {
      PinJob kept = std::move(job);
      kept.reset();
      *this = Tracked{};
      job = std::move(kept);
    }
  };

  /// The entry of the declared region `id`, or nullptr.
  Tracked* entry(RegionId id);

  void schedule_chunk(Region& r);
  void retry_or_fail(Region& r);
  [[nodiscard]] sim::Time retry_backoff(int retries) const;
  /// Re-runs schedule_chunk for `r`'s current job after
  /// retry_backoff(`attempt`), unless the job ended or restarted meanwhile
  /// or the region was undeclared.
  void schedule_backoff(Region& r, int attempt, sim::TaskTag tag);
  /// Ends `r`'s job with one kPinDone or kPinFail labelled `what` (static
  /// storage duration).
  void finish(Region& r, bool ok, const char* what);
  /// Calls, in list order, every waiter of `r` whose target is at most
  /// `frontier`, with `ok`.
  void wake(Region& r, std::size_t frontier, bool ok);
  bool shed_one_victim();
  /// Pages pinned across every region this manager tracks.
  [[nodiscard]] std::size_t pinned_pages() const;
  /// Frees quota headroom for `pages` more pins (see the definition for
  /// the rule); true when at least one page fits.
  bool make_headroom(mem::PhysicalMemory& pm, std::size_t pages);
  /// Releases every pin of `t`'s region and clears its failure.
  void do_unpin(Tracked& t);
  void do_unpin_from(Region& r, std::size_t first_slot);

  sim::Engine& eng_;
  cpu::Core& core_;
  const cpu::CpuModel& cpu_;
  PinningConfig cfg_;
  Counters& counters_;
  // Pool declared before the map: map entries hold pool nodes, so the pool
  // must outlive them on destruction.
  mem::ObjectPool<Tracked> tracked_pool_;
  sim::FlatMap<RegionId, mem::ObjectPool<Tracked>::Ptr> tracked_;
  RegionId next_id_ = 1;
  std::function<void(Region&)> failure_handler_;
  const obs::Relay* relay_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint8_t ep_ = 0;
  Driver* driver_ = nullptr;  // not owned
  bool joined_ = false;       // on driver_->pin_tenants()
  // Liveness token for engine timers (retry backoff): a timer may fire after
  // the endpoint (and its PinManager) is destroyed; captured weakly.
  std::shared_ptr<char> alive_ = std::make_shared<char>('p');

  /// Emits a pin event carrying the region's current frontier/total pages.
  /// `what` must have static storage duration. A range invalidation passes
  /// its first invalidated slot as `cut`, after truncating the frontier, so
  /// the invariant `frontier <= cut` is checkable.
  void emit(obs::EventKind kind, Region& r, const char* what,
            std::size_t cut = 0);
};

}  // namespace pinsim::core
