#include "core/pin_manager.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/driver.hpp"
#include "mem/types.hpp"

namespace pinsim::core {

PinManager::PinManager(sim::Engine& eng, cpu::Core& core,
                       const cpu::CpuModel& cpu, const PinningConfig& cfg,
                       Counters& counters, const obs::Relay* relay)
    : eng_(eng),
      core_(core),
      cpu_(cpu),
      cfg_(cfg),
      counters_(counters),
      relay_(relay) {}

PinManager::~PinManager() {
  // Regions still declared (an endpoint closed mid-transfer, or one driven
  // without a Library): cancel in-flight pin jobs and release their pins.
  // Unpinning emits events; the flat map walks in ascending-id order, which
  // is the order replays expect.
  for (auto& [rid, t] : tracked_) unpin(*t->region);
  if (joined_) std::erase(driver_->pin_tenants(), this);
}

std::size_t PinManager::pinned_pages() const {
  std::size_t total = 0;
  for (const auto& [rid, t] : tracked_) {
    (void)rid;
    total += t->region->pinned_pages();
  }
  return total;
}

bool PinManager::make_headroom(mem::PhysicalMemory& pm, std::size_t pages) {
  // Paper §3.1: with too many pinned pages the driver unpins idle regions.
  // Busy pins are protected; idle ones are a cache any tenant may reclaim.
  // The PhysicalMemory quota (the RLIMIT_MEMLOCK analogue) bounds the
  // host's pinned pages. Our own LRU idle regions go first, until `pages`
  // fit under it. If not one page fits then, every other tenant on the
  // host, most pinned pages first and ties to whichever joined first, sheds
  // its LRU idle region until a page is free.
  while (pm.pinned_pages() + pages > pm.pin_quota() && shed_one_victim()) {
  }
  if (pm.pin_headroom() > 0) return true;
  if (!joined_) return false;
  ++counters_.tenant_arb_requests;
  std::vector<std::pair<std::size_t, PinManager*>> victims;
  for (PinManager* m : driver_->pin_tenants()) {
    if (m != this) victims.emplace_back(m->pinned_pages(), m);
  }
  std::stable_sort(victims.begin(), victims.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (const auto& [held, m] : victims) {
    if (!m->shed_one_victim()) continue;  // every region busy: next one
    ++m->counters_.tenant_sheds_suffered;
    if (pm.pin_headroom() > 0) break;
  }
  if (pm.pin_headroom() == 0) return false;
  ++counters_.tenant_arb_grants;
  return true;
}

void PinManager::emit(obs::EventKind kind, Region& r, const char* what,
                      std::size_t cut) {
  if (relay_ == nullptr || !relay_->active()) return;
  obs::Event e;
  e.kind = kind;
  e.node = node_;
  e.ep = ep_;
  e.region = r.id();
  e.seq = static_cast<std::uint32_t>(cut);
  e.offset = r.pinned_pages();
  e.len = r.page_count();
  e.label = what;
  relay_->emit(e);
}

Region& PinManager::declare(mem::AddressSpace& as,
                            std::vector<Segment> segments) {
  const RegionId id = next_id_++;
  auto t = tracked_pool_.acquire();
  t->region = std::make_unique<Region>(id, as, std::move(segments),
                                       cfg_.mode == PinMode::kNone);
  t->last_use = eng_.now();
  Region& r = *t->region;
  tracked_.emplace(id, std::move(t));
  if (cfg_.mode == PinMode::kPermanent) ensure_pinned(r, [](bool) {});
  return r;
}

void PinManager::undeclare(RegionId id) {
  Tracked* t = entry(id);
  if (t == nullptr) throw std::invalid_argument("unknown region");
  assert(t->region->use_count() == 0 && "undeclaring a region in use");
  unpin(*t->region);
  tracked_.erase(id);
}

Region* PinManager::find(RegionId id) {
  Tracked* t = entry(id);
  return t == nullptr ? nullptr : t->region.get();
}

PinManager::Tracked* PinManager::entry(RegionId id) {
  auto it = tracked_.find(id);
  return it == tracked_.end() ? nullptr : it->second.get();
}

void PinManager::touch(Region& r) {
  entry(r.id())->last_use = eng_.now();
}

void PinManager::ensure_pinned(Region& r, Completion done,
                               bool blocking_hint) {
  const bool overlapped =
      cfg_.overlapped && (!cfg_.overlap_blocking_only || blocking_hint);
  when_pinned(r, overlapped ? cfg_.sync_prepin_pages : r.page_count(),
              std::move(done));
}

bool PinManager::pinning(const Region& r) const {
  const auto it = tracked_.find(r.id());
  return it != tracked_.end() && it->second->job.active;
}

void PinManager::when_pinned(Region& r, std::size_t pages, Completion done) {
  touch(r);
  // A paged region has nothing to pin, ever (QsNet-style).
  if (r.paged() || r.fully_pinned()) {
    done(true);
    return;
  }
  // A failure is retryable, not terminal (§3.1: the region "stays declared,
  // repinned at next communication"): a past pin failure — memory pressure,
  // a then-invalid segment since remapped — must not poison the declaration.
  // A failed region is idle: its job ended in the failure.
  Tracked& t = *entry(r.id());
  PinJob& job = t.job;
  if (t.failed) {
    t.failed = false;
    ++counters_.pin_fail_resets;
    emit(obs::EventKind::kPinReset, r, "failed region retried");
  }
  pages = std::min(pages, r.page_count());
  if (r.pinned_pages() >= pages) {
    done(true);  // e.g. overlapped with no pre-pin: proceed immediately
  } else {
    auto& ws = job.waiters;
    ws.insert(std::upper_bound(ws.begin(), ws.end(), pages,
                               [](std::size_t p, const Waiter& w) {
                                 return p < w.pages;
                               }),
              Waiter{pages, std::move(done)});
  }

  if (!job.active) {
    job.active = true;
    job.charged_base = false;
    job.retries = 0;
    job.inval_restarts = 0;
    ++counters_.pin_ops;
    if (t.was_pinned) ++counters_.repins;
    emit(obs::EventKind::kPinStart, r, "pinning");
    schedule_chunk(r);
  }
}

void PinManager::schedule_chunk(Region& r) {
  PinJob& job = entry(r.id())->job;
  assert(job.active);
  if (r.fully_pinned()) {
    finish(r, true, "fully pinned");
    return;
  }
  if (!joined_ && driver_ != nullptr && driver_->pin_arbitration()) {
    driver_->pin_tenants().push_back(this);
    joined_ = true;
  }
  auto& pm = r.address_space().physical();
  std::size_t chunk = std::min(cfg_.pin_chunk_pages, r.unpinned_pages());

  // Graceful degradation under a pinned-page quota: when the full chunk
  // cannot fit even after shedding idle regions, pin what fits — a smaller
  // frontier advance beats a failed one. With zero headroom nothing can pin
  // at all; once other tenants' idle pins are reclaimed too (if this host
  // arbitrates), back off and retry so a transient squeeze (another
  // endpoint releasing pages, the quota being raised) heals, and a
  // permanent one ends in a clean ok=false abort once the budget runs out.
  make_headroom(pm, chunk);
  const std::size_t headroom = pm.pin_headroom();
  if (headroom == 0) {
    ++counters_.pins_denied;
    pm.count_quota_denial();
    retry_or_fail(r);
    return;
  }
  if (chunk > headroom) {
    chunk = headroom;
    ++counters_.pin_chunk_shrinks;
    emit(obs::EventKind::kPinShrink, r, "chunk shrunk to quota headroom");
  }

  sim::Time cost = static_cast<sim::Time>(chunk) *
                   (cpu_.pin_cost(1) - cpu_.pin_cost(0));
  if (!job.charged_base) {
    cost += cpu_.pin_cost(0);
    job.charged_base = true;
  }

  const std::uint64_t gen = job.generation;
  const RegionId rid = r.id();
  std::weak_ptr<char> alive = alive_;
  core_.submit(cpu::Priority::kKernel, cost, [this, rid, gen, chunk, alive] {
    if (alive.expired()) return;  // the manager died while the cost accrued
    Tracked* t = entry(rid);
    if (t == nullptr || !t->job.active || t->job.generation != gen) {
      return;  // invalidated or undeclared while the cost was accruing
    }
    Region& r = *t->region;
    // The work time has been paid; take the page references now.
    std::vector<mem::FrameId> frames;
    frames.reserve(chunk);
    bool hard_failed = false;   // the page can never pin (invalid segment)
    bool denied = false;        // transient: retry with backoff
    auto& as = r.address_space();
    const std::size_t base_slot = r.pinned_pages();
    for (std::size_t i = 0; i < chunk; ++i) {
      try {
        frames.push_back(as.pin_page(r.page_va_at(base_slot + i)));
      } catch (const mem::InvalidAddressError&) {
        hard_failed = true;  // the paper's invalid-segment-at-pin-time case
        break;
      } catch (const mem::PinDeniedError& e) {
        ++counters_.pins_denied;
        if (e.reason() == mem::PinDeniedError::Reason::kQuota &&
            make_headroom(as.physical(), 1)) {
          --i;  // freed quota headroom; retry this page now
          continue;
        }
        denied = true;
        break;
      } catch (const mem::OutOfMemoryError&) {
        // Physical frames exhausted: direct reclaim. Shed an idle region's
        // pins (making its pages reclaimable) and swap out unpinned pages
        // until the allocation can proceed; with nothing reclaimable this
        // attempt is over — like get_user_pages returning -ENOMEM — and the
        // chunk is retried after a backoff.
        (void)shed_one_victim();
        std::size_t freed = 0;
        for (mem::VirtAddr va : as.resident_unpinned_pages()) {
          if (freed >= chunk - i + 8) break;
          if (as.swap_out(va)) ++freed;
        }
        if (freed == 0) {
          denied = true;
          break;
        }
        --i;  // retry this page
      }
    }
    r.commit_pins(frames);
    counters_.pages_pinned += frames.size();
    if (!frames.empty()) emit(obs::EventKind::kPinPages, r, "pages pinned");
    if (hard_failed) {
      ++counters_.pin_failures;
      finish(r, false, "failed");
      return;
    }
    // Any forward progress resets the budget: only a *stalled* frontier
    // counts against it, so sustained-but-survivable pressure cannot
    // starve a big region that pins a few pages per round.
    if (!frames.empty()) t->job.retries = 0;
    // The advance that completes the region is finish()'s to report, so
    // whole-region waiters run after the job has ended.
    wake(r, std::min(r.pinned_pages(), r.page_count() - 1), true);
    if (denied && frames.empty()) {
      retry_or_fail(r);
      return;
    }
    schedule_chunk(r);
  });
}

sim::Time PinManager::retry_backoff(int retries) const {
  sim::Time t = cfg_.pin_retry_backoff;
  for (int i = 1; i < retries && t < cfg_.pin_retry_backoff_max; ++i) {
    t *= 2;
  }
  return std::min(t, cfg_.pin_retry_backoff_max);
}

void PinManager::retry_or_fail(Region& r) {
  PinJob& job = entry(r.id())->job;
  if (job.retries >= cfg_.pin_retry_budget) {
    ++counters_.pin_retry_exhausted;
    ++counters_.pin_failures;
    finish(r, false, "retry budget exhausted");
    return;
  }
  ++job.retries;
  ++counters_.pin_retries;
  emit(obs::EventKind::kPinRetry, r, "transient pin denial, backing off");
  schedule_backoff(r, job.retries, {"pin", "retry_backoff"});
}

void PinManager::schedule_backoff(Region& r, int attempt, sim::TaskTag tag) {
  std::weak_ptr<char> alive = alive_;
  eng_.schedule_after(
      retry_backoff(attempt),
      [this, rid = r.id(), gen = entry(r.id())->job.generation, alive] {
        if (alive.expired()) return;  // the manager died during the backoff
        Tracked* t = entry(rid);
        if (t == nullptr || !t->job.active || t->job.generation != gen) {
          return;  // the job ended or restarted, or the region is gone
        }
        schedule_chunk(*t->region);
      },
      tag);
}

void PinManager::wake(Region& r, std::size_t frontier, bool ok) {
  auto& ws = entry(r.id())->job.waiters;
  const auto due =
      std::find_if(ws.begin(), ws.end(),
                   [frontier](const Waiter& w) { return w.pages > frontier; });
  if (due == ws.begin()) return;
  // Detached first: a waiter may re-enter and queue on this region again.
  std::vector<Waiter> run(std::make_move_iterator(ws.begin()),
                          std::make_move_iterator(due));
  ws.erase(ws.begin(), due);
  for (Waiter& w : run) w.done(ok);
}

void PinManager::finish(Region& r, bool ok, const char* what) {
  Tracked& t = *entry(r.id());
  PinJob& job = t.job;
  job.active = false;
  ++job.generation;
  t.was_pinned = t.was_pinned || ok;
  emit(ok ? obs::EventKind::kPinDone : obs::EventKind::kPinFail, r, what);

  if (!ok) {
    // Give back whatever partial pins we hold; a failed region holds none.
    do_unpin(t);
    t.failed = true;
  }

  const RegionId rid = r.id();
  wake(r, Region::npos, ok);
  // Requests that proceeded on a partial target and are now mid-
  // communication need an abort path when pinning later fails. A woken
  // waiter may have undeclared the region (an uncached request releases it
  // on completion); no request uses it then.
  if (ok || !failure_handler_) return;
  if (Region* still = find(rid)) failure_handler_(*still);
}

void PinManager::unpin(Region& r) {
  Tracked& t = *entry(r.id());
  if (t.job.active) {
    ++t.job.generation;
    t.job.active = false;
    emit(obs::EventKind::kPinFail, r, "cancelled");  // the job ends here
  }
  do_unpin(t);
}

void PinManager::do_unpin(Tracked& t) {
  Region& r = *t.region;
  t.failed = false;
  const bool had_pins = r.pinned_pages() > 0;
  do_unpin_from(r, 0);
  if (had_pins) emit(obs::EventKind::kPinUnpin, r, "unpinned");
}

void PinManager::do_unpin_from(Region& r, std::size_t first_slot) {
  auto pins = r.take_pins_from(first_slot);
  if (pins.empty()) return;
  auto& as = r.address_space();
  for (auto& [va, frame] : pins) as.unpin_page(va, frame);
  ++counters_.unpin_ops;
  counters_.pages_unpinned += pins.size();
  // In per-communication mode the unpin is part of the undeclare ioctl and
  // blocks the caller (it precedes whatever the application does next). In
  // the decoupled modes the driver releases pages in deferred context —
  // new syscalls overtake it, so it stays off the critical path. This is
  // half of what Figures 6-7 measure: the paper's model hides the unpin as
  // well as the pin. Charged in small quanta: the real page-release loop is
  // preemptible and must not block bottom halves for hundreds of µs.
  const auto prio = cfg_.mode == PinMode::kPerCommunication
                        ? cpu::Priority::kKernel
                        : cpu::Priority::kIdle;
  const sim::Time per_page = cpu_.unpin_cost(1) - cpu_.unpin_cost(0);
  std::size_t remaining = pins.size();
  core_.consume(prio, cpu_.unpin_cost(0));
  while (remaining > 0) {
    const std::size_t chunk = std::min(cfg_.pin_chunk_pages, remaining);
    core_.consume(prio, static_cast<sim::Time>(chunk) * per_page);
    remaining -= chunk;
  }
}

void PinManager::invalidate_range(mem::VirtAddr start, mem::VirtAddr end) {
  // Collect overlapping regions first, then process: a job that fails its
  // restart budget runs the failure handler, which may undeclare regions
  // (erasing from tracked_) mid-walk. Processing in ascending-id order is
  // part of the deterministic contract.
  std::vector<RegionId> hits;
  for (const auto& [rid, t] : tracked_) {
    if (t->region->overlaps(start, end)) hits.push_back(rid);
  }
  for (RegionId rid : hits) {
    Tracked* t = entry(rid);
    if (t == nullptr) continue;  // undeclared by an earlier iteration
    Region& r = *t->region;
    ++counters_.notifier_invalidations;

    // Range-granular response, like a real MMU-notifier driver: only pins
    // at or above the first invalidated page have stale translations.
    // Pages pin strictly in address order, so truncating the frontier at
    // that slot keeps every pin below it valid and DMA-visible. An
    // invalidation wholly ahead of the frontier — the swap daemon
    // reclaiming a page the pin job has not reached yet, the most common
    // storm event — costs no pins at all.
    const std::size_t cut = r.first_slot_overlapping(start, end);
    if (cut >= r.pinned_pages()) {
      emit(obs::EventKind::kPinInvalidate, r, "mmu notifier", cut);
      continue;
    }

    const bool mid_pin = t->job.active;
    if (mid_pin) ++t->job.generation;  // discard the chunk in flight
    do_unpin_from(r, cut);
    // Emitted post-truncation so sinks see the frontier the VM now relies
    // on; the invariant checker asserts it sits at or below the cut slot.
    emit(obs::EventKind::kPinInvalidate, r, "mmu notifier", cut);
    if (!mid_pin) continue;

    // An invalidation landing on an in-flight pin job restarts the job
    // (after a backoff) instead of failing its waiters: the overlapped
    // protocol already drops-and-retransmits frames that raced the unpin,
    // so a notifier storm must only *delay* the transfer, never abort it.
    // The restart budget bounds pathological storms — a job invalidated
    // over and over with no completion in between eventually fails cleanly
    // (the endpoint aborts) rather than live-locking the pin/unpin loop.
    PinJob& job = t->job;
    if (job.inval_restarts >= cfg_.pin_retry_budget) {
      ++counters_.pin_retry_exhausted;
      ++counters_.pin_failures;
      finish(r, false, "invalidation restart budget exhausted");
      continue;
    }
    ++job.inval_restarts;
    ++counters_.pin_inval_restarts;
    emit(obs::EventKind::kPinRestart, r, "invalidated mid-pin, restarting");
    schedule_backoff(r, job.inval_restarts, {"pin", "restart_backoff"});
  }
}

bool PinManager::shed_one_victim() {
  // Ascending-id walk of the ordered map: a last_use tie deterministically
  // picks the lowest region id (strict < keeps the first candidate).
  Tracked* victim = nullptr;
  for (const auto& [rid, t] : tracked_) {
    (void)rid;
    const Region& region = *t->region;
    if (region.use_count() != 0 || region.pinned_pages() == 0) continue;
    if (t->job.active) continue;
    if (victim == nullptr || t->last_use < victim->last_use) victim = t.get();
  }
  if (victim == nullptr) return false;  // nothing evictable
  ++counters_.pressure_unpins;
  emit(obs::EventKind::kPinShed, *victim->region, "memory pressure");
  do_unpin(*victim);
  return true;
}

}  // namespace pinsim::core
