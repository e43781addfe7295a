#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/physical_memory.hpp"

namespace pinsim::mem {

/// Cross-tenant pin arbitration over one host's shared pin quota.
///
/// Several processes (tenants) on a multi-tenant host compete for one
/// `PhysicalMemory` pin quota. Without arbitration, whoever pins first wins
/// and a tenant whose idle cached regions fill the quota starves the rest —
/// the classic problem with RLIMIT_MEMLOCK-style per-host accounting. The
/// contract is: **busy pins are protected, idle pins are reclaimable** by
/// any tenant's waiting pin job (paper §3.1: a declared, idle region is
/// revocable — the next use repins it).
///
///  * **fair-share floor**: each tenant is entitled to
///    `weight_i / total_weight` of the quota. The floor orders victims; it
///    refuses no requester and shields no victim.
///  * **weighted LRU shedding**: when a tenant is denied by the quota, the
///    arbiter asks the other tenants — most-over-floor first, normalized by
///    weight, then those at or under their floor — to shed one idle (LRU,
///    unreferenced) region each until a page of headroom appears. A tenant
///    whose regions are all in use yields nothing.
///
/// Everything is deterministic: tenants are ranked by exact integer
/// arithmetic with ascending-registration-id tie-breaks, and shedding
/// reuses each tenant's own deterministic LRU walk.
class PinArbiter {
 public:
  /// What the arbiter needs from a tenant (implemented by core::PinManager).
  /// Kept abstract so mem/ stays independent of core/.
  class TenantOps {
   public:
    virtual ~TenantOps() = default;
    /// Pages this tenant currently holds pinned.
    [[nodiscard]] virtual std::size_t arb_pinned_pages() const = 0;
    /// Sheds one idle region's pins (LRU first). Returns false when every
    /// region is busy — the tenant cannot yield anything right now.
    virtual bool arb_shed_idle() = 0;
  };

  struct TenantStats {
    std::uint64_t requests = 0;        // headroom requests made
    std::uint64_t grants = 0;          // requests satisfied by shedding
    std::uint64_t sheds_suffered = 0;  // times picked as the shed victim
  };

  explicit PinArbiter(PhysicalMemory& pm) : pm_(pm) {}

  PinArbiter(const PinArbiter&) = delete;
  PinArbiter& operator=(const PinArbiter&) = delete;

  /// Registers a tenant with a scheduling weight (>= 1). Ids ascend and are
  /// never reused, so registration order fixes all tie-breaks.
  std::uint32_t register_tenant(TenantOps* ops, std::uint32_t weight);

  /// Detaches a dying tenant; its stats slot survives for reporting.
  void unregister_tenant(std::uint32_t id);

  /// A quota denial landed on `requester`: try to free headroom by shedding
  /// other tenants' idle regions in floor-overage order. Returns true when
  /// at least one page of headroom exists on return (the caller's retry
  /// will succeed).
  bool request_headroom(TenantOps* requester);

  /// The requester's fair-share floor in pages (weight-proportional slice
  /// of the pin quota). Unlimited quota means an unlimited floor.
  [[nodiscard]] std::size_t fair_floor(std::uint32_t id) const;

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return live_count_;
  }
  [[nodiscard]] const TenantStats& stats(std::uint32_t id) const {
    return slots_.at(id).stats;
  }
  [[nodiscard]] std::uint64_t total_requests() const noexcept {
    return total_requests_;
  }
  [[nodiscard]] std::uint64_t total_grants() const noexcept {
    return total_grants_;
  }
  [[nodiscard]] std::uint64_t total_sheds() const noexcept {
    return total_sheds_;
  }

 private:
  struct Slot {
    TenantOps* ops = nullptr;  // nullptr once unregistered
    std::uint32_t weight = 1;
    TenantStats stats;
  };

  [[nodiscard]] std::size_t floor_for(const Slot& s) const;

  PhysicalMemory& pm_;
  std::vector<Slot> slots_;  // indexed by tenant id; never shrinks
  std::size_t live_count_ = 0;
  std::uint32_t total_weight_ = 0;
  std::uint64_t total_requests_ = 0;
  std::uint64_t total_grants_ = 0;
  std::uint64_t total_sheds_ = 0;
};

}  // namespace pinsim::mem
