#include "mem/pin_arbiter.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pinsim::mem {

std::uint32_t PinArbiter::register_tenant(TenantOps* ops,
                                          std::uint32_t weight) {
  if (ops == nullptr) {
    throw std::invalid_argument("pin arbiter tenant must not be null");
  }
  if (weight == 0) {
    throw std::invalid_argument("pin arbiter tenant weight must be >= 1");
  }
  Slot s;
  s.ops = ops;
  s.weight = weight;
  slots_.push_back(s);
  ++live_count_;
  total_weight_ += weight;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void PinArbiter::unregister_tenant(std::uint32_t id) {
  Slot& s = slots_.at(id);
  if (s.ops == nullptr) return;
  s.ops = nullptr;
  --live_count_;
  total_weight_ -= s.weight;
}

std::size_t PinArbiter::floor_for(const Slot& s) const {
  const std::size_t quota = pm_.pin_quota();
  if (quota == std::numeric_limits<std::size_t>::max() ||
      total_weight_ == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  return quota * s.weight / total_weight_;
}

std::size_t PinArbiter::fair_floor(std::uint32_t id) const {
  return floor_for(slots_.at(id));
}

bool PinArbiter::request_headroom(TenantOps* requester) {
  // The requester registered itself, so a linear scan over the (small,
  // ascending-id) slot table finds it deterministically.
  Slot* req = nullptr;
  for (Slot& s : slots_) {
    if (s.ops == requester) {
      req = &s;
      break;
    }
  }
  if (req == nullptr) return false;

  ++req->stats.requests;
  ++total_requests_;

  if (pm_.pin_headroom() > 0) {
    // Someone freed pages between the denial and this call; nothing to do.
    ++req->stats.grants;
    ++total_grants_;
    return true;
  }

  // Rank shed candidates by weighted overage (pinned - floor) / weight,
  // largest first; compare by cross-multiplication to stay in exact integer
  // arithmetic. A tenant at or under its floor ranks with overage 0, after
  // every over-floor tenant: the floor orders the victims but shields no
  // one, because `arb_shed_idle` only ever takes an idle region. Ascending
  // registration id breaks ties.
  struct Candidate {
    std::uint32_t id;
    std::size_t overage;
    std::uint32_t weight;
  };
  std::vector<Candidate> candidates;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& s = slots_[id];
    if (s.ops == nullptr || s.ops == requester) continue;
    const std::size_t pinned = s.ops->arb_pinned_pages();
    const std::size_t floor = floor_for(s);
    candidates.push_back({id, pinned > floor ? pinned - floor : 0, s.weight});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     const auto lhs = static_cast<std::uint64_t>(a.overage) *
                                      b.weight;
                     const auto rhs = static_cast<std::uint64_t>(b.overage) *
                                      a.weight;
                     if (lhs != rhs) return lhs > rhs;
                     return a.id < b.id;
                   });

  for (const Candidate& c : candidates) {
    Slot& victim = slots_[c.id];
    if (!victim.ops->arb_shed_idle()) continue;  // everything busy, next
    ++victim.stats.sheds_suffered;
    ++total_sheds_;
    if (pm_.pin_headroom() > 0) {
      ++req->stats.grants;
      ++total_grants_;
      return true;
    }
  }
  return pm_.pin_headroom() > 0;
}

}  // namespace pinsim::mem
