#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/hash_map.hpp"

namespace pinsim::obs {

/// Online protocol/pin-state-machine validator. Attached to a Bus, it keeps
/// a shadow model per (node, endpoint, region|seq|handle) and flags any
/// event stream that a correct stack could never produce:
///
///  * no copy touches a page above the pinned frontier (DMA-on-unpinned);
///  * pins never survive an MMU invalidation of their range — after a
///    kPinInvalidate the frontier must sit at or below the cut slot;
///  * the pin frontier only advances; it retreats only through
///    invalidate/unpin/shed/fail events;
///  * every rendezvous/eager send terminates in completion or clean abort,
///    and every pull transfer in done or abort (checked at finalize);
///  * retransmission retry counts are strictly monotonic per request;
///  * a crash sweep (kLifeCrash) returns the host's pinned-page count
///    exactly to the pre-crash non-tenant baseline — no leaks, no
///    double-unpins — and retires the dead incarnation's shadow state;
///  * a bounded switch-port queue never reports a depth above its capacity
///    (kNetPortQueue carries depth in `offset`, capacity in `len`).
///
/// Violations carry the offending event plus a window of the events leading
/// up to it, so a failing soak prints the interleaving, not just a boolean.
class InvariantChecker final : public Sink {
 public:
  struct Violation {
    std::string message;
    Event event;
    std::vector<Event> window;  // the events leading up to `event`
  };

  explicit InvariantChecker(std::size_t page_bytes = 4096)
      : page_bytes_(page_bytes == 0 ? 4096 : page_bytes) {}

  void on_event(const Event& e) override;

  /// End-of-stream checks: any send/pull still open is an orphan.
  void finalize() override;

  [[nodiscard]] bool ok() const noexcept { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

  /// Human-readable report of every stored violation and its event window.
  [[nodiscard]] std::string report() const;

  /// Called synchronously from violate() with the stored violation (only
  /// for the first kMaxStored — later ones are counted, not stored). The
  /// flight recorder hooks this to dump its window post-mortem.
  void set_violation_hook(std::function<void(const Violation&)> hook) {
    violation_hook_ = std::move(hook);
  }

 private:
  static constexpr std::size_t kWindow = 64;        // events kept per violation
  static constexpr std::size_t kMaxStored = 32;     // violations kept verbatim

  struct RegionModel {
    std::uint64_t pinned = 0;  // shadow frontier, in pages
    std::uint64_t total = 0;
  };

  void violate(const Event& e, std::string message);
  void on_pin_event(const Event& e);
  /// Forgets every shadow model owned by (node, ep) — called on kLifeCrash,
  /// where the next incarnation legitimately reuses ids from 1.
  void drop_endpoint_state(std::uint32_t node, std::uint8_t ep);

  [[nodiscard]] static std::uint64_t key(std::uint32_t node, std::uint8_t ep,
                                         std::uint32_t id) noexcept {
    return (static_cast<std::uint64_t>(node) << 40) |
           (static_cast<std::uint64_t>(ep) << 32) |
           static_cast<std::uint64_t>(id);
  }

  std::size_t page_bytes_;
  sim::HashMap<RegionModel> regions_;
  sim::HashMap<Event> open_sends_;
  sim::HashMap<Event> open_pulls_;
  sim::HashMap<std::uint64_t> send_retries_;  // open sends' last retry
  std::array<Event, kWindow> window_;  // ring of the latest events
  std::size_t window_head_ = 0;        // oldest event once the ring is full
  std::size_t window_held_ = 0;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::function<void(const Violation&)> violation_hook_;
};

}  // namespace pinsim::obs
