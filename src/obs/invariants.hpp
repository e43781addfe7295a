#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace pinsim::obs {

/// Online protocol/pin-state-machine validator. Attached to a Bus, it reads
/// the bus's lifetime table (the frontier of each (node, endpoint, region),
/// the open sends and pulls) and flags any event stream that a correct stack
/// could never produce:
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
///    double-unpins;
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
  ~InvariantChecker() override { wait_idle(); }

  void on_event(const Event& e) override;
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  /// End-of-stream checks: any send/pull still open is an orphan.
  void finalize() override;

  [[nodiscard]] bool ok() const {
    drain();
    return violation_count_ == 0;
  }
  [[nodiscard]] std::uint64_t violation_count() const {
    drain();
    return violation_count_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    drain();
    return violations_;
  }

  /// Human-readable report of every stored violation and its event window.
  [[nodiscard]] std::string report() const;

  /// Called synchronously from violate() with the stored violation (only
  /// for the first kMaxStored — later ones are counted, not stored). The
  /// flight recorder hooks this to dump its window post-mortem. It runs
  /// where on_event does, on the bus's worker, so it may touch only sink
  /// state.
  void set_violation_hook(std::function<void(const Violation&)> hook) {
    drain();
    violation_hook_ = std::move(hook);
  }

 private:
  static constexpr std::size_t kWindow = 64;        // events kept per violation
  static constexpr std::size_t kMaxStored = 32;     // violations kept verbatim

  void violate(const Event& e, std::string message);

  std::size_t page_bytes_;
  const Lifetimes* life_ = nullptr;  // the stream's table, for finalize
  std::array<Event, kWindow> window_;  // ring of the latest events
  std::size_t window_head_ = 0;        // oldest event once the ring is full
  std::size_t window_held_ = 0;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::function<void(const Violation&)> violation_hook_;
};

}  // namespace pinsim::obs
