#pragma once

#include "obs/bus.hpp"
#include "obs/event.hpp"

namespace pinsim::obs {

/// The per-component emission point: a Bus pointer for typed sinks, null
/// when nothing is attached. Components own a Relay (or hold a pointer to
/// one with a stable address) and emit typed events through it.
///
/// A relay registers itself with the bus it points at and unregisters when
/// repointed or destroyed, feeding the Bus teardown-order guard: destroying
/// a bus that a live relay still targets aborts with a diagnostic instead
/// of leaving a dangling pointer. Move-only — a copy would double-count its
/// registration.
class Relay {
 public:
  Relay() = default;
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;
  Relay(Relay&& o) noexcept : bus_(o.bus_) { o.bus_ = nullptr; }
  Relay& operator=(Relay&& o) noexcept {
    if (this != &o) {
      if (bus_ != nullptr) bus_->unregister_emitter();
      bus_ = o.bus_;
      o.bus_ = nullptr;
    }
    return *this;
  }
  ~Relay() {
    if (bus_ != nullptr) bus_->unregister_emitter();
  }

  void set_bus(Bus* b) noexcept {
    if (bus_ == b) return;
    if (bus_ != nullptr) bus_->unregister_emitter();
    if (b != nullptr) b->register_emitter();
    bus_ = b;
  }
  [[nodiscard]] Bus* bus() const noexcept { return bus_; }

  [[nodiscard]] bool active() const noexcept {
    return bus_ != nullptr && bus_->active();
  }

  void emit(const Event& e) const {
    if (active()) bus_->emit(e);
  }

 private:
  Bus* bus_ = nullptr;
};

}  // namespace pinsim::obs
