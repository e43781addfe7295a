#pragma once

#include "obs/event.hpp"

namespace pinsim::obs {

/// A consumer of typed events. Attached to a Bus; `on_event` runs inline at
/// emission (keep it cheap) with `e.life` pointing at the bus's lifetime
/// table, `finalize` runs once when the run ends — write files, run
/// end-of-stream checks.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& e) = 0;
  virtual void finalize() {}
};

}  // namespace pinsim::obs
