#pragma once

#include <string_view>

#include "obs/event.hpp"

namespace pinsim::obs {

class Bus;

/// A consumer of typed events. Attached to one Bus at a time; `on_event`
/// sees every event in emission order with `e.life` pointing at the bus's
/// lifetime table, `finalize` runs once on the simulation thread when the
/// run ends — write files, run end-of-stream checks.
///
/// Where `on_event` runs is the sink's `inline_delivery()`:
///  - true (the default): on the emitting thread, inside the emit call, so
///    the sink may read simulator state or wall clocks at emission. One
///    such sink keeps the whole bus inline.
///  - false: on the bus's delivery thread, some time after the emit. Such
///    a sink reads nothing but its events; every public query and setter
///    calls `drain()` first, so what the simulation thread reads is as of
///    the last event emitted, and its destructor calls `wait_idle()`.
///    Hooks it calls from `on_event` run on that thread too and may touch
///    only sink state.
class Sink {
 public:
  Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  /// Detaches from the bus. A sink that is not inline must `wait_idle()`
  /// in its own destructor, before its members go.
  virtual ~Sink();

  virtual void on_event(const Event& e) = 0;
  virtual void finalize() {}
  [[nodiscard]] virtual bool inline_delivery() const noexcept { return true; }

 protected:
  /// Waits until the bus has delivered every event emitted so far and
  /// rethrows what a sink threw on the delivery thread. A no-op when
  /// unattached or on the delivery thread itself.
  void drain() const;
  /// `drain()` without the rethrow, for destructors: a pending exception
  /// stays for the next drain.
  void wait_idle() const noexcept;
  /// Writes `text` to stderr from the simulation thread: at once when
  /// called there, else at the bus's next drain, so stderr keeps the order
  /// of the drains.
  void print_stderr(std::string_view text) const;

 private:
  friend class Bus;
  Bus* bus_ = nullptr;
};

}  // namespace pinsim::obs
