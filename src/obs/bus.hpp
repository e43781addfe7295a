#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/lifetimes.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"

namespace pinsim::obs {

/// The typed event bus: emitters hand it POD events, the bus stamps the
/// simulated time and delivers each, in emission order, to every attached
/// sink through its lifetime table (obs/lifetimes.hpp), which every sink
/// reads from the event. With no sinks attached `active()` is false and
/// emitters skip event construction, so an uninstrumented run pays one
/// pointer compare per site.
///
/// Delivery runs on one of two threads:
///  - inline, inside `emit` on the emitting thread, when an attached sink
///    asks for it (`Sink::inline_delivery`, the default) or when this
///    process may run on one CPU only;
///  - otherwise on the bus's worker thread: `emit` copies the stamped event
///    into a fixed single-producer/single-consumer ring of 64-byte slots
///    (publishing the head every kPublishEvery events and at every drain)
///    and returns, and the worker runs `Lifetimes::deliver` and the sinks.
///    An idle worker sleeps; the bus wakes it every kWakeEvery events, when
///    the ring is full and at every drain.
/// Either way each sink sees the same sequence with the same lifetime
/// rows, and a sink's output is a function of that sequence alone, so
/// every report, trace and dump is byte-identical between the two.
///
/// `drain()` waits for the worker to empty the ring, prints the stderr text
/// sinks queued on the worker and rethrows an exception a sink threw there
/// (events after such a throw are not delivered). The bus drains in
/// `attach`, `detach`, `finalize` and its destructor; a worker-delivered
/// sink drains in each of its queries. The worker starts with the first
/// event it is to deliver and is joined when the bus is destroyed: at most
/// one per bus.
///
/// Teardown-order guard: emitters that keep a Bus pointer register via
/// register_emitter() (obs::Relay does this automatically; raw Bus* holders
/// like net::Fabric do it in set_bus). The destructor aborts with a
/// diagnostic if any emitter is still registered — the old silent contract
/// ("the bus must outlive every component that emits into it, or be
/// detached first") now fails loudly instead of as a dangling pointer.
class Bus {
 public:
  explicit Bus(sim::Engine& eng);
  ~Bus();

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Emitter registration, used by the teardown-order guard above.
  void register_emitter() noexcept { ++emitters_; }
  void unregister_emitter() noexcept {
    if (emitters_ > 0) --emitters_;
  }
  [[nodiscard]] std::size_t emitters() const noexcept { return emitters_; }

  /// Adds `s` (moving it off any other bus); a repeat is a no-op.
  void attach(Sink* s);
  void detach(Sink* s);

  [[nodiscard]] bool active() const noexcept { return !sinks_.empty(); }
  /// Whether delivery runs on the worker thread (see the class comment).
  [[nodiscard]] bool threaded() const noexcept { return threaded_; }

  void emit(const Event& e) {
    if (!threaded_ || (head_ - room_ == kSlots && !make_room())) {
      Event stamped = e;
      stamped.time = eng_.now();
      stamped.life = &life_;
      life_.deliver(stamped, sinks_);
      return;
    }
    // The slot a few pushes ahead was last read on the worker's core; ask
    // for it in writable state now, so that push does not wait for it.
    __builtin_prefetch(&ring_[(head_ + kPrefetchAhead) & (kSlots - 1)], 1);
    Event& slot = ring_[head_ & (kSlots - 1)].event;
    slot = e;
    slot.time = eng_.now();
    slot.life = &life_;
    if ((++head_ & (kPublishEvery - 1)) == 0) publish(false);
  }

  /// Run end: drains, then flushes every sink on this thread (idempotent
  /// per attach — callers run it once).
  void finalize();

  /// Waits until every event emitted so far is delivered, prints the
  /// queued stderr text and rethrows a sink's exception from the worker.
  /// A no-op on the worker itself.
  void drain();

 private:
  /// Ring slots: 8 Ki of 64 bytes, 512 KiB per threaded bus.
  static constexpr std::uint64_t kSlots = std::uint64_t{1} << 13;
  /// Events between head publications (and between the worker's reports
  /// of how far it got).
  static constexpr std::uint64_t kPublishEvery = 256;
  /// Events between wake-ups of a sleeping worker, so the wake-up's system
  /// call is paid once per batch; a drain or a full ring wakes it at once.
  static constexpr std::uint64_t kWakeEvery = 2048;
  static_assert(kWakeEvery % kPublishEvery == 0);
  /// Polls of the head before an idle worker sleeps.
  static constexpr unsigned kIdleSpins = 64;
  /// How far ahead of the head `emit` prefetches a slot for writing.
  static constexpr std::uint64_t kPrefetchAhead = 4;

  struct alignas(64) Slot {
    Event event;
  };
  static_assert(sizeof(Slot) == 64, "an event fills one cache line");

  friend class Sink;  // its drain, wait_idle, print_stderr and destructor

  /// `drain()` without the rethrow and the printing (destructors).
  void wait_idle() noexcept;
  /// Writes `text` to stderr at once on the simulation thread, at the next
  /// drain when called on the worker.
  void print_stderr(std::string_view text);
  /// Whether the calling thread is this bus's worker.
  [[nodiscard]] bool on_worker() const noexcept;
  /// Removes `s` once the worker is idle, without drain's rethrow.
  void forget(Sink* s) noexcept;
  void retune() noexcept;
  /// Waits for a free slot, first starting the worker; false when it
  /// cannot start, which turns delivery inline.
  [[nodiscard]] bool make_room();
  [[nodiscard]] bool start_worker() noexcept;
  /// Makes the pushed events visible to the worker, waking it when asleep
  /// and `wake_now` or a batch is full.
  void publish(bool wake_now);
  void wake();
  void run();
  void deliver(const Event& e) noexcept;
  void idle(std::uint64_t tail);
  void print_backlog();

  sim::Engine& eng_;
  std::vector<Sink*> sinks_;
  std::size_t emitters_ = 0;
  bool one_cpu_;  // the affinity mask holds one CPU: stay inline

  // Producer side (the simulation thread), on a line of its own: the
  // worker writes the lifetime table at every event.
  alignas(64) bool threaded_ = false;
  std::unique_ptr<Slot[]> ring_;
  std::uint64_t head_ = 0;  // events pushed
  std::uint64_t room_ = 0;  // `consumed_` as last read; kSlots back while
                            // the worker has not started

  // Shared, each on its own cache line.
  alignas(64) std::atomic<std::uint64_t> published_{0};
  alignas(64) std::atomic<std::uint64_t> consumed_{0};
  alignas(64) std::atomic<std::uint32_t> bell_{0};  // rung to wake a sleeper
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> stopping_{false};

  // Worker side; read by the simulation thread only after a drain (and
  // the table on that thread when delivery is inline).
  alignas(64) Lifetimes life_;
  std::exception_ptr error_;  // the first exception a sink threw
  std::string stderr_backlog_;
  std::thread worker_;
};

}  // namespace pinsim::obs
