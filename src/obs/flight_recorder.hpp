#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace pinsim::obs {

/// Always-on post-mortem ring: a fixed-capacity sink that keeps the most
/// recent events in a compact per-kind encoding and, when something dies —
/// an invariant violation, an abort or a watchdog death declaration the run
/// did not expect, an Engine::self_check failure — dumps the window as a
/// Chrome-trace loadable `.flight.json` plus a text digest on stderr.
///
/// Cheap enough to leave attached on every bench run: on_event is a table
/// lookup plus a 40-byte ring store, no allocation past the constructor.
///
/// Determinism contract (DESIGN.md §10): recorded/dropped/dump-attempt
/// counters and the rendered JSON are pure functions of the event stream.
/// Dump *attempts* are counted even when the file-write cap or an I/O error
/// suppresses the actual write, so report counters never depend on disk
/// state.
class FlightRecorder final : public Sink {
 public:
  struct Config {
    std::size_t capacity = 4096;  // ring entries (rounded up to >= 16)
    std::size_t max_dumps = 4;    // files written per recorder lifetime
    std::string dump_prefix = "flight";  // <prefix>-<n>.flight.json
    /// The abort causes the run expects, one bit per cause code (bit c =
    /// code c, the `len` of kSendAbort/kRecvAbort; kLifePeerDead counts as
    /// kPeerDeadCause). An abort with any other cause dumps, so the empty
    /// set dumps on every abort.
    std::uint32_t expected_aborts = 0;
  };

  FlightRecorder();
  explicit FlightRecorder(Config cfg);
  ~FlightRecorder() override { wait_idle(); }

  void on_event(const Event& e) override;
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  /// Post-mortem dump: writes `<prefix>-<attempt>.flight.json` and prints
  /// the text digest to stderr (on the bus's worker, queued for its next
  /// drain). Returns the path written, or "" when the dump cap suppressed
  /// the write or the write failed. Always bumps the attempt counter.
  std::string dump(std::string_view reason);

  [[nodiscard]] std::uint64_t recorded() const {
    drain();
    return recorded_;
  }
  [[nodiscard]] std::uint64_t dropped() const {
    drain();
    return dropped_;
  }
  [[nodiscard]] std::uint64_t dump_attempts() const {
    drain();
    return dump_attempts_;
  }
  [[nodiscard]] std::size_t size() const {
    drain();
    return held_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// The `.flight.json` body (Chrome Trace Event JSON): one "i" instant per
  /// held event, oldest first, plus metadata (reason, counters).
  [[nodiscard]] std::string render(std::string_view reason) const;

  /// Short text digest: the last `tail` events, one line each.
  [[nodiscard]] std::string digest(std::string_view reason,
                                   std::size_t tail = 16) const;

  /// The `"flight"` report section (all-deterministic counters).
  [[nodiscard]] std::string json() const;

 private:
  /// One ring entry: the generic identity fields every kind carries plus
  /// the kind's three slot words (its PINSIM_EVENT_KINDS row). 40 bytes vs
  /// the 64-byte Event: the label and table pointers and the fields the row
  /// does not name are dropped.
  struct CompactEvent {
    sim::Time time = 0;
    std::uint64_t slot[3] = {};  // named by event_kind_row(kind).slot_name
    std::uint32_t node = 0;
    EventKind kind = EventKind::kPktTx;
    std::uint8_t ep = 0;
  };
  static_assert(sizeof(CompactEvent) == 40);

  [[nodiscard]] static CompactEvent compact_encode(const Event& e) noexcept;

  void append_entry_json(std::string& out, const CompactEvent& ce) const;
  void for_each_held(const std::function<void(const CompactEvent&)>& fn) const;

  std::size_t cap_;
  std::size_t max_dumps_;
  std::string dump_prefix_;
  std::uint32_t expected_aborts_;
  std::vector<CompactEvent> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t held_ = 0;  // entries stored (== cap_ once wrapped)
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dump_attempts_ = 0;
  bool dumping_ = false;  // re-entrancy guard for auto-dump
};

}  // namespace pinsim::obs
