// Wall-clock ledger for a traced benchmark unit. Every span is opened and
// closed by the benchmark itself, around calls it makes into the simulator's
// public API: engine slices, dispatches (through a DispatchObserver), obs
// sink callbacks (through a Sink wrapper) and the benchmark's own loop. A
// span's self time is its duration minus the spans nested inside it, so the
// per-layer self times partition the measured phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/sink.hpp"
#include "sim/engine.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spins for `ns` of wall time (the attribution self-test's known cost).
void busy_wait(std::uint64_t ns) noexcept;

class Ledger {
 public:
  struct Layer {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Returns the id of layer `name`, creating it on first use.
  int layer(const std::string& name);

  /// Opens a span of `layer`; `keep` also records it for json().
  void open(int layer, bool keep = false);
  void close();

  /// Layer of the innermost open span, -1 when none is open.
  [[nodiscard]] int top() const noexcept {
    return stack_.empty() ? -1 : stack_.back().layer;
  }

  /// Moves `ns` of self time from layer `from` to layer `to` (used to carve
  /// the replayed codec cost out of the handlers that ran it).
  void move_self(int from, int to, std::uint64_t ns);

  [[nodiscard]] const std::vector<Layer>& layers() const noexcept {
    return layers_;
  }

  /// Chrome-trace JSON of the kept spans plus the per-layer table.
  [[nodiscard]] std::string json() const;

 private:
  /// A coarse span kept verbatim for the trace file (run and slice level).
  struct Span {
    int layer = 0;
    int parent = -1;  // index into spans_, -1 for a root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Frame {
    int layer;
    int span;  // kept span index or -1
    std::uint64_t start;
    std::uint64_t child;
  };
  std::vector<Layer> layers_;
  std::unordered_map<std::string, int> index_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

/// RAII span; a null ledger makes it free (untraced runs).
class Scope {
 public:
  Scope(Ledger* l, int layer, bool keep = false) : l_(l) {
    if (l_ != nullptr) l_->open(layer, keep);
  }
  ~Scope() {
    if (l_ != nullptr) l_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* l_;
};

/// Times every engine dispatch as a span of the layer its TaskTag maps to,
/// and keeps per-tag dispatch counts and schedule->dispatch lag.
class TimedObserver final : public pinsim::sim::DispatchObserver {
 public:
  TimedObserver(Ledger& ledger, pinsim::sim::Engine& eng);
  ~TimedObserver() override;
  TimedObserver(const TimedObserver&) = delete;
  TimedObserver& operator=(const TimedObserver&) = delete;

  void on_dispatch_begin(const pinsim::sim::TaskTag& tag,
                         pinsim::sim::Time scheduled_at,
                         pinsim::sim::Time now) override;
  void on_dispatch_end(const pinsim::sim::TaskTag& tag) override;

  /// Self-test hook: every dispatch whose component is `component` spins for
  /// `ns` inside its span.
  void inject(std::string component, std::uint64_t ns) {
    inject_component_ = std::move(component);
    inject_ns_ = ns;
  }

  /// Dispatches per tag, keyed "component/label".
  [[nodiscard]] std::map<std::string, std::uint64_t> dispatches() const;
  /// Schedule->dispatch simulated lag of every cpu/bottom_half dispatch.
  [[nodiscard]] std::vector<std::uint32_t>& bh_lag() noexcept {
    return bh_lag_;
  }

 private:
  struct Slot {
    const char* component;
    const char* label;
    int layer;
    bool bh;
    bool inject;
    std::uint64_t dispatches;
  };
  Slot& slot_for(const pinsim::sim::TaskTag& tag);
  int layer_for(const pinsim::sim::TaskTag& tag);

  Ledger& ledger_;
  pinsim::sim::Engine& eng_;
  std::vector<Slot> slots_;
  std::string inject_component_;
  std::uint64_t inject_ns_ = 0;
  std::vector<std::uint32_t> bh_lag_;
};

/// One bus sink standing in for the run's observability sinks: forwards each
/// event to every wrapped sink in order, timing each call as a span of
/// "obs.<name>". It also counts, per enclosing layer, the packets encoded
/// (kPktTx) and decoded (kPktRx), which the codec replay prices afterwards.
class TimedFanout final : public pinsim::obs::Sink {
 public:
  static constexpr int kPacketTypes = 9;  // PacketType values 1..8
  struct Codec {
    std::uint64_t encoded[kPacketTypes] = {};
    std::uint64_t decoded[kPacketTypes] = {};
  };

  explicit TimedFanout(Ledger& ledger) : ledger_(ledger) {}

  void add(std::string name, pinsim::obs::Sink* sink);
  void inject(const std::string& name, std::uint64_t ns);

  void on_event(const pinsim::obs::Event& e) override;
  void finalize() override;

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// Codec work by enclosing ledger layer.
  [[nodiscard]] const std::map<int, Codec>& codec() const noexcept {
    return codec_;
  }
  /// Mean payload bytes of posted eager messages (0 when none).
  [[nodiscard]] std::size_t eager_bytes() const noexcept {
    return eager_posts_ == 0 ? 0 : eager_len_ / eager_posts_;
  }

 private:
  struct Entry {
    pinsim::obs::Sink* sink;
    int layer;
    std::uint64_t inject_ns;
  };
  Ledger& ledger_;
  std::vector<Entry> sinks_;
  std::uint64_t events_ = 0;
  std::map<int, Codec> codec_;
  std::uint64_t eager_posts_ = 0;
  std::uint64_t eager_len_ = 0;
};

/// Prices the run's codec work: times core::encode and core::decode_frame
/// per packet type on frames of the run's sizes, then moves that much self
/// time from each enclosing layer to "core.wire.codec".
void replay_codec(Ledger& ledger, const TimedFanout& fanout,
                  std::size_t frame_payload);

}  // namespace perfbench
