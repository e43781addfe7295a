#pragma once

#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace pinsim::obs {

/// Collects the event stream and writes a Chrome Trace Event JSON file (the
/// `chrome://tracing` / Perfetto "traceEvents" array format) at finalize.
///
/// Layout: one track per (node, endpoint) pair — pid = node, tid = endpoint.
/// Pin jobs and pull transfers render as async spans ("b"/"e"), everything
/// else as instants. Flow arrows tie each rendezvous chain together:
/// rndv post (s) -> pull start (t) -> retransmissions/pull retries (t) ->
/// send completion (f), keyed by the sender-side (node, ep, seq) triple, so
/// an overlap-miss retransmission chain reads as one connected arc.
class ChromeTraceWriter final : public Sink {
 public:
  explicit ChromeTraceWriter(std::string path) : path_(std::move(path)) {}
  ~ChromeTraceWriter() override { wait_idle(); }

  void on_event(const Event& e) override { events_.push_back(e); }
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  /// Writes the trace file. Returns silently on I/O failure after printing
  /// a warning (a failed trace dump must never fail the run it observed).
  void finalize() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t event_count() const {
    drain();
    return events_.size();
  }

  /// The serialized JSON (also what finalize writes); exposed for tests.
  [[nodiscard]] std::string render() const;

 private:
  std::string path_;
  std::vector<Event> events_;
  bool written_ = false;
};

}  // namespace pinsim::obs
