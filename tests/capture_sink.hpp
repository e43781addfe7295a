#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace pinsim::test {

/// A bus sink that keeps every typed event it sees, in emission order, so a
/// test can assert on what the stack did and in which order.
struct CaptureSink final : obs::Sink {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  void on_event(const obs::Event& e) override { events.push_back(e); }

  /// Index of the first event of `kind` whose label equals `label` (any
  /// label when null), or npos.
  [[nodiscard]] std::size_t find_first(obs::EventKind kind,
                                       const char* label = nullptr) const {
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::Event& e = events[i];
      if (e.kind != kind) continue;
      if (label == nullptr ||
          (e.label != nullptr && std::strcmp(e.label, label) == 0)) {
        return i;
      }
    }
    return npos;
  }

  std::vector<obs::Event> events;
};

}  // namespace pinsim::test
