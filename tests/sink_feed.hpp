#pragma once

#include <span>

#include "obs/event.hpp"
#include "obs/lifetimes.hpp"
#include "obs/sink.hpp"

namespace pinsim::test {

/// Feeds hand-crafted events to one sink the way obs::Bus does, through a
/// lifetime table of its own, but keeps each event's time as written.
class SinkFeed {
 public:
  explicit SinkFeed(obs::Sink& sink) : sink_(&sink) {}

  void operator()(obs::Event e) {
    e.life = &life_;
    life_.deliver(e, std::span<obs::Sink* const>(&sink_, 1));
  }

 private:
  obs::Sink* sink_;
  obs::Lifetimes life_;
};

}  // namespace pinsim::test
