#include "obs/event.hpp"

#include <string>

namespace pinsim::obs {

std::string describe(const Event& e) {
  std::string out = "[" + std::to_string(sim::to_usec(e.time)) + "us] " +
                    event_kind_name(e.kind) + " node=" +
                    std::to_string(e.node) + " ep=" + std::to_string(e.ep);
  if (e.peer != 0 || e.peer_ep != 0) {
    out += " peer=" + std::to_string(e.peer) + "." +
           std::to_string(e.peer_ep);
  }
  if (e.region != 0) out += " region=" + std::to_string(e.region);
  if (e.seq != 0) out += " seq=" + std::to_string(e.seq);
  if (e.offset != 0) out += " offset=" + std::to_string(e.offset);
  if (e.len != 0) out += " len=" + std::to_string(e.len);
  if (e.label != nullptr) out += std::string(" \"") + e.label + "\"";
  return out;
}

}  // namespace pinsim::obs
