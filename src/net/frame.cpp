#include "net/frame.hpp"

namespace pinsim::net {

mem::BufferPool& frame_buffers() {
  // pinlint: allow(D3: leaked on purpose; frames in objects with static
  // storage may be destroyed after a function-local pool would be)
  static auto* const pool = new mem::BufferPool;
  return *pool;
}

}  // namespace pinsim::net
