#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/pool.hpp"

namespace pinsim::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// Per-frame Ethernet overhead on the wire: preamble+SFD (8), MAC header
/// (14), FCS (4), inter-frame gap (12).
inline constexpr std::size_t kEthernetOverhead = 38;

/// Minimum Ethernet payload (frames are padded up to this on the wire).
inline constexpr std::size_t kMinPayload = 46;

/// Process-wide recycling pool for frame payload buffers. The MXoE encoder
/// draws frames from it, and every Frame and core::DataChunk returns its
/// buffer on destruction, so steady-state traffic stops allocating per
/// frame — frames dropped anywhere in the network included. The simulator
/// is single-threaded; the pool is not synchronized.
[[nodiscard]] mem::BufferPool& frame_buffers();

/// An Ethernet frame in flight. The payload is real bytes: the MXoE layer
/// serializes its packet headers and message data into it, so tests can
/// verify the wire protocol end to end. Destroying a frame recycles its
/// payload buffer into frame_buffers(), whichever layer drops it.
struct Frame {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<std::byte> payload;

  Frame() = default;
  Frame(NodeId from, NodeId to, std::vector<std::byte> bytes)
      : src(from), dst(to), payload(std::move(bytes)) {}
  Frame(const Frame&) = default;
  Frame& operator=(const Frame&) = default;
  Frame(Frame&&) noexcept = default;
  Frame& operator=(Frame&&) noexcept = default;
  ~Frame() {
    if (payload.capacity() != 0) frame_buffers().release(std::move(payload));
  }

  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    const std::size_t body =
        payload.size() < kMinPayload ? kMinPayload : payload.size();
    return body + kEthernetOverhead;
  }
};

}  // namespace pinsim::net
