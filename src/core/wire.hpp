#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "mem/pool.hpp"
#include "net/frame.hpp"

namespace pinsim::core {

/// Process-wide recycling pool for frame payload buffers. encode() draws
/// its output vector from here and DataChunk returns its backing on
/// destruction, so steady-state traffic stops allocating per frame. The
/// simulator is single-threaded; the pool is not synchronized.
[[nodiscard]] mem::BufferPool& frame_buffers();

/// Owning view of a packet's bulk data: a backing buffer plus an
/// (offset, length) window into it.
///
/// The receive path used to copy every EAGER/PULL_REPLY payload out of the
/// frame bytes into a fresh vector during decode. A DataChunk instead
/// *adopts* the whole frame payload and points at the data bytes inside it
/// (the CRC trailer makes the window trustworthy), so the only remaining
/// copy on the hot receive path is the one the simulated DMA semantics
/// require (Region::copy_in). The vector-like surface (resize/assign/
/// operator[]/iterators) keeps packet-crafting tests and the send path,
/// which still materialize their own bytes, unchanged.
///
/// The backing buffer is returned to frame_buffers() on destruction.
class DataChunk {
 public:
  DataChunk() = default;
  /// Wraps a whole buffer (offset 0). Implicit so `body.data = vector` at
  /// packet-crafting sites keeps working.
  DataChunk(std::vector<std::byte> bytes)  // NOLINT(google-explicit-constructor)
      : backing_(std::move(bytes)), len_(backing_.size()) {}
  /// `n` copies of `value` (vector's fill constructor, for packet crafting).
  DataChunk(std::size_t n, std::byte value) { assign(n, value); }

  /// Takes ownership of `backing` and views `[off, off + len)` of it.
  [[nodiscard]] static DataChunk adopt(std::vector<std::byte>&& backing,
                                       std::size_t off, std::size_t len) {
    DataChunk c;
    c.backing_ = std::move(backing);
    c.off_ = off;
    c.len_ = len;
    return c;
  }

  /// `n` bytes from the frame-buffer pool with unspecified contents, for a
  /// caller that overwrites every byte before anything reads them.
  [[nodiscard]] static DataChunk for_overwrite(std::size_t n) {
    DataChunk c;
    c.backing_ = frame_buffers().acquire_for_overwrite(n);
    c.len_ = n;
    return c;
  }

  ~DataChunk() { recycle(); }

  /// Copies duplicate only the viewed window, not the whole frame.
  DataChunk(const DataChunk& other) { assign_span(other.span()); }
  DataChunk& operator=(const DataChunk& other) {
    if (this != &other) assign_span(other.span());
    return *this;
  }

  DataChunk(DataChunk&& other) noexcept
      : backing_(std::move(other.backing_)), off_(other.off_), len_(other.len_) {
    other.backing_.clear();
    other.off_ = 0;
    other.len_ = 0;
  }
  DataChunk& operator=(DataChunk&& other) noexcept {
    if (this != &other) {
      recycle();
      backing_ = std::move(other.backing_);
      off_ = other.off_;
      len_ = other.len_;
      other.backing_.clear();
      other.off_ = 0;
      other.len_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] const std::byte* data() const noexcept {
    return backing_.data() + off_;
  }
  [[nodiscard]] std::byte* data() noexcept { return backing_.data() + off_; }
  [[nodiscard]] const std::byte* begin() const noexcept { return data(); }
  [[nodiscard]] const std::byte* end() const noexcept { return data() + len_; }
  [[nodiscard]] std::byte* begin() noexcept { return data(); }
  [[nodiscard]] std::byte* end() noexcept { return data() + len_; }
  [[nodiscard]] const std::byte& operator[](std::size_t i) const noexcept {
    return backing_[off_ + i];
  }
  [[nodiscard]] std::byte& operator[](std::size_t i) noexcept {
    return backing_[off_ + i];
  }

  [[nodiscard]] std::span<const std::byte> span() const noexcept {
    return {data(), len_};
  }
  operator std::span<const std::byte>() const noexcept {  // NOLINT
    return span();
  }
  operator std::span<std::byte>() noexcept {  // NOLINT
    return {data(), len_};
  }

  /// Grows/shrinks the window; compacts an adopted view first so indices
  /// stay zero-based. New bytes are value-initialized.
  void resize(std::size_t n) {
    compact();
    backing_.resize(n);
    len_ = n;
  }

  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n == 0) {
      recycle();
      return;
    }
    assign_span({&*first, n});
  }
  void assign(std::size_t n, std::byte value) {
    recycle();
    backing_ = frame_buffers().acquire(n);
    std::fill(backing_.begin(), backing_.end(), value);
    off_ = 0;
    len_ = n;
  }

  friend bool operator==(const DataChunk& a, const DataChunk& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void assign_span(std::span<const std::byte> src) {
    // Self-assignment-safe only because callers never alias; recycle first
    // would invalidate src, so stage through a pool buffer.
    std::vector<std::byte> fresh = frame_buffers().acquire(src.size());
    std::copy(src.begin(), src.end(), fresh.begin());
    recycle();
    backing_ = std::move(fresh);
    off_ = 0;
    len_ = backing_.size();
  }
  void compact() {
    if (off_ == 0) {
      backing_.resize(len_);
      return;
    }
    std::copy(backing_.begin() + static_cast<std::ptrdiff_t>(off_),
              backing_.begin() + static_cast<std::ptrdiff_t>(off_ + len_),
              backing_.begin());
    backing_.resize(len_);
    off_ = 0;
  }
  void recycle() {
    if (!backing_.empty() || backing_.capacity() != 0) {
      frame_buffers().release(std::move(backing_));
      backing_.clear();
    }
    off_ = 0;
    len_ = 0;
  }

  std::vector<std::byte> backing_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// MXoE-like wire protocol. Packets are serialized to real bytes inside
/// Ethernet frames (little-endian, bounds-checked decode), so protocol tests
/// exercise an actual wire format rather than passing objects around.
///
/// Large-message flow (paper Figure 2): RNDV announces a pinned/declared
/// send region; the receiver pulls blocks with PULL, the sender answers with
/// PULL_REPLY frames read straight out of the pinned region; NOTIFY releases
/// the sender. EAGER carries small (< 32 kB) messages inline.
enum class PacketType : std::uint8_t {
  kEager = 1,
  kEagerAck = 2,
  kRndv = 3,
  kPull = 4,
  kPullReply = 5,
  kNotify = 6,
  kNotifyAck = 7,
  kAbort = 8,
};

[[nodiscard]] const char* packet_type_name(PacketType t) noexcept;

/// Endpoint demultiplexing within a node (like an MX endpoint id), plus the
/// incarnation epochs that fence frames across endpoint crash/restart
/// cycles: `src_epoch` is the sender's current incarnation (endpoints are
/// born at epoch 1 and every close bumps the slot's epoch), `dst_epoch` the
/// sender's belief about the destination's incarnation. 0 means "unknown" —
/// a frame with dst_epoch 0 is never fenced (first contact), and any other
/// mismatch against the receiver's live epoch is stale pre-crash traffic
/// dropped at the driver.
struct PacketHeader {
  PacketType type{};
  std::uint8_t src_ep = 0;
  std::uint8_t dst_ep = 0;
  std::uint8_t src_epoch = 0;
  std::uint8_t dst_epoch = 0;
};

/// Small message fragment. `seq` identifies the message per
/// (node, src_ep, dst_ep) flow for reassembly, acknowledgement and
/// duplicate suppression.
struct EagerBody {
  std::uint64_t match = 0;
  std::uint32_t msg_len = 0;
  std::uint32_t frag_offset = 0;
  std::uint32_t seq = 0;
  DataChunk data;
};

struct EagerAckBody {
  std::uint32_t seq = 0;
};

/// Rendezvous: "message `seq`, `msg_len` bytes, readable from my region
/// `region`". The sender's buffer may not be pinned yet (overlapped mode).
struct RndvBody {
  std::uint64_t match = 0;
  std::uint64_t msg_len = 0;
  std::uint32_t region = 0;
  std::uint32_t seq = 0;
};

/// Receiver-driven block request against the sender's region.
struct PullBody {
  std::uint32_t region = 0;  // sender's region id
  std::uint32_t handle = 0;  // receiver's pull-state id, echoed in replies
  std::uint64_t offset = 0;  // absolute message offset
  std::uint32_t len = 0;     // block length
  std::uint32_t seq = 0;     // sender's request seq (acks the RNDV)
};

struct PullReplyBody {
  std::uint32_t handle = 0;
  std::uint64_t offset = 0;  // absolute message offset of this frame
  DataChunk data;
};

/// Transfer complete: sender may release its resources.
struct NotifyBody {
  std::uint32_t seq = 0;     // sender's request seq (from the RNDV)
  std::uint32_t handle = 0;  // receiver's pull handle (for the ack)
};

struct NotifyAckBody {
  std::uint32_t handle = 0;
};

/// Sender aborts a rendezvous (e.g. pinning failed on an invalid segment).
struct AbortBody {
  std::uint32_t seq = 0;
};

using PacketBody =
    std::variant<EagerBody, EagerAckBody, RndvBody, PullBody, PullReplyBody,
                 NotifyBody, NotifyAckBody, AbortBody>;

struct Packet {
  PacketHeader header;
  PacketBody body;

  [[nodiscard]] PacketType type() const noexcept { return header.type; }
};

class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what)
      : std::runtime_error("wire format: " + what) {}
};

/// The frame checksum did not match: the payload was corrupted in flight.
/// Distinct from a plain parse error so the driver can count checksum drops
/// separately (the retransmission machinery recovers either way).
class WireChecksumError : public WireFormatError {
 public:
  WireChecksumError() : WireFormatError("checksum mismatch") {}
};

/// Trailing frame checksum appended by encode() and verified by decode().
inline constexpr std::size_t kChecksumBytes = 4;

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`. Exposed so tests and fault
/// tooling can craft or verify frames by hand. On x86-64 CPUs with PCLMULQDQ
/// and SSE4.1, frames of 64 bytes or more are folded by carry-less multiply;
/// everything else runs the byte-at-a-time table. Both give the same value.
[[nodiscard]] std::uint32_t frame_checksum(
    std::span<const std::byte> bytes) noexcept;

/// frame_checksum by the table loop alone, whatever the CPU: the fallback
/// path, reachable so tests can hold the folded path to it.
[[nodiscard]] std::uint32_t frame_checksum_bytewise(
    std::span<const std::byte> bytes) noexcept;

/// Serializes a packet (header + body + payload + trailing CRC-32) into
/// frame payload bytes. The header's `type` field is taken from the body
/// alternative.
[[nodiscard]] std::vector<std::byte> encode(const Packet& p);

/// Parses frame payload bytes. Throws WireChecksumError when the trailing
/// CRC does not match, and WireFormatError on truncated or malformed input.
/// Bulk data (EAGER/PULL_REPLY) is copied out of `bytes`; the receive hot
/// path uses decode_frame() instead to avoid that copy.
[[nodiscard]] Packet decode(std::span<const std::byte> bytes);

/// Like decode(), but zero-copy for bulk data: on success the frame's
/// payload vector is adopted as the DataChunk backing of an EAGER or
/// PULL_REPLY body (recycled into frame_buffers() for the other packet
/// types), leaving `frame.payload` empty. On throw the payload is left
/// intact so the caller can still attribute the drop from the raw bytes.
[[nodiscard]] Packet decode_frame(net::Frame& frame);

/// Serialized size of a packet with `data_bytes` of payload, for MTU math.
/// Includes the trailing checksum.
[[nodiscard]] std::size_t encoded_overhead(PacketType t) noexcept;

}  // namespace pinsim::core
