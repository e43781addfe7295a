#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "mem/pool.hpp"
#include "net/frame.hpp"

namespace pinsim::core {

/// Owning view of a packet's bulk data: a backing buffer plus an
/// (offset, length) window into it.
///
/// Receive side: a DataChunk *adopts* the whole frame payload and points at
/// the data bytes inside it (the CRC trailer makes the window trustworthy),
/// so the only copy on the hot receive path is the one the simulated DMA
/// semantics require (Region::copy_in).
///
/// Send side: payload_for_overwrite() reserves room for the packet header in
/// front of the window and for the CRC behind it, as skb_reserve does. The
/// caller writes the data once, straight into the buffer that becomes the
/// frame, and encode(Packet&&) fills in header and CRC around it. Any other
/// chunk — a vector assigned at a packet-crafting site, an adopted receive
/// window, a resized chunk — has no reserved room and is copied by encode().
/// The vector-like surface (resize/assign/operator[]/iterators) keeps
/// packet-crafting tests unchanged.
///
/// The backing buffer is returned to net::frame_buffers() on destruction.
class DataChunk {
 public:
  DataChunk() = default;
  /// Wraps a whole buffer (offset 0). Implicit so `body.data = vector` at
  /// packet-crafting sites keeps working.
  DataChunk(std::vector<std::byte> bytes)  // NOLINT(google-explicit-constructor)
      : backing_(std::move(bytes)), len_(narrow(backing_.size())) {}
  /// `n` copies of `value` (vector's fill constructor, for packet crafting).
  DataChunk(std::size_t n, std::byte value) { assign(n, value); }

  /// Takes ownership of `backing` and views `[off, off + len)` of it.
  [[nodiscard]] static DataChunk adopt(std::vector<std::byte>&& backing,
                                       std::size_t off, std::size_t len) {
    DataChunk c;
    c.backing_ = std::move(backing);
    c.off_ = narrow(off);
    c.len_ = narrow(len);
    return c;
  }

  /// `n` bytes from the frame-buffer pool with unspecified contents, for a
  /// caller that overwrites every byte before anything reads them. The
  /// window starts `head` bytes into the buffer and ends `tail` bytes
  /// before its end; that reserved room is reported by headroom() and
  /// tailroom() until the chunk is resized or reassigned.
  [[nodiscard]] static DataChunk for_overwrite(std::size_t n,
                                               std::size_t head,
                                               std::size_t tail) {
    DataChunk c;
    c.backing_ = net::frame_buffers().acquire_for_overwrite(head + n + tail);
    c.off_ = narrow(head);
    c.len_ = narrow(n);
    c.reserved_ = 1;
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
      : backing_(std::move(other.backing_)),
        off_(other.off_),
        len_(other.len_),
        reserved_(other.reserved_) {
    other.backing_.clear();
    other.off_ = 0;
    other.len_ = 0;
    other.reserved_ = 0;
  }
  DataChunk& operator=(DataChunk&& other) noexcept {
    if (this != &other) {
      recycle();
      backing_ = std::move(other.backing_);
      off_ = other.off_;
      len_ = other.len_;
      reserved_ = other.reserved_;
      other.backing_.clear();
      other.off_ = 0;
      other.len_ = 0;
      other.reserved_ = 0;
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

  /// Bytes reserved in front of / behind the window by for_overwrite(); 0
  /// for every other chunk, however its window happens to sit.
  [[nodiscard]] std::size_t headroom() const noexcept {
    return reserved_ ? off_ : 0;
  }
  [[nodiscard]] std::size_t tailroom() const noexcept {
    return reserved_ ? backing_.size() - off_ - len_ : 0;
  }

  /// Hands the whole backing buffer over — reserved room included — and
  /// leaves the chunk empty.
  [[nodiscard]] std::vector<std::byte> release_backing() noexcept {
    std::vector<std::byte> out = std::move(backing_);
    backing_.clear();
    off_ = 0;
    len_ = 0;
    reserved_ = 0;
    return out;
  }

  /// Grows/shrinks the window; compacts an adopted view first so indices
  /// stay zero-based. New bytes are value-initialized.
  void resize(std::size_t n) {
    compact();
    backing_.resize(n);
    len_ = narrow(n);
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
    backing_ = net::frame_buffers().acquire(n);
    std::fill(backing_.begin(), backing_.end(), value);
    off_ = 0;
    len_ = narrow(n);
  }

  friend bool operator==(const DataChunk& a, const DataChunk& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void assign_span(std::span<const std::byte> src) {
    // Self-assignment-safe only because callers never alias; recycle first
    // would invalidate src, so stage through a pool buffer.
    std::vector<std::byte> fresh = net::frame_buffers().acquire(src.size());
    std::copy(src.begin(), src.end(), fresh.begin());
    recycle();
    backing_ = std::move(fresh);
    off_ = 0;
    len_ = narrow(backing_.size());
  }
  void compact() {
    reserved_ = 0;
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
      net::frame_buffers().release(std::move(backing_));
      backing_.clear();
    }
    off_ = 0;
    len_ = 0;
    reserved_ = 0;
  }

  /// The window fits 31 bits (a chunk is at most one eager message or one
  /// frame), which keeps the chunk at 32 bytes, so a closure carrying one
  /// still fits sim::UniqueFunction's inline buffer.
  [[nodiscard]] static std::uint32_t narrow(std::size_t n) noexcept {
    assert(n < (std::size_t{1} << 31) && "DataChunk window past 2 GiB");
    return static_cast<std::uint32_t>(n);
  }

  std::vector<std::byte> backing_;
  std::uint32_t off_ = 0;
  std::uint32_t len_ : 31 = 0;
  // [0, off_) and the bytes past the window are room (for_overwrite only).
  std::uint32_t reserved_ : 1 = 0;
};
static_assert(sizeof(DataChunk) <= 32, "DataChunk outgrew closure budgets");

/// MXoE-like wire protocol. Packets are serialized to real bytes inside
/// Ethernet frames (little-endian, bounds-checked decode), so protocol tests
/// exercise an actual wire format rather than passing objects around.
///
/// Large-message flow (paper Figure 2): RNDV announces a pinned/declared
/// send region; the receiver pulls blocks with PULL, the sender answers with
/// PULL_REPLY frames read straight out of the pinned region; NOTIFY releases
/// the sender. EAGER carries small (< 32 kB) messages inline.
///
/// The packet-type table: every type, one row per type in wire-value order,
/// `X(enumerator, name, Body)`:
///  - enumerator: the `PacketType`; row i (from 0) has the value i + 1;
///  - name:       `packet_type_name`, the name traces print;
///  - Body:       the body struct. Its `kFields` tuple lists its fixed fields
///                in wire order; a `data` member is the bulk data, the rest
///                of the frame.
/// `PacketType`, its names, the `PacketBody` variant (in row order), the
/// codec and `Endpoint`'s packet dispatch are generated from this list, so a
/// type is added by writing its row, its body and its handler.
#define PINSIM_PACKET_TYPES(X)                \
  X(kEager, "EAGER", EagerBody)               \
  X(kEagerAck, "EAGER_ACK", EagerAckBody)     \
  X(kRndv, "RNDV", RndvBody)                  \
  X(kPull, "PULL", PullBody)                  \
  X(kPullReply, "PULL_REPLY", PullReplyBody)  \
  X(kNotify, "NOTIFY", NotifyBody)            \
  X(kNotifyAck, "NOTIFY_ACK", NotifyAckBody)  \
  X(kAbort, "ABORT", AbortBody)

/// Small message fragment. `seq` identifies the message per
/// (node, src_ep, dst_ep) flow for reassembly, acknowledgement and
/// duplicate suppression.
struct EagerBody {
  std::uint64_t match = 0;
  std::uint32_t msg_len = 0;
  std::uint32_t frag_offset = 0;
  std::uint32_t seq = 0;
  DataChunk data;
  static constexpr std::tuple kFields{&EagerBody::match, &EagerBody::msg_len,
                                      &EagerBody::frag_offset,
                                      &EagerBody::seq};
};

struct EagerAckBody {
  std::uint32_t seq = 0;
  static constexpr std::tuple kFields{&EagerAckBody::seq};
};

/// Rendezvous: "message `seq`, `msg_len` bytes, readable from my region
/// `region`". The sender's buffer may not be pinned yet (overlapped mode).
struct RndvBody {
  std::uint64_t match = 0;
  std::uint64_t msg_len = 0;
  std::uint32_t region = 0;
  std::uint32_t seq = 0;
  static constexpr std::tuple kFields{&RndvBody::match, &RndvBody::msg_len,
                                      &RndvBody::region, &RndvBody::seq};
};

/// Receiver-driven block request against the sender's region.
struct PullBody {
  std::uint32_t region = 0;  // sender's region id
  std::uint32_t handle = 0;  // receiver's pull-state id, echoed in replies
  std::uint64_t offset = 0;  // absolute message offset
  std::uint32_t len = 0;     // block length
  std::uint32_t seq = 0;     // sender's request seq (acks the RNDV)
  static constexpr std::tuple kFields{&PullBody::region, &PullBody::handle,
                                      &PullBody::offset, &PullBody::len,
                                      &PullBody::seq};
};

struct PullReplyBody {
  std::uint32_t handle = 0;
  std::uint64_t offset = 0;  // absolute message offset of this frame
  DataChunk data;
  static constexpr std::tuple kFields{&PullReplyBody::handle,
                                      &PullReplyBody::offset};
};

/// Transfer complete: sender may release its resources.
struct NotifyBody {
  std::uint32_t seq = 0;     // sender's request seq (from the RNDV)
  std::uint32_t handle = 0;  // receiver's pull handle (for the ack)
  static constexpr std::tuple kFields{&NotifyBody::seq, &NotifyBody::handle};
};

struct NotifyAckBody {
  std::uint32_t handle = 0;
  static constexpr std::tuple kFields{&NotifyAckBody::handle};
};

/// Sender aborts a rendezvous (e.g. pinning failed on an invalid segment).
struct AbortBody {
  std::uint32_t seq = 0;
  static constexpr std::tuple kFields{&AbortBody::seq};
};

namespace packet_row {
/// Each type's zero-based table row.
enum : std::uint8_t {
#define PINSIM_PACKET_ROW(type, name, Body) type,
  PINSIM_PACKET_TYPES(PINSIM_PACKET_ROW)
#undef PINSIM_PACKET_ROW
};
/// `std::variant<Bodies...>`; the leading placeholder lets every row of the
/// table expansion start with a comma.
template <typename Placeholder, typename... Bodies>
using Variant = std::variant<Bodies...>;
}  // namespace packet_row

enum class PacketType : std::uint8_t {
#define PINSIM_PACKET_ENUM(type, name, Body) type = packet_row::type + 1,
  PINSIM_PACKET_TYPES(PINSIM_PACKET_ENUM)
#undef PINSIM_PACKET_ENUM
};

/// One alternative per table row, in row order.
#define PINSIM_PACKET_BODY(type, name, Body) , Body
using PacketBody =
    packet_row::Variant<void PINSIM_PACKET_TYPES(PINSIM_PACKET_BODY)>;
#undef PINSIM_PACKET_BODY

inline constexpr std::size_t kPacketTypeCount = std::variant_size_v<PacketBody>;

#define PINSIM_PACKET_CHECK(type, name, Body)                             \
  static_assert(std::is_same_v<                                            \
                std::variant_alternative_t<packet_row::type, PacketBody>, \
                Body>);
PINSIM_PACKET_TYPES(PINSIM_PACKET_CHECK)
#undef PINSIM_PACKET_CHECK

/// The type a body travels as: its alternative's row, plus one.
[[nodiscard]] inline PacketType packet_type(const PacketBody& body) noexcept {
  return static_cast<PacketType>(body.index() + 1);
}

/// The type's name ("UNKNOWN" for a value outside the table).
[[nodiscard]] constexpr const char* packet_type_name(PacketType t) noexcept {
  constexpr const char* kNames[] = {
#define PINSIM_PACKET_NAME(type, name, Body) name,
      PINSIM_PACKET_TYPES(PINSIM_PACKET_NAME)
#undef PINSIM_PACKET_NAME
  };
  const std::size_t row = static_cast<std::size_t>(t) - 1;
  return row < kPacketTypeCount ? kNames[row] : "UNKNOWN";
}

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
/// tooling can craft or verify frames by hand. Runs the fastest tier this
/// CPU supports (see ChecksumTier); every tier gives the same value.
[[nodiscard]] std::uint32_t frame_checksum(
    std::span<const std::byte> bytes) noexcept;

/// The CRC-32 kernels frame_checksum() picks from, once per process.
enum class ChecksumTier : std::uint8_t {
  kTable,    // byte-at-a-time table loop; any CPU
  kFold128,  // x86-64 PCLMULQDQ + SSE4.1: 4 x 128-bit lanes, 64 B per step
  kFold512,  // x86-64 VPCLMULQDQ + AVX-512F: 4 x 512-bit lanes, 256 B per step
};

/// Whether this CPU can run `tier` (kTable always).
[[nodiscard]] bool checksum_tier_supported(ChecksumTier tier) noexcept;

/// frame_checksum by one tier, whatever the CPU would pick, so tests can
/// hold each tier to the reference. A folding tier still hands inputs too
/// short for it to the next tier down. Precondition:
/// checksum_tier_supported(tier); a folding tier the CPU lacks dies on an
/// illegal instruction.
[[nodiscard]] std::uint32_t frame_checksum_with(
    ChecksumTier tier, std::span<const std::byte> bytes) noexcept;

/// Serializes a packet (header + body + payload + trailing CRC-32) into
/// frame payload bytes drawn from net::frame_buffers(). The header's `type`
/// field is taken from the body alternative. Bulk data is copied.
[[nodiscard]] std::vector<std::byte> encode(const Packet& p);

/// Like encode(const Packet&), but an EAGER or PULL_REPLY packet whose data
/// came from payload_for_overwrite() becomes the frame in place: the header
/// is written into the chunk's headroom, the CRC into its tailroom, and the
/// chunk's buffer is returned, so the payload bytes are never copied. Any
/// other packet takes the copying path. Either way the bytes are the same.
[[nodiscard]] std::vector<std::byte> encode(Packet&& p);

/// `n` bytes of bulk data for overwrite, with room for a `t` packet's
/// header in front and its CRC behind (encoded_overhead(t) -
/// kChecksumBytes and kChecksumBytes), so encode(Packet&&) can frame them
/// in place.
[[nodiscard]] DataChunk payload_for_overwrite(PacketType t, std::size_t n);

/// Parses frame payload bytes. Throws WireChecksumError when the trailing
/// CRC does not match, and WireFormatError on truncated or malformed input.
/// Bulk data (EAGER/PULL_REPLY) is copied out of `bytes`; the receive hot
/// path uses decode_frame() instead to avoid that copy.
[[nodiscard]] Packet decode(std::span<const std::byte> bytes);

/// Like decode(), but zero-copy for bulk data: on success the frame's
/// payload vector is adopted as the DataChunk backing of an EAGER or
/// PULL_REPLY body, leaving `frame.payload` empty. Other packet types leave
/// it in place; the Frame recycles it when destroyed. On throw the payload
/// is left intact so the caller can still attribute the drop from the raw
/// bytes.
[[nodiscard]] Packet decode_frame(net::Frame& frame);

/// Serialized size of a packet with `data_bytes` of payload, for MTU math.
/// Includes the trailing checksum.
[[nodiscard]] std::size_t encoded_overhead(PacketType t) noexcept;

}  // namespace pinsim::core
