#include "core/wire.hpp"

#include <cassert>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pinsim::core {

namespace {

/// Little-endian cursor over a buffer sized exactly for what is written.
class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_[pos_++] = static_cast<std::byte>(v >> (8 * i));
    }
  }
  void bytes(std::span<const std::byte> b) {
    if (!b.empty()) std::memcpy(out_.data() + pos_, b.data(), b.size());
    pos_ += b.size();
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : in_(in) {}

  template <typename T>
  T get() {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) throw WireFormatError("truncated packet");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in_[pos_++]) << (8 * i));
    }
    return v;
  }
  /// Position of the next unread byte: where take_rest()'s bytes start in
  /// the frame, so decode_frame can adopt them as a window of it.
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  std::span<const std::byte> take_rest() noexcept {
    const std::span<const std::byte> rest = in_.subspan(pos_);
    pos_ = in_.size();
    return rest;
  }
  void expect_end() const {
    if (pos_ != in_.size()) throw WireFormatError("trailing bytes");
  }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

// type, src_ep, dst_ep, src_epoch, dst_epoch. The epoch bytes sit AFTER
// dst_ep: the dst_ep byte's fixed offset (payload[2]) is load-bearing for
// NIC flow steering and drop attribution.
constexpr std::size_t kHeaderBytes = 5;

/// Whether `Body` carries bulk data: a `data` member, the rest of the frame.
template <typename Body>
constexpr bool kHasData = requires(Body& b) { b.data; };

/// Calls `f` on each of `b`'s fixed fields, in wire order.
template <typename Body, typename F>
void for_each_field(Body& b, F&& f) {
  std::apply([&](auto... field) { (f(b.*field), ...); },
             std::remove_const_t<Body>::kFields);
}

/// Header, fixed fields and CRC: a `Body` frame's size without bulk data.
template <typename Body>
constexpr std::size_t frame_overhead() {
  return std::apply(
      [](auto... field) {
        return kHeaderBytes + (sizeof(std::declval<Body&>().*field) + ... + 0) +
               kChecksumBytes;
      },
      Body::kFields);
}

struct Crc32Table {
  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
  std::uint32_t entries[256] = {};
};

constexpr Crc32Table kCrc32;

/// Advances the (un-inverted) CRC register over `bytes`, one table lookup
/// per byte.
std::uint32_t crc32_bytewise(std::uint32_t crc,
                             std::span<const std::byte> bytes) noexcept {
  for (const std::byte b : bytes) {
    crc = kCrc32.entries[(crc ^ static_cast<std::uint8_t>(b)) & 0xffu] ^
          (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

/// Frames shorter than this (acks, pulls, notifies) stay on the table loop:
/// the fold needs four 16-byte lanes to start.
constexpr std::size_t kFoldMinBytes = 64;

/// The 512-bit tier needs four 64-byte accumulators to start; shorter frames
/// go to the 128-bit fold.
constexpr std::size_t kWideFoldMinBytes = 256;

/// One fold step: x.lo * k.lo ^ x.hi * k.hi, i.e. x carried 2 x 64 bits
/// further along the stream, modulo the polynomial.
__attribute__((target("pclmul,sse4.1"))) __m128i clmul_fold(
    __m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Fold constants of the 128-bit tier. Each pair is (low, high) =
/// (x^(d+32), x^(d-32)) mod P, bit-reflected, for a fold distance of d bits:
/// k1k2 carries a lane 512 bits (64 bytes), k3k4 128 bits (16 bytes).
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;

/// Finishes a fold whose four 128-bit lanes x0..x3 stand for the 64 bytes
/// before `off`: collapses them to one lane, folds the remaining 16-byte
/// blocks of `bytes` (whose size is a multiple of 16), then reduces
/// 128 -> 64 -> 32 bits with a bit-reflected Barrett reduction. Returns the
/// register state. Always inlined, so the 512-bit tier runs it VEX-encoded:
/// legacy SSE code entered with dirty upper register halves pays a state
/// transition penalty (measured at ~200 ns per call on an AVX-512 Xeon).
__attribute__((target("pclmul,sse4.1"), always_inline)) inline std::uint32_t
crc32_fold_tail(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3,
    std::span<const std::byte> bytes, std::size_t off) noexcept {
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x = _mm_xor_si128(clmul_fold(x0, k3k4), x1);
  x = _mm_xor_si128(clmul_fold(x, k3k4), x2);
  x = _mm_xor_si128(clmul_fold(x, k3k4), x3);
  for (; off + 16 <= bytes.size(); off += 16) {
    x = _mm_xor_si128(
        clmul_fold(x, k3k4),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes.data() + off)));
  }

  // 128 -> 64 bits (k4 times the low half), appending 32 zero bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(k3k4, x, 0x01));
  // 64 -> 32 bits (k5 times the low 32 bits).
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett: q = (x mod x^32) * mu, then x ^= (q mod x^32) * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

/// Advances the CRC register over `bytes` (size a multiple of 16, at least
/// 64) by carry-less-multiply folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ", Intel 2009; Linux
/// crc32-pclmul): four 128-bit lanes fold 64 bytes per step, then
/// crc32_fold_tail. Returns the register state, so the caller finishes the
/// tail bytewise.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t crc, std::span<const std::byte> bytes) noexcept {
  const auto load = [&bytes](std::size_t off) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes.data() + off));
  };
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);

  __m128i x0 =
      _mm_xor_si128(load(0), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(16);
  __m128i x2 = load(32);
  __m128i x3 = load(48);
  std::size_t off = 64;
  for (; off + 64 <= bytes.size(); off += 64) {
    x0 = _mm_xor_si128(clmul_fold(x0, k1k2), load(off));
    x1 = _mm_xor_si128(clmul_fold(x1, k1k2), load(off + 16));
    x2 = _mm_xor_si128(clmul_fold(x2, k1k2), load(off + 32));
    x3 = _mm_xor_si128(clmul_fold(x3, k1k2), load(off + 48));
  }
  return crc32_fold_tail(x0, x1, x2, x3, bytes, off);
}

/// clmul_fold on each 128-bit lane of `x`, XORed into `data` (the block
/// `x` is being carried onto) in one ternary-logic step.
__attribute__((target("avx512f,vpclmulqdq"))) __m512i clmul_fold512(
    __m512i x, __m512i k, __m512i data) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11),
                                   data, 0x96);  // a ^ b ^ c
}

/// The 512-bit tier: the crc32_fold scheme on 64-byte registers. Four
/// accumulators fold 256 bytes per step with constants
/// (x^(2048+32), x^(2048-32)) mod P; they collapse into one at the 64-byte
/// distance (the 128-bit tier's k1k2 in every lane), which then folds the
/// remaining 64-byte blocks. Its four lanes go to crc32_fold_tail. Requires
/// bytes.size() >= 256 and a multiple of 16. No lambdas here: they would
/// not inherit the target attribute.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1"))) std::uint32_t
crc32_fold512(std::uint32_t crc, std::span<const std::byte> bytes) noexcept {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  // Set element-wise, not by _mm512_broadcast_i32x4: like the zext/cast and
  // extract intrinsics, its GCC 12 expansion reads an uninitialized vector
  // and warns.
  constexpr long long kK256Lo = 0x11542778a, kK256Hi = 0x1322d1430;
  const __m512i k256 = _mm512_set_epi64(kK256Hi, kK256Lo, kK256Hi, kK256Lo,
                                        kK256Hi, kK256Lo, kK256Hi, kK256Lo);
  const __m512i k64 =
      _mm512_set_epi64(kK2, kK1, kK2, kK1, kK2, kK1, kK2, kK1);

  // The register enters in the first 32 bits, by a masked move.
  __m512i z0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_maskz_mov_epi32(1, _mm512_set1_epi32(static_cast<int>(crc))));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  std::size_t off = 256;
  for (; off + 256 <= n; off += 256) {
    z0 = clmul_fold512(z0, k256, _mm512_loadu_si512(p + off));
    z1 = clmul_fold512(z1, k256, _mm512_loadu_si512(p + off + 64));
    z2 = clmul_fold512(z2, k256, _mm512_loadu_si512(p + off + 128));
    z3 = clmul_fold512(z3, k256, _mm512_loadu_si512(p + off + 192));
  }
  __m512i z = clmul_fold512(z0, k64, z1);
  z = clmul_fold512(z, k64, z2);
  z = clmul_fold512(z, k64, z3);
  for (; off + 64 <= n; off += 64) {
    z = clmul_fold512(z, k64, _mm512_loadu_si512(p + off));
  }
  // Spill the lanes rather than extract them (the warning again).
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(lanes, z);
  return crc32_fold_tail(lanes[0], lanes[1], lanes[2], lanes[3], bytes, off);
}

bool cpu_has_clmul() noexcept {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

bool cpu_has_vpclmul512() noexcept {
  static const bool has = cpu_has_clmul() &&
                          __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("vpclmulqdq");
  return has;
}

#endif  // __x86_64__

/// The fastest supported tier, picked on first use.
ChecksumTier best_tier() noexcept {
  static const ChecksumTier tier = [] {
    if (checksum_tier_supported(ChecksumTier::kFold512)) {
      return ChecksumTier::kFold512;
    }
    if (checksum_tier_supported(ChecksumTier::kFold128)) {
      return ChecksumTier::kFold128;
    }
    return ChecksumTier::kTable;
  }();
  return tier;
}

}  // namespace

bool checksum_tier_supported(ChecksumTier tier) noexcept {
  switch (tier) {
    case ChecksumTier::kTable:
      return true;
#if defined(__x86_64__)
    case ChecksumTier::kFold128:
      return cpu_has_clmul();
    case ChecksumTier::kFold512:
      return cpu_has_vpclmul512();
#else
    case ChecksumTier::kFold128:
    case ChecksumTier::kFold512:
      return false;
#endif
  }
  return false;
}

std::uint32_t frame_checksum_with(ChecksumTier tier,
                                  std::span<const std::byte> bytes) noexcept {
  std::uint32_t crc = 0xffffffffu;
#if defined(__x86_64__)
  const std::size_t folded = bytes.size() & ~std::size_t{15};
  if (tier == ChecksumTier::kFold512 && folded >= kWideFoldMinBytes) {
    crc = crc32_fold512(crc, bytes.first(folded));
    bytes = bytes.subspan(folded);
  } else if (tier != ChecksumTier::kTable && folded >= kFoldMinBytes) {
    crc = crc32_fold(crc, bytes.first(folded));
    bytes = bytes.subspan(folded);
  }
#endif
  return crc32_bytewise(crc, bytes) ^ 0xffffffffu;
}

std::uint32_t frame_checksum(std::span<const std::byte> bytes) noexcept {
  return frame_checksum_with(best_tier(), bytes);
}

std::size_t encoded_overhead(PacketType t) noexcept {
  static constexpr std::size_t kOverhead[] = {
#define PINSIM_PACKET_OVERHEAD(type, name, Body) frame_overhead<Body>(),
      PINSIM_PACKET_TYPES(PINSIM_PACKET_OVERHEAD)
#undef PINSIM_PACKET_OVERHEAD
  };
  const std::size_t row = static_cast<std::size_t>(t) - 1;
  return row < kPacketTypeCount ? kOverhead[row]
                                : kHeaderBytes + kChecksumBytes;
}

namespace {

/// The bulk data of a body that has some; null for the other types.
template <typename Variant>
auto* bulk_data(Variant& v) noexcept {
  using Chunk = std::conditional_t<std::is_const_v<Variant>, const DataChunk,
                                   DataChunk>;
  return std::visit(
      [](auto& body) -> Chunk* {
        if constexpr (kHasData<decltype(body)>) return &body.data;
        return nullptr;
      },
      v);
}

/// Writes everything in front of the bulk data: the packet header and the
/// body's fixed fields, encoded_overhead(t) - kChecksumBytes bytes in all.
void write_fields(Writer& w, const Packet& p) {
  w.put(static_cast<std::uint8_t>(packet_type(p.body)));
  w.put(p.header.src_ep);
  w.put(p.header.dst_ep);
  w.put(p.header.src_epoch);
  w.put(p.header.dst_epoch);
  std::visit(
      [&w](const auto& body) {
        for_each_field(body, [&w](auto v) { w.put(v); });
      },
      p.body);
}

/// Writes the CRC-32 of everything before the last kChecksumBytes of
/// `frame` into them. At the end (not the front) so the dst_ep byte keeps
/// its fixed offset for NIC flow steering.
void seal(std::span<std::byte> frame) noexcept {
  const std::size_t body = frame.size() - kChecksumBytes;
  const std::uint32_t crc = frame_checksum(frame.first(body));
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    frame[body + i] = static_cast<std::byte>(crc >> (8 * i));
  }
}

}  // namespace

std::vector<std::byte> encode(const Packet& p) {
  const DataChunk* data = bulk_data(p.body);
  const std::size_t data_len = data == nullptr ? 0 : data->size();
  std::vector<std::byte> out = net::frame_buffers().acquire_for_overwrite(
      encoded_overhead(packet_type(p.body)) + data_len);
  Writer w(out);
  write_fields(w, p);
  if (data != nullptr) w.bytes(*data);
  seal(out);
  return out;
}

std::vector<std::byte> encode(Packet&& p) {
  DataChunk* data = bulk_data(p.body);
  const std::size_t head =
      encoded_overhead(packet_type(p.body)) - kChecksumBytes;
  if (data == nullptr || data->headroom() != head ||
      data->tailroom() != kChecksumBytes) {
    return encode(std::as_const(p));
  }
  std::vector<std::byte> out = data->release_backing();
  Writer w(std::span<std::byte>(out).first(head));
  write_fields(w, p);
  assert(w.pos() == head);
  seal(out);
  return out;
}

DataChunk payload_for_overwrite(PacketType t, std::size_t n) {
  return DataChunk::for_overwrite(n, encoded_overhead(t) - kChecksumBytes,
                                  kChecksumBytes);
}

namespace {

/// Reads a `Body` into `out`: its fixed fields, then either the bulk data
/// or the end of the frame. Bulk data is adopted out of `owner` when there
/// is one (the CRC already vouched for the window), copied otherwise.
template <typename Body>
void read_body(Reader& r, std::vector<std::byte>* owner, PacketBody& out) {
  Body& b = out.emplace<Body>();
  for_each_field(b, [&r](auto& v) { v = r.get<std::decay_t<decltype(v)>>(); });
  if constexpr (kHasData<Body>) {
    // Bounds check BEFORE adopting: on throw the caller's payload vector
    // must still be intact for drop attribution.
    if constexpr (std::is_same_v<Body, EagerBody>) {
      if (b.frag_offset + r.remaining() > b.msg_len) {
        throw WireFormatError("eager fragment out of bounds");
      }
    }
    const std::size_t off = r.pos();
    const std::span<const std::byte> rest = r.take_rest();
    b.data = owner == nullptr
                 ? DataChunk(std::vector<std::byte>(rest.begin(), rest.end()))
                 : DataChunk::adopt(std::move(*owner), off, rest.size());
  } else {
    r.expect_end();
  }
}

/// Shared decode body. When `owner` is non-null it is the vector `bytes`
/// views, and bulk data is adopted out of it zero-copy (the vector is left
/// unspecified-but-valid afterwards); when null, bulk data is copied.
Packet decode_impl(std::span<const std::byte> bytes,
                   std::vector<std::byte>* owner) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    throw WireFormatError("truncated packet");
  }
  const std::span<const std::byte> body =
      bytes.first(bytes.size() - kChecksumBytes);
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    stored |= static_cast<std::uint32_t>(bytes[body.size() + i]) << (8 * i);
  }
  if (frame_checksum(body) != stored) throw WireChecksumError();

  Reader r(body);
  Packet p;
  const std::size_t row = r.get<std::uint8_t>() - std::size_t{1};
  if (row >= kPacketTypeCount) throw WireFormatError("bad packet type");
  p.header.type = static_cast<PacketType>(row + 1);
  p.header.src_ep = r.get<std::uint8_t>();
  p.header.dst_ep = r.get<std::uint8_t>();
  p.header.src_epoch = r.get<std::uint8_t>();
  p.header.dst_epoch = r.get<std::uint8_t>();
  // The body of the row's type: one branch per row, each inlined (a table
  // of reader pointers costs a PULL 5 % in BM_WireEncodeDecode).
  [&]<std::size_t... Row>(std::index_sequence<Row...>) {
    (void)((row == Row &&
            (read_body<std::variant_alternative_t<Row, PacketBody>>(r, owner,
                                                                    p.body),
             true)) ||
           ...);
  }(std::make_index_sequence<kPacketTypeCount>{});
  return p;
}

}  // namespace

Packet decode(std::span<const std::byte> bytes) {
  return decode_impl(bytes, nullptr);
}

Packet decode_frame(net::Frame& frame) {
  return decode_impl(frame.payload, &frame.payload);
}

}  // namespace pinsim::core
