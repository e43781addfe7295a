#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace pinsim::core {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

Packet round_trip(Packet p) {
  auto wire = encode(p);
  return decode(wire);
}

TEST(Wire, EagerRoundTrip) {
  Packet p;
  p.header.src_ep = 3;
  p.header.dst_ep = 7;
  EagerBody b;
  b.match = 0xdeadbeefcafef00dULL;
  b.msg_len = 100;
  b.frag_offset = 10;
  b.seq = 42;
  b.data = bytes_of("hello eager world");
  p.body = b;

  Packet q = round_trip(p);
  EXPECT_EQ(q.type(), PacketType::kEager);
  EXPECT_EQ(q.header.src_ep, 3);
  EXPECT_EQ(q.header.dst_ep, 7);
  const auto& eb = std::get<EagerBody>(q.body);
  EXPECT_EQ(eb.match, b.match);
  EXPECT_EQ(eb.msg_len, 100u);
  EXPECT_EQ(eb.frag_offset, 10u);
  EXPECT_EQ(eb.seq, 42u);
  EXPECT_EQ(eb.data, b.data);
}

TEST(Wire, EagerEmptyPayload) {
  Packet p;
  EagerBody b;
  b.msg_len = 0;
  p.body = b;
  Packet q = round_trip(p);
  EXPECT_TRUE(std::get<EagerBody>(q.body).data.empty());
}

TEST(Wire, RndvRoundTrip) {
  Packet p;
  RndvBody b;
  b.match = 77;
  b.msg_len = 16ull * 1024 * 1024;
  b.region = 5;
  b.seq = 1234;
  p.body = b;
  Packet q = round_trip(p);
  const auto& rb = std::get<RndvBody>(q.body);
  EXPECT_EQ(rb.msg_len, b.msg_len);
  EXPECT_EQ(rb.region, 5u);
  EXPECT_EQ(rb.seq, 1234u);
}

TEST(Wire, PullRoundTrip) {
  Packet p;
  PullBody b;
  b.region = 9;
  b.handle = 3;
  b.offset = 0x123456789aULL;
  b.len = 32768;
  b.seq = 55;
  p.body = b;
  Packet q = round_trip(p);
  const auto& pb = std::get<PullBody>(q.body);
  EXPECT_EQ(pb.region, 9u);
  EXPECT_EQ(pb.handle, 3u);
  EXPECT_EQ(pb.offset, 0x123456789aULL);
  EXPECT_EQ(pb.len, 32768u);
  EXPECT_EQ(pb.seq, 55u);
}

TEST(Wire, PullReplyCarriesData) {
  Packet p;
  PullReplyBody b;
  b.handle = 11;
  b.offset = 8192;
  b.data.assign(8192, std::byte{0x5a});
  p.body = b;
  auto wire = encode(p);
  EXPECT_EQ(wire.size(), encoded_overhead(PacketType::kPullReply) + 8192);
  Packet q = decode(wire);
  const auto& rb = std::get<PullReplyBody>(q.body);
  EXPECT_EQ(rb.data.size(), 8192u);
  EXPECT_EQ(rb.data[100], std::byte{0x5a});
}

TEST(Wire, ForOverwriteChunkDrawsFromTheFrameBufferPool) {
  net::frame_buffers().release(std::vector<std::byte>(9000, std::byte{0x5a}));
  const std::size_t retained = net::frame_buffers().retained();
  const std::size_t head = encoded_overhead(PacketType::kPullReply) -
                           kChecksumBytes;
  DataChunk c = DataChunk::for_overwrite(8192, head, kChecksumBytes);
  EXPECT_EQ(net::frame_buffers().retained(), retained - 1);
  EXPECT_EQ(c.size(), 8192u);
  EXPECT_EQ(c.headroom(), head);
  EXPECT_EQ(c.tailroom(), kChecksumBytes);
  std::fill(c.begin(), c.end(), std::byte{0x3c});
  const std::byte* data = c.data();
  PullReplyBody b;
  b.data = std::move(c);
  Packet p;
  p.body = std::move(b);
  // The chunk's own buffer becomes the frame: no second buffer, no copy.
  const std::vector<std::byte> wire = encode(std::move(p));
  ASSERT_EQ(wire.size(), encoded_overhead(PacketType::kPullReply) + 8192);
  EXPECT_EQ(wire.data() + head, data);
  const Packet q = decode(wire);
  const auto& rb = std::get<PullReplyBody>(q.body);
  ASSERT_EQ(rb.data.size(), 8192u);
  EXPECT_EQ(rb.data[0], std::byte{0x3c});
  EXPECT_EQ(rb.data[8191], std::byte{0x3c});
}

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  std::uint64_t s = seed;
  for (auto& b : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::byte>(s >> 56);
  }
  return v;
}

/// An EAGER or PULL_REPLY packet with every header and body field set and
/// `data` as its bulk data.
Packet data_packet(PacketType t, DataChunk data) {
  Packet p;
  p.header.src_ep = 3;
  p.header.dst_ep = 9;
  p.header.src_epoch = 2;
  p.header.dst_epoch = 5;
  if (t == PacketType::kEager) {
    EagerBody b;
    b.match = 0x0123456789abcdefULL;
    b.msg_len = 1u << 20;
    b.frag_offset = 4096;
    b.seq = 77;
    b.data = std::move(data);
    p.body = std::move(b);
  } else {
    PullReplyBody b;
    b.handle = 0xfeed;
    b.offset = 0x1122334455ULL;
    b.data = std::move(data);
    p.body = std::move(b);
  }
  return p;
}

const DataChunk& data_of(const Packet& p) {
  if (const auto* e = std::get_if<EagerBody>(&p.body)) return e->data;
  return std::get<PullReplyBody>(p.body).data;
}

TEST(Wire, InPlaceFramesEqualTheCopyingEncodeByteForByte) {
  constexpr std::size_t kLengths[] = {0,   1,   15,   16,   63,   64,
                                      255, 256, 257, 2048, 8191, 8192};
  for (const PacketType t : {PacketType::kEager, PacketType::kPullReply}) {
    const std::size_t head = encoded_overhead(t) - kChecksumBytes;
    for (const std::size_t n : kLengths) {
      const std::vector<std::byte> bytes = seeded_bytes(n, n + 1);
      DataChunk chunk = payload_for_overwrite(t, n);
      ASSERT_EQ(chunk.size(), n);
      EXPECT_EQ(chunk.headroom(), head);
      EXPECT_EQ(chunk.tailroom(), kChecksumBytes);
      std::copy(bytes.begin(), bytes.end(), chunk.begin());
      const std::byte* data = chunk.data();

      const Packet crafted = data_packet(t, bytes);
      const std::vector<std::byte> copied = encode(crafted);
      const std::vector<std::byte> in_place =
          encode(data_packet(t, std::move(chunk)));
      EXPECT_EQ(in_place, copied) << packet_type_name(t) << " len " << n;
      EXPECT_EQ(in_place.data() + head, data)
          << packet_type_name(t) << " len " << n << ": not built in place";
      EXPECT_EQ(data_of(decode(in_place)).span().size(), n);
    }
  }
}

/// encode(Packet&&) on `p` gives the same bytes as the copying encode, in a
/// buffer other than the one holding `p`'s data.
void expect_copying_branch(Packet p, const char* what) {
  const std::vector<std::byte> want = encode(std::as_const(p));
  const std::byte* data = data_of(p).data();
  const std::size_t head = encoded_overhead(p.type()) - kChecksumBytes;
  const std::vector<std::byte> got = encode(std::move(p));
  EXPECT_EQ(got, want) << what;
  EXPECT_NE(got.data() + head, data) << what;
}

TEST(Wire, ChunkWithoutReservedRoomTakesTheCopyingBranch) {
  const std::vector<std::byte> bytes = seeded_bytes(2048, 11);
  {
    Packet p = data_packet(PacketType::kEager, bytes);
    EXPECT_EQ(data_of(p).headroom(), 0u);
    expect_copying_branch(std::move(p), "vector assigned to data");
  }
  {
    // A received window sits exactly where the header and CRC were, but
    // nothing reserved that room for a new frame.
    net::Frame f;
    f.payload = encode(data_packet(PacketType::kPullReply, bytes));
    Packet p = decode_frame(f);
    EXPECT_EQ(data_of(p).headroom(), 0u);
    EXPECT_EQ(data_of(p).tailroom(), 0u);
    expect_copying_branch(std::move(p), "decode_frame window");
  }
  {
    DataChunk chunk = payload_for_overwrite(PacketType::kPullReply, 4096);
    std::copy(bytes.begin(), bytes.end(), chunk.begin());
    chunk.resize(2048);
    EXPECT_EQ(chunk.headroom(), 0u);
    expect_copying_branch(data_packet(PacketType::kPullReply, std::move(chunk)),
                          "resized chunk");
  }
  {
    DataChunk chunk = payload_for_overwrite(PacketType::kEager, 2048);
    std::copy(bytes.begin(), bytes.end(), chunk.begin());
    expect_copying_branch(data_packet(PacketType::kPullReply, std::move(chunk)),
                          "room reserved for the other packet type");
  }
  {
    const std::size_t head =
        encoded_overhead(PacketType::kPullReply) - kChecksumBytes;
    DataChunk chunk = DataChunk::for_overwrite(2048, head, 0);
    std::copy(bytes.begin(), bytes.end(), chunk.begin());
    expect_copying_branch(data_packet(PacketType::kPullReply, std::move(chunk)),
                          "header room but no CRC room");
  }
}

TEST(Wire, ControlPacketsRoundTrip) {
  {
    Packet p;
    p.body = EagerAckBody{99};
    EXPECT_EQ(std::get<EagerAckBody>(round_trip(p).body).seq, 99u);
  }
  {
    Packet p;
    p.body = NotifyBody{7, 8};
    auto q = round_trip(p);
    EXPECT_EQ(std::get<NotifyBody>(q.body).seq, 7u);
    EXPECT_EQ(std::get<NotifyBody>(q.body).handle, 8u);
  }
  {
    Packet p;
    p.body = NotifyAckBody{13};
    EXPECT_EQ(std::get<NotifyAckBody>(round_trip(p).body).handle, 13u);
  }
  {
    Packet p;
    p.body = AbortBody{21};
    EXPECT_EQ(std::get<AbortBody>(round_trip(p).body).seq, 21u);
  }
}

TEST(Wire, HeaderTypeMatchesBodyAlternative) {
  Packet p;
  p.body = PullBody{};
  auto wire = encode(p);
  EXPECT_EQ(static_cast<PacketType>(std::to_integer<int>(wire[0])),
            PacketType::kPull);
}

TEST(Wire, TruncatedPacketThrows) {
  Packet p;
  RndvBody b;
  p.body = b;
  auto wire = encode(p);
  wire.resize(wire.size() - 1);
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, EmptyBufferThrows) {
  EXPECT_THROW(decode(std::span<const std::byte>{}), WireFormatError);
}

TEST(Wire, BadTypeThrows) {
  std::vector<std::byte> wire(16, std::byte{0});
  wire[0] = std::byte{0xff};
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, TrailingBytesOnFixedSizePacketThrow) {
  Packet p;
  p.body = NotifyBody{1, 2};
  auto wire = encode(p);
  wire.push_back(std::byte{0});
  EXPECT_THROW(decode(wire), WireFormatError);
}

TEST(Wire, EagerFragmentBeyondMessageLengthThrows) {
  Packet p;
  EagerBody b;
  b.msg_len = 4;
  b.frag_offset = 0;
  b.data = bytes_of("too much data");
  p.body = b;
  auto wire = encode(p);
  EXPECT_THROW(decode(wire), WireFormatError);
}

/// Flips one bit in every byte position (header, body, payload, CRC itself):
/// decode must reject each damaged frame, and the pristine one still decodes.
void expect_every_flip_caught(std::vector<std::byte> wire, PacketType type) {
  for (std::size_t i = 0; i < wire.size(); ++i) {
    wire[i] ^= std::byte{0x10};
    EXPECT_THROW((void)decode(wire), WireChecksumError) << "byte " << i;
    wire[i] ^= std::byte{0x10};
  }
  EXPECT_EQ(decode(wire).type(), type);
}

TEST(Wire, ChecksumCatchesSingleBitFlip) {
  Packet p;
  EagerBody b;
  b.match = 0x1234;
  b.msg_len = 64;
  b.seq = 7;
  b.data.assign(64, std::byte{0xa5});
  p.body = b;
  expect_every_flip_caught(encode(p), PacketType::kEager);
}

TEST(Wire, ChecksumCatchesSingleBitFlipInPullReplyBlock) {
  // An 8 kB block: the size the folded CRC path carries on the wire.
  Packet p;
  PullReplyBody b;
  b.handle = 3;
  b.offset = 65536;
  b.data.resize(8192);
  for (std::size_t i = 0; i < b.data.size(); ++i) {
    b.data[i] = static_cast<std::byte>(i * 31 + 7);
  }
  p.body = b;
  expect_every_flip_caught(encode(p), PacketType::kPullReply);
}

/// Bit-at-a-time CRC-32 over the reflected IEEE polynomial, sharing no code
/// or table with wire.cpp.
std::uint32_t crc32_bitwise(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::byte b : bytes) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

constexpr ChecksumTier kAllTiers[] = {
    ChecksumTier::kTable, ChecksumTier::kFold128, ChecksumTier::kFold512};

const char* tier_name(ChecksumTier t) {
  switch (t) {
    case ChecksumTier::kTable:
      return "table";
    case ChecksumTier::kFold128:
      return "fold128";
    case ChecksumTier::kFold512:
      return "fold512";
  }
  return "?";
}

TEST(Wire, ChecksumMatchesBitwiseReferenceAtEveryShortLength) {
  // 0..1,100 spans the <64-byte table-only cut-over, the 64-byte 128-bit
  // fold block and its 16-byte tail, the <256-byte cut-over to the 512-bit
  // fold, its 256-byte main loop and 64-byte tail, and the sub-16-byte
  // table tail — on every tier this CPU has, and on frame_checksum's pick.
  // Each input is its own exact-size allocation, so under ASan a read past
  // the span's end is a heap overflow, not a silent read of the next byte.
  for (std::size_t n = 0; n <= 1100; ++n) {
    const auto v = seeded_bytes(n, 1);
    const std::uint32_t want = crc32_bitwise(v);
    EXPECT_EQ(frame_checksum(v), want) << "len " << n;
    for (const ChecksumTier t : kAllTiers) {
      if (!checksum_tier_supported(t)) continue;
      EXPECT_EQ(frame_checksum_with(t, v), want)
          << tier_name(t) << " len " << n;
    }
  }
}

/// Holds `crc` to the reference at 200 random lengths up to 9 kB, each
/// starting at a random offset into its own exact-size allocation.
template <typename Crc>
void expect_reference_at_random_lengths_and_offsets(Crc crc) {
  // Unaligned starts exercise the folds' unaligned loads; the span ends
  // where its allocation does.
  constexpr std::size_t kMaxLen = 9216;
  std::uint64_t s = 3;
  for (int i = 0; i < 200; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t len = (s >> 33) % (kMaxLen + 1);
    const std::size_t off = (s >> 17) % 16;
    const auto buf = seeded_bytes(off + len, s);
    const auto v = std::span<const std::byte>(buf).subspan(off);
    EXPECT_EQ(crc(v), crc32_bitwise(v)) << "len " << len << " off " << off;
  }
}

TEST(Wire, ChecksumMatchesBitwiseReferenceAtRandomLengthsAndOffsets) {
  expect_reference_at_random_lengths_and_offsets(
      [](std::span<const std::byte> v) { return frame_checksum(v); });
  expect_reference_at_random_lengths_and_offsets(
      [](std::span<const std::byte> v) {
        return frame_checksum_with(ChecksumTier::kTable, v);
      });
}

TEST(Wire, Fold128ChecksumMatchesReferenceAtRandomLengthsAndOffsets) {
  if (!checksum_tier_supported(ChecksumTier::kFold128)) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSE4.1";
  }
  expect_reference_at_random_lengths_and_offsets(
      [](std::span<const std::byte> v) {
        return frame_checksum_with(ChecksumTier::kFold128, v);
      });
}

TEST(Wire, Fold512ChecksumMatchesReferenceAtRandomLengthsAndOffsets) {
  if (!checksum_tier_supported(ChecksumTier::kFold512)) {
    GTEST_SKIP() << "CPU lacks VPCLMULQDQ or AVX-512F";
  }
  expect_reference_at_random_lengths_and_offsets(
      [](std::span<const std::byte> v) {
        return frame_checksum_with(ChecksumTier::kFold512, v);
      });
}

TEST(Wire, ChecksumIsLittleEndianTrailerOverPrecedingBytes) {
  Packet p;
  p.body = EagerAckBody{4711};
  auto wire = encode(p);
  ASSERT_GT(wire.size(), kChecksumBytes);
  const auto body = std::span<const std::byte>(wire).first(
      wire.size() - kChecksumBytes);
  const std::uint32_t crc = frame_checksum(body);
  const std::size_t t = wire.size() - kChecksumBytes;
  EXPECT_EQ(wire[t + 0], std::byte(crc & 0xff));
  EXPECT_EQ(wire[t + 1], std::byte((crc >> 8) & 0xff));
  EXPECT_EQ(wire[t + 2], std::byte((crc >> 16) & 0xff));
  EXPECT_EQ(wire[t + 3], std::byte((crc >> 24) & 0xff));
}

TEST(Wire, ChecksumIsDeterministicAndContentSensitive) {
  std::vector<std::byte> a(100, std::byte{0x11});
  std::vector<std::byte> b(100, std::byte{0x11});
  EXPECT_EQ(frame_checksum(a), frame_checksum(b));
  b[50] = std::byte{0x12};
  EXPECT_NE(frame_checksum(a), frame_checksum(b));
  // CRC-32 (IEEE) of "123456789" is the classic check value.
  const char* check = "123456789";
  std::vector<std::byte> v(9);
  std::memcpy(v.data(), check, 9);
  EXPECT_EQ(frame_checksum(v), 0xcbf43926u);
}

TEST(Wire, ChecksumErrorIsDistinctFromFormatError) {
  Packet p;
  p.body = AbortBody{1};
  auto wire = encode(p);
  wire.back() ^= std::byte{0xff};
  bool caught_checksum = false;
  try {
    (void)decode(wire);
  } catch (const WireChecksumError&) {
    caught_checksum = true;
  }
  EXPECT_TRUE(caught_checksum);
}

TEST(Wire, PacketTypeNames) {
  std::size_t rows = 0;
#define EXPECT_ROW_NAME(type, name, Body)                 \
  EXPECT_STREQ(packet_type_name(PacketType::type), name); \
  EXPECT_EQ(static_cast<std::size_t>(PacketType::type), ++rows);
  PINSIM_PACKET_TYPES(EXPECT_ROW_NAME)
#undef EXPECT_ROW_NAME
  EXPECT_EQ(rows, kPacketTypeCount);
  EXPECT_STREQ(packet_type_name(static_cast<PacketType>(0)), "UNKNOWN");
  EXPECT_STREQ(packet_type_name(static_cast<PacketType>(99)), "UNKNOWN");
}

TEST(Wire, OverheadIsTheSizeOfADatalessFrame) {
#define EXPECT_ROW_OVERHEAD(type, name, Body)                      \
  {                                                                \
    Packet p;                                                      \
    p.body = Body{};                                               \
    EXPECT_EQ(encode(p).size(), encoded_overhead(PacketType::type)) \
        << name;                                                   \
  }
  PINSIM_PACKET_TYPES(EXPECT_ROW_OVERHEAD)
#undef EXPECT_ROW_OVERHEAD
}

std::string hex_of(std::span<const std::byte> bytes) {
  std::string out;
  for (const std::byte b : bytes) {
    constexpr const char* kDigits = "0123456789abcdef";
    out += kDigits[std::to_integer<int>(b) >> 4];
    out += kDigits[std::to_integer<int>(b) & 0xf];
  }
  return out;
}

// One packet per table row, every header byte and field distinct, against
// the bytes the hand-written codec produced before the table generated it:
// the layout is the 5-byte header, the fixed fields little-endian in wire
// order, the bulk data, then the CRC-32.
TEST(Wire, EveryTypeEncodesToItsFrozenBytes) {
  const auto packet = [](int row, PacketBody body) {
    Packet p;
    p.header.src_ep = static_cast<std::uint8_t>(row);
    p.header.dst_ep = static_cast<std::uint8_t>(row + 10);
    p.header.src_epoch = static_cast<std::uint8_t>(row + 20);
    p.header.dst_epoch = static_cast<std::uint8_t>(row + 30);
    p.body = std::move(body);
    return p;
  };
  const std::pair<Packet, const char*> golden[] = {
      {packet(1, EagerBody{0x1122334455667788ULL, 0x100, 0x20, 0x0a0b0c0d,
                           bytes_of("eager!")}),
       "01010b151f887766554433221100010000200000000d0c0b0a656167657221169ef7"
       "af"},
      {packet(2, EagerAckBody{0x01020304}), "02020c162004030201b9e42191"},
      {packet(3, RndvBody{0x8877665544332211ULL, 0x100000005ULL, 0x11, 0x22}),
       "03030d1721112233445566778805000000010000001100000022000000ac9f24ce"},
      {packet(4, PullBody{0xa1, 0xb2, 0x0102030405060708ULL, 0x8000, 0xc3}),
       "04040e1822a1000000b2000000080706050403020100800000c3000000d83f31fa"},
      {packet(5, PullReplyBody{0xd4, 0x10000, bytes_of("reply")}),
       "05050f1923d400000000000100000000007265706c79328c4a11"},
      {packet(6, NotifyBody{0xe5, 0xf6}), "0606101a24e5000000f60000008458f669"},
      {packet(7, NotifyAckBody{0x1234}), "0707111b2534120000c0addf49"},
      {packet(8, AbortBody{0x5678}), "0808121c2678560000d1e25a82"},
  };
  ASSERT_EQ(std::size(golden), kPacketTypeCount);
  for (std::size_t row = 0; row < kPacketTypeCount; ++row) {
    const auto& [p, hex] = golden[row];
    ASSERT_EQ(p.body.index(), row);
    const std::vector<std::byte> wire = encode(p);
    EXPECT_EQ(hex_of(wire), hex) << packet_type_name(packet_type(p.body));
    // And back: the decoded packet encodes to the same bytes.
    EXPECT_EQ(encode(decode(wire)), wire);
  }
}

// The decoder's type check is the table's range: 0 and one past the last
// row are rejected even behind a valid checksum.
TEST(Wire, TypeOutsideTheTableThrowsBehindAValidChecksum) {
  for (const std::size_t raw : {std::size_t{0}, kPacketTypeCount + 1}) {
    Packet p;
    p.body = AbortBody{1};
    std::vector<std::byte> wire = encode(p);
    wire[0] = static_cast<std::byte>(raw);
    const std::size_t n = wire.size() - kChecksumBytes;
    const std::uint32_t crc =
        frame_checksum(std::span<const std::byte>(wire).first(n));
    for (std::size_t i = 0; i < kChecksumBytes; ++i) {
      wire[n + i] = static_cast<std::byte>(crc >> (8 * i));
    }
    try {
      (void)decode(wire);
      ADD_FAILURE() << "type " << raw << " decoded";
    } catch (const WireChecksumError&) {
      ADD_FAILURE() << "type " << raw << " failed the checksum";
    } catch (const WireFormatError&) {
    }
  }
}

}  // namespace
}  // namespace pinsim::core
