#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

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
  frame_buffers().release(std::vector<std::byte>(9000, std::byte{0x5a}));
  const std::size_t retained = frame_buffers().retained();
  DataChunk c = DataChunk::for_overwrite(8192);
  EXPECT_EQ(frame_buffers().retained(), retained - 1);
  EXPECT_EQ(c.size(), 8192u);
  std::fill(c.begin(), c.end(), std::byte{0x3c});
  PullReplyBody b;
  b.data = std::move(c);
  Packet p;
  p.body = std::move(b);
  const Packet q = round_trip(std::move(p));
  const auto& rb = std::get<PullReplyBody>(q.body);
  ASSERT_EQ(rb.data.size(), 8192u);
  EXPECT_EQ(rb.data[0], std::byte{0x3c});
  EXPECT_EQ(rb.data[8191], std::byte{0x3c});
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

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  std::uint64_t s = seed;
  for (auto& b : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::byte>(s >> 56);
  }
  return v;
}

TEST(Wire, ChecksumMatchesBitwiseReferenceAtEveryShortLength) {
  // 0..320 spans the <64-byte table-only cut-over, the 64-byte fold block,
  // the 16-byte fold tail and the sub-16-byte table tail.
  // Each input is its own exact-size allocation, so under ASan a read past
  // the span's end is a heap overflow, not a silent read of the next byte.
  for (std::size_t n = 0; n <= 320; ++n) {
    const auto v = seeded_bytes(n, 1);
    const std::uint32_t want = crc32_bitwise(v);
    EXPECT_EQ(frame_checksum(v), want) << "len " << n;
    EXPECT_EQ(frame_checksum_bytewise(v), want) << "len " << n;
  }
}

TEST(Wire, ChecksumMatchesBitwiseReferenceAtRandomLengthsAndOffsets) {
  // Unaligned starts exercise the fold's unaligned loads; the span ends
  // where its allocation does.
  constexpr std::size_t kMaxLen = 9216;
  std::uint64_t s = 3;
  for (int i = 0; i < 200; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t len = (s >> 33) % (kMaxLen + 1);
    const std::size_t off = (s >> 17) % 16;
    const auto buf = seeded_bytes(off + len, s);
    const auto v = std::span<const std::byte>(buf).subspan(off);
    const std::uint32_t want = crc32_bitwise(v);
    EXPECT_EQ(frame_checksum(v), want) << "len " << len << " off " << off;
    EXPECT_EQ(frame_checksum_bytewise(v), want)
        << "len " << len << " off " << off;
  }
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
  EXPECT_STREQ(packet_type_name(PacketType::kEager), "EAGER");
  EXPECT_STREQ(packet_type_name(PacketType::kPullReply), "PULL_REPLY");
  EXPECT_STREQ(packet_type_name(static_cast<PacketType>(99)), "UNKNOWN");
}

}  // namespace
}  // namespace pinsim::core
