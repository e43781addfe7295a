// Randomized property tests against reference models:
//  * Region copy_in/copy_out over random vectorial layouts must behave like
//    a flat byte array;
//  * wire decode() must never crash on arbitrary bytes — it either throws
//    WireFormatError or returns a packet that re-encodes consistently;
//  * seeded memory-pressure schedules (quota shrink/grow, injected pin
//    denials, notifier storms) against the pin manager must always converge
//    to a bit-exact fully-pinned region once the pressure lifts.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/pin_manager.hpp"
#include "core/region.hpp"
#include "core/wire.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "mem/physical_memory.hpp"
#include "mem/pressure.hpp"
#include "obs/bus.hpp"
#include "obs/invariants.hpp"
#include "obs/relay.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace pinsim::core {
namespace {

class RegionCopyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionCopyFuzz, BehavesLikeAFlatByteArray) {
  sim::Rng rng(GetParam());
  mem::PhysicalMemory pm(4096);
  mem::AddressSpace as(pm);

  // Random vectorial layout: 1-6 segments with random sizes and offsets.
  std::vector<Segment> segs;
  const int nsegs = 1 + static_cast<int>(rng.next_below(6));
  std::size_t total = 0;
  for (int s = 0; s < nsegs; ++s) {
    const std::size_t len = 1 + rng.next_below(40000);
    const std::size_t pad = rng.next_below(200);
    const auto base = as.mmap(len + pad + mem::kPageSize);
    segs.push_back(Segment{base + pad, len});
    total += len;
  }
  Region region(1, as, segs);
  ASSERT_EQ(region.total_length(), total);

  // Pin everything the way the pin manager does.
  {
    std::vector<mem::FrameId> frames;
    for (std::size_t i = 0; i < region.page_count(); ++i) {
      frames.push_back(as.pin_page(region.page_va_at(i)));
    }
    region.commit_pins(frames);
  }

  // Reference model: a plain byte vector.
  std::vector<std::byte> model(total, std::byte{0});
  {
    std::vector<std::byte> zero(total, std::byte{0});
    ASSERT_EQ(region.copy_in(0, zero), Region::AccessResult::kOk);
  }

  for (int op = 0; op < 200; ++op) {
    const std::size_t off = rng.next_below(total);
    const std::size_t len = 1 + rng.next_below(total - off);
    if (rng.bernoulli(0.5)) {
      // Random write to both.
      std::vector<std::byte> data(len);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      ASSERT_EQ(region.copy_in(off, data), Region::AccessResult::kOk);
      std::memcpy(model.data() + off, data.data(), len);
    } else {
      // Read and compare against the model.
      std::vector<std::byte> out(len);
      ASSERT_EQ(region.copy_out(off, out), Region::AccessResult::kOk);
      ASSERT_EQ(0, std::memcmp(out.data(), model.data() + off, len))
          << "divergence at op " << op << " off " << off << " len " << len;
    }
  }

  // A paged region over the same bytes must agree with the pinned one, in
  // both directions.
  Region paged(2, as, segs, /*paged=*/true);
  std::vector<std::byte> through_page_table(total);
  ASSERT_EQ(paged.copy_out(0, through_page_table), Region::AccessResult::kOk);
  EXPECT_EQ(through_page_table, model);
  const std::size_t off = rng.next_below(total);
  std::vector<std::byte> data(1 + rng.next_below(total - off), std::byte{0xa5});
  ASSERT_EQ(paged.copy_in(off, data), Region::AccessResult::kOk);
  std::memcpy(model.data() + off, data.data(), data.size());
  std::vector<std::byte> out(total);
  ASSERT_EQ(region.copy_out(0, out), Region::AccessResult::kOk);
  EXPECT_EQ(out, model);
  EXPECT_EQ(paged.pinned_pages(), 0u);

  for (auto& [va, f] : region.take_pins_from(0)) as.unpin_page(va, f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionCopyFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- memory-pressure schedule fuzz ------------------------------------------

class PressureScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PressureScheduleFuzz, AlwaysConvergesBitExactWhenPressureLifts) {
  sim::Rng rng(GetParam());
  sim::Engine eng;
  mem::PhysicalMemory pm(512);
  mem::AddressSpace as(pm);
  cpu::Core core(eng, "cpu0");
  Counters counters;
  PinningConfig cfg;
  cfg.overlapped = true;
  cfg.pin_chunk_pages = 4;
  cfg.pin_retry_backoff = 10 * sim::kMicrosecond;
  cfg.pin_retry_budget = 8;
  // Every random schedule streams through the invariant checker too: no
  // seed may produce a pin-state sequence a correct stack could not.
  obs::Bus bus(eng);
  obs::InvariantChecker checker(mem::kPageSize);
  obs::Relay relay;
  bus.attach(&checker);
  relay.set_bus(&bus);
  PinManager mgr(eng, core, cpu::xeon_e5460(), cfg, counters, &relay);

  mem::PressureInjector inj(GetParam() * 2654435761u + 1);
  pm.set_pressure(&inj);
  inj.watch(&as);

  constexpr std::size_t kPages = 48;
  constexpr std::size_t kBytes = kPages * mem::kPageSize;
  const auto addr = as.mmap(kBytes);
  Region& r = mgr.declare(as, {Segment{addr, kBytes}});

  // Reference model: whatever the schedule wrote must be what the region
  // holds once everything settles.
  std::vector<std::byte> model(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    model[i] = static_cast<std::byte>(i % 241);
  }
  as.write(addr, model);

  const std::size_t quotas[] = {0, 8, 24, 64,
                                std::numeric_limits<std::size_t>::max()};
  const double fail_rates[] = {0.0, 0.3, 0.9};

  for (int op = 0; op < 80; ++op) {
    switch (rng.next_below(7)) {
      case 0:  // a communication wants the region pinned
        mgr.ensure_pinned(r, [](bool) {});
        break;
      case 1: {  // let simulated time pass
        const int steps = 1 + static_cast<int>(rng.next_below(40));
        for (int s = 0; s < steps && eng.step(); ++s) {
        }
        break;
      }
      case 2:  // quota shrink/grow under the driver's feet
        pm.set_pin_quota(quotas[rng.next_below(5)]);
        break;
      case 3: {  // injected get_user_pages failures come and go
        mem::PressurePlan plan = inj.plan();
        plan.pin_fail = fail_rates[rng.next_below(3)];
        plan.burst_enter = rng.bernoulli(0.3) ? 0.05 : 0.0;
        inj.set_plan(plan);
        break;
      }
      case 4: {  // notifier burst: sweep/migrate/cow storm right now
        mem::PressurePlan plan = inj.plan();
        plan.sweep = 1.0;
        plan.sweep_pages = rng.next_below(16);
        plan.migrate = 0.5;
        plan.cow = 0.5;
        inj.set_plan(plan);
        inj.storm_once();
        break;
      }
      case 5: {  // MMU notifier invalidates a random subrange
        const std::size_t first = rng.next_below(kPages);
        const std::size_t n = 1 + rng.next_below(kPages - first);
        mgr.invalidate_range(
            addr + first * mem::kPageSize,
            addr + (first + n) * mem::kPageSize);
        break;
      }
      default: {  // the application writes its buffer (always succeeds)
        const std::size_t off = rng.next_below(kBytes);
        const std::size_t len = 1 + rng.next_below(kBytes - off);
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
        as.write(addr + off, data);
        std::memcpy(model.data() + off, data.data(), len);
        break;
      }
    }
  }

  // Pressure lifts: everything must converge, with no stuck events.
  inj.set_plan({});
  pm.set_pin_quota(std::numeric_limits<std::size_t>::max());
  bool ok = false;
  mgr.when_pinned(r, r.page_count(), [&](bool o) { ok = o; });
  eng.run();
  EXPECT_TRUE(ok) << "seed " << GetParam();
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(eng.pending(), 0u);

  std::vector<std::byte> out(kBytes);
  ASSERT_EQ(r.copy_out(0, out), Region::AccessResult::kOk);
  EXPECT_EQ(out, model) << "seed " << GetParam();

  mgr.undeclare(r.id());
  EXPECT_EQ(pm.pinned_pages(), 0u);  // no leaked pins anywhere in the schedule
  pm.set_pressure(nullptr);

  checker.finalize();
  EXPECT_TRUE(checker.ok()) << "seed " << GetParam() << "\n"
                            << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PressureScheduleFuzz,
                         ::testing::Values(7, 11, 19, 23, 31, 47));

class WireDecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireDecodeFuzz, ArbitraryBytesNeverCrash) {
  sim::Rng rng(GetParam());
  int parsed = 0;
  int rejected = 0;
  for (int round = 0; round < 5000; ++round) {
    std::vector<std::byte> bytes(rng.next_below(64));
    for (auto& b : bytes) b = static_cast<std::byte>(rng.next_below(256));
    // Bias the first byte toward valid types half the time so the deeper
    // field parsing gets exercised too.
    if (!bytes.empty() && rng.bernoulli(0.5)) {
      bytes[0] = static_cast<std::byte>(1 + rng.next_below(8));
    }
    // Half the frames get a correct trailing CRC so decode proceeds past the
    // checksum gate into field parsing; the rest exercise checksum rejection
    // (a random trailer passes with probability 2^-32, i.e. never).
    if (rng.bernoulli(0.5)) {
      const std::uint32_t crc = frame_checksum(bytes);
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xff));
      }
    }
    try {
      const Packet p = decode(bytes);
      ++parsed;
      // A parsed packet must re-encode without throwing, and re-decode to
      // the same type (full idempotence can differ for data-carrying types
      // only in padding, which encode/decode do not add).
      const auto wire = encode(p);
      const Packet q = decode(wire);
      ASSERT_EQ(p.type(), q.type());
    } catch (const WireFormatError&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur — otherwise the fuzz is toothless.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireDecodeFuzz,
                         ::testing::Values(101, 202, 303));

TEST(WireRoundTripFuzz, RandomFieldValuesSurviveEncodeDecode) {
  sim::Rng rng(777);
  for (int round = 0; round < 500; ++round) {
    Packet p;
    p.header.src_ep = static_cast<std::uint8_t>(rng.next_below(16));
    p.header.dst_ep = static_cast<std::uint8_t>(rng.next_below(16));
    switch (rng.next_below(4)) {
      case 0: {
        EagerBody b;
        b.match = rng.next_u64();
        b.seq = static_cast<std::uint32_t>(rng.next_u64());
        b.data.resize(rng.next_below(9000));
        for (auto& x : b.data) x = static_cast<std::byte>(rng.next_below(256));
        b.frag_offset = 0;
        b.msg_len = static_cast<std::uint32_t>(b.data.size());
        p.body = std::move(b);
        break;
      }
      case 1: {
        RndvBody b;
        b.match = rng.next_u64();
        b.msg_len = rng.next_u64() >> 20;
        b.region = static_cast<std::uint32_t>(rng.next_u64());
        b.seq = static_cast<std::uint32_t>(rng.next_u64());
        p.body = b;
        break;
      }
      case 2: {
        PullBody b;
        b.region = static_cast<std::uint32_t>(rng.next_u64());
        b.handle = static_cast<std::uint32_t>(rng.next_u64());
        b.offset = rng.next_u64() >> 8;
        b.len = static_cast<std::uint32_t>(rng.next_below(1 << 20));
        b.seq = static_cast<std::uint32_t>(rng.next_u64());
        p.body = b;
        break;
      }
      default: {
        PullReplyBody b;
        b.handle = static_cast<std::uint32_t>(rng.next_u64());
        b.offset = rng.next_u64() >> 8;
        b.data.resize(rng.next_below(8192));
        for (auto& x : b.data) x = static_cast<std::byte>(rng.next_below(256));
        p.body = std::move(b);
        break;
      }
    }
    p.header.type = packet_type(p.body);
    const auto wire = encode(p);
    const Packet q = decode(wire);
    ASSERT_EQ(p.type(), q.type());
    ASSERT_EQ(encode(q), wire) << "round " << round;
  }
}

}  // namespace
}  // namespace pinsim::core
