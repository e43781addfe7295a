#include "core/region.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "mem/physical_memory.hpp"

namespace pinsim::core {
namespace {

class RegionTest : public ::testing::Test {
 protected:
  RegionTest() : pm_(2048), as_(pm_) {}

  /// Pins the next `n` frontier pages of `r` the way PinManager does.
  void pin_pages(Region& r, std::size_t n) {
    std::vector<mem::FrameId> frames;
    const std::size_t base = r.pinned_pages();
    for (std::size_t i = 0; i < n; ++i) {
      frames.push_back(as_.pin_page(r.page_va_at(base + i)));
    }
    r.commit_pins(frames);
  }

  void unpin_all(Region& r) {
    for (auto& [va, frame] : r.take_all_pins()) as_.unpin_page(va, frame);
  }

  mem::PhysicalMemory pm_;
  mem::AddressSpace as_;
};

TEST_F(RegionTest, SingleSegmentPageMath) {
  const auto addr = as_.mmap(64 * 1024);
  Region r(1, as_, {Segment{addr, 64 * 1024}});
  EXPECT_EQ(r.id(), 1u);
  EXPECT_EQ(r.total_length(), 64u * 1024);
  EXPECT_EQ(r.page_count(), 16u);
  EXPECT_EQ(r.state(), Region::PinState::kUnpinned);
  EXPECT_FALSE(r.fully_pinned());
}

TEST_F(RegionTest, UnalignedSegmentSpansExtraPage) {
  const auto addr = as_.mmap(3 * 4096);
  // 4096 bytes starting mid-page touch two pages.
  Region r(1, as_, {Segment{addr + 100, 4096}});
  EXPECT_EQ(r.page_count(), 2u);
}

TEST_F(RegionTest, VectorialRegionConcatenatesSegments) {
  const auto a = as_.mmap(2 * 4096);
  const auto b = as_.mmap(2 * 4096);
  Region r(1, as_, {Segment{a, 5000}, Segment{b + 8, 3000}});
  EXPECT_EQ(r.total_length(), 8000u);
  EXPECT_EQ(r.page_count(), 2u + 1u);
  EXPECT_EQ(r.page_va_at(0), a);
  EXPECT_EQ(r.page_va_at(2), b);
}

TEST_F(RegionTest, EmptyOrZeroSegmentsRejected) {
  EXPECT_THROW(Region(1, as_, {}), std::invalid_argument);
  const auto a = as_.mmap(4096);
  EXPECT_THROW(Region(1, as_, {Segment{a, 0}}), std::invalid_argument);
}

TEST_F(RegionTest, AccessBeforePinningReportsNotPinned) {
  const auto addr = as_.mmap(8192);
  Region r(1, as_, {Segment{addr, 8192}});
  std::vector<std::byte> buf(100);
  EXPECT_EQ(r.copy_out(0, buf), Region::AccessResult::kNotPinned);
  EXPECT_EQ(r.copy_in(0, buf), Region::AccessResult::kNotPinned);
  EXPECT_FALSE(r.range_pinned(0, 1));
}

TEST_F(RegionTest, CopyInOutRoundTripWhenPinned) {
  const auto addr = as_.mmap(8192);
  Region r(1, as_, {Segment{addr, 8192}});
  pin_pages(r, 2);
  EXPECT_TRUE(r.fully_pinned());
  EXPECT_EQ(r.state(), Region::PinState::kPinned);

  std::vector<std::byte> in(5000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>(i % 251);
  }
  EXPECT_EQ(r.copy_in(1000, in), Region::AccessResult::kOk);
  std::vector<std::byte> out(5000);
  EXPECT_EQ(r.copy_out(1000, out), Region::AccessResult::kOk);
  EXPECT_EQ(out, in);

  // The data must be visible to the application through the page table.
  std::vector<std::byte> app(5000);
  as_.read(addr + 1000, app);
  EXPECT_EQ(app, in);
  unpin_all(r);
}

TEST_F(RegionTest, PartialPinFrontierSemantics) {
  const auto addr = as_.mmap(4 * 4096);
  Region r(1, as_, {Segment{addr, 4 * 4096}});
  pin_pages(r, 2);
  EXPECT_EQ(r.pinned_pages(), 2u);
  EXPECT_EQ(r.unpinned_pages(), 2u);
  EXPECT_FALSE(r.fully_pinned());
  EXPECT_EQ(r.next_unpinned_va(), addr + 2 * 4096);

  // In-frontier access works, beyond-frontier fails: the overlap-miss test.
  std::vector<std::byte> buf(100);
  EXPECT_EQ(r.copy_out(0, buf), Region::AccessResult::kOk);
  EXPECT_EQ(r.copy_out(4096, buf), Region::AccessResult::kOk);
  EXPECT_EQ(r.copy_out(2 * 4096, buf), Region::AccessResult::kNotPinned);
  // An access straddling the frontier fails as a whole.
  EXPECT_EQ(r.copy_out(2 * 4096 - 50, buf), Region::AccessResult::kNotPinned);
  unpin_all(r);
}

TEST_F(RegionTest, PagesThroughIsTheFrontierThatPinsTheRange) {
  // Vectorial and unaligned: slots are neither VA-contiguous nor aligned
  // with region offsets.
  const auto a = as_.mmap(3 * 4096);
  const auto b = as_.mmap(2 * 4096);
  Region r(1, as_, {Segment{a + 100, 5000}, Segment{b + 8, 3000}});
  ASSERT_EQ(r.page_count(), 3u);
  EXPECT_EQ(r.pages_through(0, 0), 0u);
  for (std::size_t k = 0; k <= r.page_count(); ++k) {
    for (std::size_t off = 0; off < r.total_length(); off += 250) {
      for (const std::size_t len : {1, 700, 3996, 4097}) {
        if (off + len > r.total_length()) continue;
        EXPECT_EQ(r.range_pinned(off, len), r.pages_through(off, len) <= k)
            << "frontier " << k << " range [" << off << ", +" << len << ")";
      }
    }
    if (k < r.page_count()) pin_pages(r, 1);
  }
  unpin_all(r);
}

TEST_F(RegionTest, CopyAcrossSegmentBoundary) {
  const auto a = as_.mmap(4096);
  const auto b = as_.mmap(4096);
  Region r(1, as_, {Segment{a, 1000}, Segment{b + 50, 1000}});
  pin_pages(r, 2);

  std::vector<std::byte> in(1500);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>((i * 13) % 256);
  }
  EXPECT_EQ(r.copy_in(500, in), Region::AccessResult::kOk);
  std::vector<std::byte> out(1500);
  EXPECT_EQ(r.copy_out(500, out), Region::AccessResult::kOk);
  EXPECT_EQ(out, in);

  // Verify through the page table that both segments got their share.
  std::vector<std::byte> first(500);
  as_.read(a + 500, first);
  EXPECT_EQ(0, std::memcmp(first.data(), in.data(), 500));
  std::vector<std::byte> second(1000);
  as_.read(b + 50, second);
  EXPECT_EQ(0, std::memcmp(second.data(), in.data() + 500, 1000));
  unpin_all(r);
}

TEST_F(RegionTest, OutOfRangeAccessThrows) {
  const auto addr = as_.mmap(4096);
  Region r(1, as_, {Segment{addr, 4096}});
  pin_pages(r, 1);
  std::vector<std::byte> buf(100);
  EXPECT_THROW((void)r.copy_out(4090, buf), std::out_of_range);
  EXPECT_THROW((void)r.copy_in(4096, buf), std::out_of_range);
  unpin_all(r);
}

TEST_F(RegionTest, TakeAllPinsResetsState) {
  const auto addr = as_.mmap(3 * 4096);
  Region r(1, as_, {Segment{addr, 3 * 4096}});
  pin_pages(r, 3);
  EXPECT_EQ(pm_.pinned_pages(), 3u);
  auto pins = r.take_all_pins();
  EXPECT_EQ(pins.size(), 3u);
  EXPECT_EQ(r.pinned_pages(), 0u);
  EXPECT_EQ(r.state(), Region::PinState::kUnpinned);
  for (auto& [va, f] : pins) as_.unpin_page(va, f);
  EXPECT_EQ(pm_.pinned_pages(), 0u);
}

TEST_F(RegionTest, OverlapDetection) {
  const auto a = as_.mmap(2 * 4096);
  const auto b = as_.mmap(2 * 4096);
  Region r(1, as_, {Segment{a + 100, 4096}});  // pages [a, a+8192)
  EXPECT_TRUE(r.overlaps(a, a + 1));
  EXPECT_TRUE(r.overlaps(a + 4096, a + 8192));
  EXPECT_FALSE(r.overlaps(b, b + 4096));
  EXPECT_FALSE(r.overlaps(a + 8192, a + 12288));
}

TEST_F(RegionTest, UseCounting) {
  const auto addr = as_.mmap(4096);
  Region r(1, as_, {Segment{addr, 4096}});
  EXPECT_EQ(r.use_count(), 0u);
  r.add_use();
  r.add_use();
  EXPECT_EQ(r.use_count(), 2u);
  r.drop_use();
  EXPECT_EQ(r.use_count(), 1u);
  r.drop_use();
  EXPECT_EQ(r.use_count(), 0u);
}

}  // namespace
}  // namespace pinsim::core
