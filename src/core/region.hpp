#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/types.hpp"
#include "sim/small_vector.hpp"

namespace pinsim::core {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = ~RegionId{0};

/// One contiguous piece of a (possibly vectorial) user region.
struct Segment {
  mem::VirtAddr addr = 0;
  std::size_t len = 0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// A message's (possibly vectorial) user buffer. Almost every message names
/// one contiguous buffer, held inline, so posting one allocates nothing.
using SegmentList = sim::SmallVector<Segment, 1>;

/// Driver-side state of a declared user region (paper §3.1).
///
/// Declaration only records the segment list; whether pages are pinned is
/// the driver's private business. Pages pin strictly in address order, so a
/// single frontier describes progress — the property overlapped pinning
/// leans on: in-order pull traffic touches offsets behind the frontier.
///
/// Data accessors go straight to the pinned frames (the kernel's direct
/// mapping), never through the page table: if a page is not pinned the
/// access *fails* with kNotPinned and the caller drops the packet. That is
/// the paper's §3.3 drop-on-miss design, and it is also what makes the
/// accessors safe from interrupt context.
class Region {
 public:
  enum class PinState { kUnpinned, kPinning, kPinned, kFailed };
  enum class AccessResult { kOk, kNotPinned };

  Region(RegionId id, mem::AddressSpace& as, std::vector<Segment> segments);

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] RegionId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] std::size_t total_length() const noexcept { return total_; }
  [[nodiscard]] std::size_t page_count() const noexcept {
    return slots_.size();
  }

  [[nodiscard]] PinState state() const noexcept { return state_; }
  void set_state(PinState s) noexcept { state_ = s; }
  [[nodiscard]] bool fully_pinned() const noexcept {
    return frontier_ == slots_.size();
  }
  [[nodiscard]] std::size_t pinned_pages() const noexcept { return frontier_; }
  [[nodiscard]] std::size_t unpinned_pages() const noexcept {
    return slots_.size() - frontier_;
  }

  /// Virtual address of the next page to pin (frontier page). Precondition:
  /// !fully_pinned().
  [[nodiscard]] mem::VirtAddr next_unpinned_va() const;

  /// Virtual address of page slot `idx`. Slots are not VA-contiguous across
  /// segments of a vectorial region.
  [[nodiscard]] mem::VirtAddr page_va_at(std::size_t idx) const;

  /// Records that the next `frames.size()` pages (from the frontier, in
  /// order) are now pinned with these frames.
  void commit_pins(std::span<const mem::FrameId> frames);

  /// Forgets every pin and returns the (va, frame) pairs so the caller can
  /// release them through the address space. Used on memory pressure and
  /// undeclare.
  [[nodiscard]] std::vector<std::pair<mem::VirtAddr, mem::FrameId>>
  take_all_pins();

  /// Range-granular variant for MMU-notifier invalidation: forgets the pins
  /// of slots [slot, frontier) and truncates the frontier to `slot`, keeping
  /// every pin below it valid (pages pin strictly in order, so the
  /// contiguous-frontier invariant survives). No-op when `slot` is at or
  /// past the frontier.
  [[nodiscard]] std::vector<std::pair<mem::VirtAddr, mem::FrameId>>
  take_pins_from(std::size_t slot);

  /// Lowest slot whose page intersects [start, end), or npos.
  [[nodiscard]] std::size_t first_slot_overlapping(mem::VirtAddr start,
                                                   mem::VirtAddr end) const;
  static constexpr std::size_t npos = ~std::size_t{0};

  /// True if [start, end) intersects any page of this region.
  [[nodiscard]] bool overlaps(mem::VirtAddr start, mem::VirtAddr end) const;

  /// Copies region bytes [offset, offset+dst.size()) into `dst` (send path:
  /// region -> wire). Fails with kNotPinned if any touched page is not
  /// pinned; nothing is copied in that case.
  [[nodiscard]] AccessResult copy_out(std::size_t offset,
                                      std::span<std::byte> dst) const;

  /// Copies `src` into region bytes at `offset` (receive path: wire ->
  /// region). All-or-nothing like copy_out.
  [[nodiscard]] AccessResult copy_in(std::size_t offset,
                                     std::span<const std::byte> src);

  [[nodiscard]] bool range_pinned(std::size_t offset, std::size_t len) const;

  /// Pages, counted from the region's first, that must be pinned for
  /// [offset, offset+len) to be accessible: the frontier target that makes
  /// range_pinned true.
  [[nodiscard]] std::size_t pages_through(std::size_t offset,
                                          std::size_t len) const;

  /// Page-table-based accessors for PinMode::kNone (the QsNet-style no-pin
  /// bound): translations are resolved through the address space on every
  /// access, faulting pages in; they never miss.
  void copy_out_paged(std::size_t offset, std::span<std::byte> dst);
  void copy_in_paged(std::size_t offset, std::span<const std::byte> src);

  /// Active communications currently using this region. The cache never
  /// evicts and pressure never unpins a region in use.
  void add_use() noexcept { ++use_count_; }
  void drop_use() noexcept { --use_count_; }
  [[nodiscard]] std::uint32_t use_count() const noexcept { return use_count_; }

  [[nodiscard]] mem::AddressSpace& address_space() noexcept { return as_; }

 private:
  struct Slot {
    mem::VirtAddr page_va = 0;
    mem::FrameId frame = mem::kInvalidFrame;
    bool pinned = false;
  };

  /// Maps a region offset to (slot index, offset inside that page, bytes
  /// available in this page within the segment).
  struct Location {
    std::size_t slot;
    std::size_t page_off;
    std::size_t chunk;  // contiguous bytes available at this location
  };
  [[nodiscard]] Location locate(std::size_t offset,
                                std::size_t remaining) const;

  RegionId id_;
  mem::AddressSpace& as_;
  std::vector<Segment> segments_;
  std::vector<std::size_t> seg_offset_;     // cumulative start offset per segment
  std::vector<std::size_t> seg_slot_base_;  // first slot index per segment
  std::vector<Slot> slots_;
  std::size_t total_ = 0;
  std::size_t frontier_ = 0;  // slots_[0..frontier_) are pinned
  PinState state_ = PinState::kUnpinned;
  std::uint32_t use_count_ = 0;
};

}  // namespace pinsim::core
