#include "core/region.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace pinsim::core {

using mem::kPageSize;
using mem::page_index;
using mem::page_offset;
using mem::pages_spanned;

Region::Region(RegionId id, mem::AddressSpace& as,
               std::vector<Segment> segments)
    : id_(id), as_(as), segments_(std::move(segments)) {
  if (segments_.empty()) throw std::invalid_argument("region with no segments");
  seg_offset_.reserve(segments_.size());
  seg_slot_base_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    if (seg.len == 0) throw std::invalid_argument("zero-length segment");
    seg_offset_.push_back(total_);
    seg_slot_base_.push_back(slots_.size());
    total_ += seg.len;
    const std::size_t pages = pages_spanned(seg.addr, seg.len);
    for (std::size_t i = 0; i < pages; ++i) {
      Slot slot;
      slot.page_va = mem::page_floor(seg.addr) +
                     static_cast<mem::VirtAddr>(i) * kPageSize;
      slots_.push_back(slot);
    }
  }
}

mem::VirtAddr Region::next_unpinned_va() const {
  assert(frontier_ < slots_.size());
  return slots_[frontier_].page_va;
}

mem::VirtAddr Region::page_va_at(std::size_t idx) const {
  assert(idx < slots_.size());
  return slots_[idx].page_va;
}

void Region::commit_pins(std::span<const mem::FrameId> frames) {
  assert(frontier_ + frames.size() <= slots_.size());
  for (mem::FrameId f : frames) {
    slots_[frontier_].frame = f;
    slots_[frontier_].pinned = true;
    ++frontier_;
  }
  if (frontier_ == slots_.size()) state_ = PinState::kPinned;
}

std::vector<std::pair<mem::VirtAddr, mem::FrameId>> Region::take_all_pins() {
  std::vector<std::pair<mem::VirtAddr, mem::FrameId>> out = take_pins_from(0);
  state_ = PinState::kUnpinned;
  return out;
}

std::vector<std::pair<mem::VirtAddr, mem::FrameId>> Region::take_pins_from(
    std::size_t slot) {
  std::vector<std::pair<mem::VirtAddr, mem::FrameId>> out;
  if (slot >= frontier_) return out;  // nothing pinned at or above `slot`
  out.reserve(frontier_ - slot);
  for (std::size_t i = slot; i < frontier_; ++i) {
    out.emplace_back(slots_[i].page_va, slots_[i].frame);
    slots_[i].pinned = false;
    slots_[i].frame = mem::kInvalidFrame;
  }
  frontier_ = slot;
  state_ = PinState::kUnpinned;
  return out;
}

std::size_t Region::first_slot_overlapping(mem::VirtAddr start,
                                           mem::VirtAddr end) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const mem::VirtAddr va = slots_[i].page_va;
    if (va < end && va + kPageSize > start) return i;
  }
  return npos;
}

bool Region::overlaps(mem::VirtAddr start, mem::VirtAddr end) const {
  for (const Segment& seg : segments_) {
    const mem::VirtAddr seg_lo = mem::page_floor(seg.addr);
    const mem::VirtAddr seg_hi = mem::page_ceil(seg.addr + seg.len);
    if (seg_lo < end && start < seg_hi) return true;
  }
  return false;
}

Region::Location Region::locate(std::size_t offset,
                                std::size_t remaining) const {
  if (offset >= total_) throw std::out_of_range("region offset");
  // Find the segment containing `offset`.
  auto it = std::upper_bound(seg_offset_.begin(), seg_offset_.end(), offset);
  const std::size_t s = static_cast<std::size_t>(
      std::distance(seg_offset_.begin(), it)) - 1;
  const Segment& seg = segments_[s];
  const std::size_t off_in_seg = offset - seg_offset_[s];
  const mem::VirtAddr va = seg.addr + off_in_seg;

  Location loc;
  loc.slot = seg_slot_base_[s] +
             static_cast<std::size_t>(page_index(va) - page_index(seg.addr));
  loc.page_off = page_offset(va);
  loc.chunk = std::min({remaining, kPageSize - loc.page_off,
                        seg.len - off_in_seg});
  return loc;
}

bool Region::range_pinned(std::size_t offset, std::size_t len) const {
  std::size_t done = 0;
  while (done < len) {
    const Location loc = locate(offset + done, len - done);
    if (!slots_[loc.slot].pinned) return false;
    done += loc.chunk;
  }
  return true;
}

std::size_t Region::pages_through(std::size_t offset, std::size_t len) const {
  return len == 0 ? 0 : locate(offset + len - 1, 1).slot + 1;
}

Region::AccessResult Region::copy_out(std::size_t offset,
                                      std::span<std::byte> dst) const {
  if (offset + dst.size() > total_) throw std::out_of_range("copy_out range");
  if (!range_pinned(offset, dst.size())) return AccessResult::kNotPinned;
  std::size_t done = 0;
  auto& pm = as_.physical();
  while (done < dst.size()) {
    const Location loc = locate(offset + done, dst.size() - done);
    const auto frame = pm.data(slots_[loc.slot].frame);
    std::memcpy(dst.data() + done, frame.data() + loc.page_off, loc.chunk);
    done += loc.chunk;
  }
  return AccessResult::kOk;
}

void Region::copy_out_paged(std::size_t offset, std::span<std::byte> dst) {
  if (offset + dst.size() > total_) throw std::out_of_range("copy_out range");
  std::size_t done = 0;
  while (done < dst.size()) {
    const Location loc = locate(offset + done, dst.size() - done);
    as_.read(slots_[loc.slot].page_va + loc.page_off,
             dst.subspan(done, loc.chunk));
    done += loc.chunk;
  }
}

void Region::copy_in_paged(std::size_t offset,
                           std::span<const std::byte> src) {
  if (offset + src.size() > total_) throw std::out_of_range("copy_in range");
  std::size_t done = 0;
  while (done < src.size()) {
    const Location loc = locate(offset + done, src.size() - done);
    as_.write(slots_[loc.slot].page_va + loc.page_off,
              src.subspan(done, loc.chunk));
    done += loc.chunk;
  }
}

Region::AccessResult Region::copy_in(std::size_t offset,
                                     std::span<const std::byte> src) {
  if (offset + src.size() > total_) throw std::out_of_range("copy_in range");
  if (!range_pinned(offset, src.size())) return AccessResult::kNotPinned;
  std::size_t done = 0;
  auto& pm = as_.physical();
  while (done < src.size()) {
    const Location loc = locate(offset + done, src.size() - done);
    auto frame = pm.data(slots_[loc.slot].frame);
    std::memcpy(frame.data() + loc.page_off, src.data() + done, loc.chunk);
    done += loc.chunk;
  }
  return AccessResult::kOk;
}

}  // namespace pinsim::core
