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
               std::vector<Segment> segments, bool paged)
    : id_(id), as_(as), segments_(std::move(segments)), paged_(paged) {
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
      slots_.push_back(Slot{mem::page_floor(seg.addr) +
                            static_cast<mem::VirtAddr>(i) * kPageSize});
    }
  }
}

mem::VirtAddr Region::page_va_at(std::size_t idx) const {
  assert(idx < slots_.size());
  return slots_[idx].page_va;
}

void Region::commit_pins(std::span<const mem::FrameId> frames) {
  assert(frontier_ + frames.size() <= slots_.size());
  for (mem::FrameId f : frames) slots_[frontier_++].frame = f;
}

std::vector<std::pair<mem::VirtAddr, mem::FrameId>> Region::take_pins_from(
    std::size_t slot) {
  std::vector<std::pair<mem::VirtAddr, mem::FrameId>> out;
  if (slot >= frontier_) return out;  // nothing pinned at or above `slot`
  out.reserve(frontier_ - slot);
  for (std::size_t i = slot; i < frontier_; ++i) {
    out.emplace_back(slots_[i].page_va, slots_[i].frame);
    slots_[i].frame = mem::kInvalidFrame;
  }
  frontier_ = slot;
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

template <typename F>
void Region::for_each_chunk(std::size_t offset, std::size_t len,
                            F&& f) const {
  std::size_t done = 0;
  while (done < len) {
    const Location loc = locate(offset + done, len - done);
    f(loc, done);
    done += loc.chunk;
  }
}

std::size_t Region::pages_through(std::size_t offset, std::size_t len) const {
  return len == 0 ? 0 : locate(offset + len - 1, 1).slot + 1;
}

Region::AccessResult Region::copy_out(std::size_t offset,
                                      std::span<std::byte> dst) const {
  if (offset + dst.size() > total_) throw std::out_of_range("copy_out range");
  if (!range_pinned(offset, dst.size())) return AccessResult::kNotPinned;
  auto& pm = as_.physical();
  for_each_chunk(offset, dst.size(), [&](const Location& loc,
                                         std::size_t done) {
    const Slot& slot = slots_[loc.slot];
    if (paged_) {
      as_.read(slot.page_va + loc.page_off, dst.subspan(done, loc.chunk));
    } else {
      std::memcpy(dst.data() + done, pm.data(slot.frame).data() + loc.page_off,
                  loc.chunk);
    }
  });
  return AccessResult::kOk;
}

Region::AccessResult Region::copy_in(std::size_t offset,
                                     std::span<const std::byte> src) {
  if (offset + src.size() > total_) throw std::out_of_range("copy_in range");
  if (!range_pinned(offset, src.size())) return AccessResult::kNotPinned;
  auto& pm = as_.physical();
  for_each_chunk(offset, src.size(), [&](const Location& loc,
                                         std::size_t done) {
    const Slot& slot = slots_[loc.slot];
    if (paged_) {
      as_.write(slot.page_va + loc.page_off, src.subspan(done, loc.chunk));
    } else {
      std::memcpy(pm.data(slot.frame).data() + loc.page_off, src.data() + done,
                  loc.chunk);
    }
  });
  return AccessResult::kOk;
}

}  // namespace pinsim::core
