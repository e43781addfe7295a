#include "mem/address_space.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mem/pressure.hpp"

namespace pinsim::mem {

AddressSpace::AddressSpace(PhysicalMemory& pm, VirtAddr base, VirtAddr limit)
    : pm_(pm), base_(page_ceil(base)), limit_(page_floor(limit)) {
  if (base_ >= limit_) throw std::invalid_argument("empty address range");
}

AddressSpace::~AddressSpace() {
  for (MmuNotifier* n : notifiers_) n->release();
  // pinlint: unordered-ok(frame unref is commutative, no emission)
  for (auto& [pidx, entry] : pages_) pm_.unref(entry.frame);
  pages_.clear();
}

// --- VMA management ---------------------------------------------------------

VirtAddr AddressSpace::mmap(std::size_t length) {
  if (length == 0) throw std::invalid_argument("mmap of zero bytes");
  const std::size_t len = static_cast<std::size_t>(page_ceil(length));
  VirtAddr candidate = base_;
  for (const auto& [start, vma] : vmas_) {
    if (candidate + len <= start) break;  // gap fits
    candidate = std::max(candidate, start + vma.length);
  }
  if (candidate + len > limit_) throw OutOfMemoryError{};
  vmas_.emplace(candidate, Vma{len});
  mapped_bytes_ += len;
  return candidate;
}

VirtAddr AddressSpace::mmap_fixed(VirtAddr addr, std::size_t length) {
  if (length == 0) throw std::invalid_argument("mmap of zero bytes");
  if (page_offset(addr) != 0) throw std::invalid_argument("unaligned mmap");
  const std::size_t len = static_cast<std::size_t>(page_ceil(length));
  if (addr < base_ || addr + len > limit_) throw InvalidAddressError(addr);
  // Reject overlap with any existing VMA.
  auto it = vmas_.upper_bound(addr);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > addr) {
      throw std::invalid_argument("mmap_fixed overlaps existing mapping");
    }
  }
  if (it != vmas_.end() && it->first < addr + len) {
    throw std::invalid_argument("mmap_fixed overlaps existing mapping");
  }
  vmas_.emplace(addr, Vma{len});
  mapped_bytes_ += len;
  return addr;
}

void AddressSpace::munmap(VirtAddr addr, std::size_t length) {
  if (length == 0) return;
  const VirtAddr lo = page_floor(addr);
  const VirtAddr hi = page_ceil(addr + length);

  // Collect overlapping VMAs first; splitting mutates the map.
  std::vector<std::pair<VirtAddr, std::size_t>> overlapping;
  auto it = vmas_.upper_bound(lo);
  if (it != vmas_.begin()) --it;
  for (; it != vmas_.end() && it->first < hi; ++it) {
    if (it->first + it->second.length > lo) {
      overlapping.emplace_back(it->first, it->second.length);
    }
  }

  for (auto [start, len] : overlapping) {
    const VirtAddr cut_lo = std::max(start, lo);
    const VirtAddr cut_hi = std::min(start + len, hi);
    vmas_.erase(start);
    if (start < cut_lo) {
      vmas_.emplace(start, Vma{static_cast<std::size_t>(cut_lo - start)});
    }
    if (cut_hi < start + len) {
      vmas_.emplace(cut_hi, Vma{static_cast<std::size_t>(start + len - cut_hi)});
    }
    mapped_bytes_ -= static_cast<std::size_t>(cut_hi - cut_lo);

    // Linux order: notifier fires before the translations are torn down.
    notify_invalidate(cut_lo, cut_hi);
    for (std::uint64_t pidx = page_index(cut_lo); pidx < page_index(cut_hi);
         ++pidx) {
      if (pages_.count(pidx) != 0) teardown_page(pidx);
      swap_store_.erase(pidx);
    }
  }
}

void AddressSpace::release_all() {
  // vma_list() snapshots address-ordered (start, length) pairs, so the
  // notifier sweep order is deterministic and the map can mutate freely.
  for (const auto& [start, len] : vma_list()) munmap(start, len);
}

bool AddressSpace::is_mapped(VirtAddr addr, std::size_t length) const {
  if (length == 0) return true;
  VirtAddr cur = addr;
  const VirtAddr end = addr + length;
  while (cur < end) {
    auto it = vmas_.upper_bound(cur);
    if (it == vmas_.begin()) return false;
    --it;
    const VirtAddr vma_end = it->first + it->second.length;
    if (cur >= vma_end) return false;
    cur = vma_end;
  }
  return true;
}

std::vector<std::pair<VirtAddr, std::size_t>> AddressSpace::vma_list() const {
  std::vector<std::pair<VirtAddr, std::size_t>> out;
  out.reserve(vmas_.size());
  for (const auto& [start, vma] : vmas_) out.emplace_back(start, vma.length);
  return out;
}

std::vector<VirtAddr> AddressSpace::resident_unpinned_pages() const {
  std::vector<VirtAddr> out;
  out.reserve(pages_.size());
  // pinlint: unordered-ok(result sorted before returning)
  for (const auto& [pidx, entry] : pages_) {
    if (entry.pin_count == 0) out.push_back(page_addr(pidx));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool AddressSpace::in_vma(VirtAddr addr) const {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return false;
  --it;
  return addr < it->first + it->second.length;
}

// --- faulting and access ----------------------------------------------------

AddressSpace::PageEntry& AddressSpace::fault_in(VirtAddr addr, bool for_write) {
  const std::uint64_t pidx = page_index(addr);
  auto it = pages_.find(pidx);
  if (it != pages_.end()) {
    if (for_write && it->second.cow) break_cow(pidx, it->second);
    return it->second;
  }
  if (!in_vma(addr)) throw InvalidAddressError(addr);

  PageEntry entry;
  entry.frame = pm_.alloc();
  auto swapped = swap_store_.find(pidx);
  if (swapped != swap_store_.end()) {
    auto dst = pm_.data(entry.frame);
    std::copy(swapped->second.begin(), swapped->second.end(), dst.begin());
    swap_store_.erase(swapped);
    ++stats_.major_faults;
  } else {
    ++stats_.minor_faults;  // zero-filled by PhysicalMemory::alloc
  }
  return pages_.emplace(pidx, entry).first->second;
}

void AddressSpace::break_cow(std::uint64_t pidx, PageEntry& e) {
  assert(e.cow);
  // The physical page backing this VA is about to change: invalidate first.
  notify_invalidate(page_addr(pidx), page_addr(pidx) + kPageSize);
  const FrameId fresh = pm_.alloc();
  auto src = pm_.data(e.frame);
  auto dst = pm_.data(fresh);
  std::copy(src.begin(), src.end(), dst.begin());
  pm_.unref(e.frame);
  e.frame = fresh;
  e.cow = false;
  ++stats_.cow_breaks;
}

void AddressSpace::write(VirtAddr addr, std::span<const std::byte> src) {
  std::size_t done = 0;
  while (done < src.size()) {
    const VirtAddr va = addr + done;
    PageEntry& e = fault_in(va, /*for_write=*/true);
    const std::size_t off = page_offset(va);
    const std::size_t chunk = std::min(src.size() - done, kPageSize - off);
    auto frame = pm_.data(e.frame);
    std::memcpy(frame.data() + off, src.data() + done, chunk);
    done += chunk;
  }
}

void AddressSpace::read(VirtAddr addr, std::span<std::byte> dst) {
  std::size_t done = 0;
  while (done < dst.size()) {
    const VirtAddr va = addr + done;
    PageEntry& e = fault_in(va, /*for_write=*/false);
    const std::size_t off = page_offset(va);
    const std::size_t chunk = std::min(dst.size() - done, kPageSize - off);
    auto frame = pm_.data(e.frame);
    std::memcpy(dst.data() + done, frame.data() + off, chunk);
    done += chunk;
  }
}

void AddressSpace::fill(VirtAddr addr, std::size_t len, std::byte value) {
  std::size_t done = 0;
  while (done < len) {
    const VirtAddr va = addr + done;
    const std::uint64_t zero_fills = stats_.minor_faults;
    PageEntry& e = fault_in(va, /*for_write=*/true);
    const std::size_t off = page_offset(va);
    const std::size_t chunk = std::min(len - done, kPageSize - off);
    // A page this call just zero-faulted already reads as zeros; swap-ins,
    // COW breaks and resident pages take the write.
    if (value != std::byte{0} || stats_.minor_faults == zero_fills) {
      auto frame = pm_.data(e.frame);
      std::memset(frame.data() + off, static_cast<int>(value), chunk);
    }
    done += chunk;
  }
}

void AddressSpace::touch(VirtAddr addr, std::size_t len) {
  for (VirtAddr va = page_floor(addr); va < addr + len; va += kPageSize) {
    fault_in(va, /*for_write=*/true);
  }
}

// --- pinning ----------------------------------------------------------------

std::vector<FrameId> AddressSpace::pin_range(VirtAddr addr, std::size_t len) {
  if (len == 0) return {};
  std::vector<FrameId> frames;
  frames.reserve(pages_spanned(addr, len));
  const VirtAddr first = page_floor(addr);
  const VirtAddr last = page_floor(addr + len - 1);
  VirtAddr va = first;
  try {
    for (; va <= last; va += kPageSize) {
      frames.push_back(pin_page(va));
    }
  } catch (...) {
    // Unwind partial pins so a failed pin has no side effects.
    VirtAddr undo = first;
    for (FrameId f : frames) {
      unpin_page(undo, f);
      undo += kPageSize;
    }
    throw;
  }
  return frames;
}

FrameId AddressSpace::pin_page(VirtAddr addr) {
  // get_user_pages can fail transiently before it ever walks the page table:
  // under injected memory pressure or when the host's pinned-page quota
  // (RLIMIT_MEMLOCK analogue) is exhausted. Both surface as PinDeniedError,
  // which callers treat like -ENOMEM: reclaim, back off and retry.
  if (PressureInjector* p = pm_.pressure(); p != nullptr && !p->allow_pin()) {
    throw PinDeniedError(PinDeniedError::Reason::kInjected);
  }
  if (pm_.pin_headroom() == 0) {
    pm_.count_quota_denial();
    throw PinDeniedError(PinDeniedError::Reason::kQuota);
  }
  // Pinning is for DMA, i.e. write access: break COW first, like
  // get_user_pages(write=1).
  PageEntry& e = fault_in(addr, /*for_write=*/true);
  ++e.pin_count;
  pm_.ref(e.frame);
  pm_.account_pin(1);
  ++stats_.pins;
  return e.frame;
}

void AddressSpace::unpin_page(VirtAddr addr, FrameId frame) {
  auto it = pages_.find(page_index(addr));
  if (it != pages_.end() && it->second.frame == frame) {
    assert(it->second.pin_count > 0);
    --it->second.pin_count;
  }
  // If the page was unmapped (or remapped to a new frame) meanwhile, the pin
  // reference alone kept the old frame alive; just drop it.
  pm_.unref(frame);
  pm_.account_pin(-1);
  ++stats_.unpins;
}

// --- queries ----------------------------------------------------------------

bool AddressSpace::is_present(VirtAddr addr) const {
  return pages_.count(page_index(addr)) != 0;
}

bool AddressSpace::is_pinned(VirtAddr addr) const {
  auto it = pages_.find(page_index(addr));
  return it != pages_.end() && it->second.pin_count > 0;
}

FrameId AddressSpace::frame_of(VirtAddr addr) const {
  auto it = pages_.find(page_index(addr));
  return it == pages_.end() ? kInvalidFrame : it->second.frame;
}

// --- VM events --------------------------------------------------------------

bool AddressSpace::swap_out(VirtAddr page_va) {
  const std::uint64_t pidx = page_index(page_va);
  auto it = pages_.find(pidx);
  if (it == pages_.end() || it->second.pin_count > 0) return false;

  notify_invalidate(page_addr(pidx), page_addr(pidx) + kPageSize);
  auto src = pm_.data(it->second.frame);
  swap_store_[pidx].assign(src.begin(), src.end());
  pm_.unref(it->second.frame);
  pages_.erase(it);
  ++stats_.swap_outs;
  return true;
}

std::size_t AddressSpace::swap_out_range(VirtAddr addr, std::size_t len) {
  std::size_t reclaimed = 0;
  for (VirtAddr va = page_floor(addr); va < addr + len; va += kPageSize) {
    if (swap_out(va)) ++reclaimed;
  }
  return reclaimed;
}

bool AddressSpace::migrate(VirtAddr page_va) {
  const std::uint64_t pidx = page_index(page_va);
  auto it = pages_.find(pidx);
  if (it == pages_.end() || it->second.pin_count > 0) return false;

  notify_invalidate(page_addr(pidx), page_addr(pidx) + kPageSize);
  const FrameId fresh = pm_.alloc();
  auto src = pm_.data(it->second.frame);
  auto dst = pm_.data(fresh);
  std::copy(src.begin(), src.end(), dst.begin());
  pm_.unref(it->second.frame);
  it->second.frame = fresh;
  it->second.cow = false;  // the copy is private
  ++stats_.migrations;
  return true;
}

CowSnapshot AddressSpace::cow_snapshot(VirtAddr addr, std::size_t len) {
  if (len == 0) throw std::invalid_argument("empty snapshot");
  CowSnapshot snap(pm_, page_floor(addr), len);
  for (VirtAddr va = page_floor(addr); va < addr + len; va += kPageSize) {
    PageEntry& e = fault_in(va, /*for_write=*/false);
    if (e.pin_count > 0) {
      // Pinned pages are DMA targets; copy them eagerly instead of making
      // them copy-on-write under the device.
      const FrameId copy = pm_.alloc();
      auto src = pm_.data(e.frame);
      auto dst = pm_.data(copy);
      std::copy(src.begin(), src.end(), dst.begin());
      snap.frames_.push_back(copy);  // snapshot owns alloc's reference
    } else {
      pm_.ref(e.frame);
      e.cow = true;
      snap.frames_.push_back(e.frame);
    }
  }
  return snap;
}

// --- notifiers --------------------------------------------------------------

void AddressSpace::register_notifier(MmuNotifier* n) {
  assert(n != nullptr);
  notifiers_.push_back(n);
}

void AddressSpace::unregister_notifier(MmuNotifier* n) {
  std::erase(notifiers_, n);
}

void AddressSpace::notify_invalidate(VirtAddr start, VirtAddr end) {
  ++stats_.notifier_invalidations;
  // Iterate over a copy: a callback may unregister its notifier.
  const auto subscribers = notifiers_;
  for (MmuNotifier* n : subscribers) n->invalidate_range(start, end);
}

void AddressSpace::teardown_page(std::uint64_t pidx) {
  auto it = pages_.find(pidx);
  assert(it != pages_.end());
  pm_.unref(it->second.frame);
  pages_.erase(it);
}

// --- CowSnapshot -------------------------------------------------------------

CowSnapshot::CowSnapshot(PhysicalMemory& pm, VirtAddr start, std::size_t length)
    : pm_(&pm), start_(start), length_(length) {}

CowSnapshot::CowSnapshot(CowSnapshot&& other) noexcept
    : pm_(other.pm_),
      start_(other.start_),
      length_(other.length_),
      frames_(std::move(other.frames_)) {
  other.frames_.clear();
  other.pm_ = nullptr;
}

CowSnapshot& CowSnapshot::operator=(CowSnapshot&& other) noexcept {
  if (this != &other) {
    if (pm_ != nullptr) {
      for (FrameId f : frames_) pm_->unref(f);
    }
    pm_ = other.pm_;
    start_ = other.start_;
    length_ = other.length_;
    frames_ = std::move(other.frames_);
    other.frames_.clear();
    other.pm_ = nullptr;
  }
  return *this;
}

CowSnapshot::~CowSnapshot() {
  if (pm_ != nullptr) {
    for (FrameId f : frames_) pm_->unref(f);
  }
}

void CowSnapshot::read(VirtAddr addr, std::span<std::byte> dst) const {
  if (addr < start_ || addr + dst.size() > start_ + length_) {
    throw InvalidAddressError(addr);
  }
  std::size_t done = 0;
  while (done < dst.size()) {
    const VirtAddr va = addr + done;
    const std::size_t slot =
        static_cast<std::size_t>(page_index(va) - page_index(start_));
    const std::size_t off = page_offset(va);
    const std::size_t chunk = std::min(dst.size() - done, kPageSize - off);
    auto frame = pm_->data(frames_[slot]);
    std::memcpy(dst.data() + done, frame.data() + off, chunk);
    done += chunk;
  }
}

}  // namespace pinsim::mem
