#include "mem/physical_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pinsim::mem {

namespace {

/// A private anonymous mapping of `len` bytes that the kernel has already
/// faulted in with zero pages, or nullptr where no such mapping exists.
std::byte* map_populated(std::size_t len) {
#if defined(__linux__)
  if (len == 0) return nullptr;
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<std::byte*>(p);
#else
  (void)len;
  return nullptr;
#endif
}

}  // namespace

std::string InvalidAddressError::to_hex(VirtAddr a) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(a));
  return buf;
}

PhysicalMemory::PhysicalMemory(std::size_t num_frames)
    : refcounts_(num_frames, 0) {
  free_list_.reserve(num_frames);
  // Hand out low frame ids first (pop from the back); alloc()'s pristine
  // watermark relies on this order.
  for (std::size_t i = num_frames; i-- > 0;) {
    free_list_.push_back(static_cast<FrameId>(i));
  }
  bytes_ = map_populated(num_frames * kPageSize);
  if (bytes_ == nullptr) {
    fallback_.resize(num_frames * kPageSize);
    bytes_ = fallback_.data();
  }
}

PhysicalMemory::~PhysicalMemory() {
#if defined(__linux__)
  if (fallback_.empty() && total_frames() != 0) {
    ::munmap(bytes_, total_frames() * kPageSize);
  }
#endif
}

FrameId PhysicalMemory::alloc() {
  if (free_list_.empty()) throw OutOfMemoryError{};
  const FrameId f = free_list_.back();
  free_list_.pop_back();
  assert(refcounts_[f] == 0);
  refcounts_[f] = 1;
  if (f >= pristine_) {
    assert(f == pristine_ && "never-used frames leave in id order");
    pristine_ = f + 1;  // still zero from the pool
  } else {
    auto page = data(f);
    std::fill(page.begin(), page.end(), std::byte{0});
  }
  return f;
}

void PhysicalMemory::check_live(FrameId f) const {
  assert(f < refcounts_.size() && "frame id out of range");
  assert(refcounts_[f] > 0 && "operating on a freed frame");
}

void PhysicalMemory::ref(FrameId f) {
  check_live(f);
  ++refcounts_[f];
}

void PhysicalMemory::unref(FrameId f) {
  check_live(f);
  if (--refcounts_[f] == 0) free_list_.push_back(f);
}

std::uint32_t PhysicalMemory::refcount(FrameId f) const {
  assert(f < refcounts_.size());
  return refcounts_[f];
}

std::span<std::byte> PhysicalMemory::data(FrameId f) {
  check_live(f);
  return std::span<std::byte>(bytes_ + f * kPageSize, kPageSize);
}

std::span<const std::byte> PhysicalMemory::data(FrameId f) const {
  check_live(f);
  return std::span<const std::byte>(bytes_ + f * kPageSize, kPageSize);
}

void PhysicalMemory::account_pin(std::int64_t delta) {
  if (delta < 0) {
    assert(pinned_pages_ >= static_cast<std::size_t>(-delta));
  }
  pinned_pages_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(pinned_pages_) + delta);
}

}  // namespace pinsim::mem
