#include "mem/physical_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace pinsim::mem {

namespace {

#if defined(__linux__)

/// A private anonymous mapping of `frames` frames that the kernel faulted in
/// with zero pages, of which only the first `dirty` may since have been
/// written.
struct Arena {
  std::byte* bytes = nullptr;
  std::size_t frames = 0;
  std::size_t dirty = 0;
};

/// Arenas of destroyed pools, still mapped and populated, for the next pool
/// of this process. Never destroyed, so a pool destroyed during static
/// teardown can still return its arena. Unsynchronized: the simulator is
/// single-threaded.
std::vector<Arena>& arena_cache() {
  // pinlint: allow(D3: leaked on purpose; pools outlive static destructors)
  static auto* cache = new std::vector<Arena>;
  return *cache;
}

void unmap(const Arena& a) {
  ASAN_UNPOISON_MEMORY_REGION(a.bytes, a.frames * kPageSize);
  ::munmap(a.bytes, a.frames * kPageSize);
}

/// Hands out the smallest cached arena of at least `frames` frames with its
/// first `frames` frames zero (and, under ASan, only those unpoisoned). On a
/// miss, unmaps every cached arena before mapping a fresh populated one, so
/// the process never maps more than it would without the cache.
Arena acquire_arena(std::size_t frames) {
  auto& cache = arena_cache();
  auto best = cache.end();
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if (it->frames >= frames &&
        (best == cache.end() || it->frames < best->frames)) {
      best = it;
    }
  }
  if (best != cache.end()) {
    const Arena a = *best;
    cache.erase(best);
    ASAN_UNPOISON_MEMORY_REGION(a.bytes, frames * kPageSize);
    std::memset(a.bytes, 0, std::min(a.dirty, frames) * kPageSize);
    return a;
  }
  for (const Arena& a : cache) unmap(a);
  cache.clear();
  void* p = ::mmap(nullptr, frames * kPageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return {static_cast<std::byte*>(p), frames, 0};
}

#endif

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
#if defined(__linux__)
  if (num_frames != 0) {
    const Arena a = acquire_arena(num_frames);
    bytes_ = a.bytes;
    arena_frames_ = a.frames;
    // Frames past this pool that an earlier, larger pool wrote stay dirty.
    arena_dirty_ = a.dirty > num_frames ? a.dirty : 0;
    return;
  }
#endif
  fallback_.resize(num_frames * kPageSize);
  bytes_ = fallback_.data();
}

PhysicalMemory::~PhysicalMemory() {
#if defined(__linux__)
  if (arena_frames_ != 0) {
    const Arena a{bytes_, arena_frames_,
                  std::max<std::size_t>(pristine_, arena_dirty_)};
    try {
      arena_cache().push_back(a);
    } catch (const std::bad_alloc&) {
      unmap(a);  // no room to cache it: hand it back to the kernel
      return;
    }
    // A cached arena belongs to no pool: under ASan, touching it is an error.
    ASAN_POISON_MEMORY_REGION(a.bytes, a.frames * kPageSize);
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
