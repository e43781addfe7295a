#include "mem/physical_memory.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <exception>
#include <new>
#include <thread>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "sim/cpus.hpp"

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
/// teardown can still return its arena. Unsynchronized: only the thread
/// that constructs or destroys a pool touches it; the helpers of
/// `for_each_slice` see nothing but their own bytes.
std::vector<Arena>& arena_cache() {
  // pinlint: allow(D3: leaked on purpose; pools outlive static destructors)
  static auto* cache = new std::vector<Arena>;
  return *cache;
}

void unmap(const Arena& a) {
  ASAN_UNPOISON_MEMORY_REGION(a.bytes, a.frames * kPageSize);
  ::munmap(a.bytes, a.frames * kPageSize);
}

/// Slices a set-up pass is split into: at most this many, and each at least
/// kMinSliceFrames long, so a pool under twice that stays on one thread.
constexpr std::size_t kMaxSlices = 4;
constexpr std::size_t kMinSliceFrames = (1u << 20) / kPageSize;

/// One slice per core this process may run on, within the bounds above.
std::size_t slice_count(std::size_t frames) {
  return std::clamp<std::size_t>(
      std::min(sim::affinity_cpus(), frames / kMinSliceFrames), 1,
      kMaxSlices);
}

/// Runs `op(bytes, len)` over the first `frames` frames at `base`, split
/// into page-aligned slices: the calling thread takes the first and a
/// short-lived helper thread each of the others; a slice whose helper
/// cannot start runs on the caller. Returns once every helper is joined:
/// whether `op` succeeded on every slice.
template <class Op>
bool for_each_slice(std::byte* base, std::size_t frames, Op op) {
  const std::size_t n = slice_count(frames);
  std::array<bool, kMaxSlices> ok{};
  const auto run = [&](std::size_t i) {
    const std::size_t lo = frames * i / n;
    const std::size_t hi = frames * (i + 1) / n;
    ok[i] = op(base + lo * kPageSize, (hi - lo) * kPageSize);
  };
  std::array<std::thread, kMaxSlices> helpers;
  for (std::size_t i = 1; i < n; ++i) {
    try {
      helpers[i] = std::thread(run, i);
    } catch (const std::exception&) {
      // No thread to spare: the loop below runs this slice here.
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!helpers[i].joinable()) run(i);
  }
  for (std::thread& t : helpers) {
    if (t.joinable()) t.join();
  }
  return std::all_of(ok.begin(), ok.begin() + n, [](bool b) { return b; });
}

std::byte* map_anonymous(std::size_t len, int flags) {
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<std::byte*>(p);
}

/// Maps `frames` fresh frames with every page faulted in as a zero page:
/// `MADV_POPULATE_WRITE` in parallel slices, or, where the kernel refuses
/// that advice (EINVAL before Linux 5.14), one single-threaded
/// `MAP_POPULATE`.
std::byte* map_populated(std::size_t frames) {
  const std::size_t len = frames * kPageSize;
#if defined(MADV_POPULATE_WRITE)
  std::byte* bytes = map_anonymous(len, 0);
  if (for_each_slice(bytes, frames, [](std::byte* b, std::size_t n) {
        return ::madvise(b, n, MADV_POPULATE_WRITE) == 0;
      })) {
    return bytes;
  }
  ::munmap(bytes, len);
#endif
  return map_anonymous(len, MAP_POPULATE);
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
    for_each_slice(a.bytes, std::min(a.dirty, frames),
                   [](std::byte* b, std::size_t n) {
                     std::memset(b, 0, n);
                     return true;
                   });
    return a;
  }
  for (const Arena& a : cache) unmap(a);
  cache.clear();
  return {map_populated(frames), frames, 0};
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
