#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace pinsim::mem {

/// Recycling pool of `T` nodes with stable addresses.
///
/// The protocol hot path used to pay one heap allocation per send request,
/// pull transfer and tracked region (map nodes or `make_unique`). The pool
/// hands out the same nodes over and over instead: `acquire()` pops the
/// free list (allocating only on first growth), and dropping the returned
/// `Ptr` resets the node and pushes it back.
///
/// Node addresses are stable for the node's whole lease, which is the
/// property the flat tables rely on: a `FlatMap<K, ObjectPool<T>::Ptr>` can
/// shift its vector on insert/erase while callbacks hold `T&` into the
/// pooled nodes (see sim/flat_map.hpp's invalidation contract).
///
/// Reset: a trivially copyable `T` is reset by assigning `T{}`. Any other
/// `T` must provide `reset()`, which returns the node to its default state
/// *in place* and keeps the capacity of its inner containers. Assigning
/// `T{}` would not: libstdc++'s vector move-assignment frees the left-hand
/// buffer, so every lease would re-allocate what the last one grew.
///
/// Lifetime: the pool must outlive every `Ptr` it issued — declare the pool
/// before any member that stores its `Ptr`s, so the container drains first.
///
/// This complements, not duplicates, `mem/malloc_sim`: that models the
/// *simulated* process heap (virtual addresses inside an AddressSpace);
/// this pools the simulator's own host-side bookkeeping objects.
template <typename T>
class ObjectPool {
 public:
  class Releaser {
   public:
    Releaser() = default;
    explicit Releaser(ObjectPool* pool) noexcept : pool_(pool) {}
    void operator()(T* node) const {
      if (pool_ != nullptr) pool_->release(node);
    }

   private:
    ObjectPool* pool_ = nullptr;
  };

  /// Owning lease on a pooled node; returns it to the pool on destruction.
  using Ptr = std::unique_ptr<T, Releaser>;

  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  [[nodiscard]] Ptr acquire() {
    if (free_.empty()) {
      nodes_.push_back(std::make_unique<T>());
      free_.push_back(nodes_.back().get());
    }
    T* node = free_.back();
    free_.pop_back();
    return Ptr(node, Releaser(this));
  }

  /// Nodes currently leased out (for tests / leak accounting).
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return nodes_.size() - free_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }

 private:
  void release(T* node) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      *node = T{};
    } else {
      node->reset();
    }
    free_.push_back(node);
  }

  std::vector<std::unique_ptr<T>> nodes_;
  std::vector<T*> free_;
};

/// Resets `node` to `T{}` in place, except that each member named in `keep`
/// is cleared rather than replaced, so it keeps its capacity. The building
/// block for pooled types' `reset()`: every other field returns to its
/// default without being listed.
template <typename T, typename... M>
void reset_keeping(T& node, M T::*... keep) {
  auto kept = std::make_tuple(std::move(node.*keep)...);
  std::apply([](auto&... m) { (m.clear(), ...); }, kept);
  node = T{};
  std::apply(
      [&node, keep...](auto&... m) { ((node.*keep = std::move(m)), ...); },
      kept);
}

/// Recycles `std::vector<std::byte>` capacity: frame payloads and the
/// endpoints' eager staging buffers.
///
/// Retired buffers are filed by usable capacity into size classes, sixteen
/// per octave from 64 B to 64 KiB, so a control frame, a 2 kB eager
/// fragment and an 8 kB pull reply each find a buffer of their own size
/// instead of popping whatever was retired last and reallocating it. A
/// request takes the newest buffer of its own class when that one is large
/// enough, else one from the next non-empty larger class, so it never gets
/// less than it asked for. A fresh buffer is allocated with the capacity of
/// the smallest class bound at or above the request (at most 1/16 slack), so
/// it files back into a class that the same request searches.
///
/// `acquire` returns exactly `size` value-initialized bytes (a recycled
/// buffer is emptied, then resized), so recycled capacity never leaks stale
/// bytes into a new frame; `acquire_for_overwrite` skips that zeroing for
/// callers that write every byte before the buffer is read.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  [[nodiscard]] std::vector<std::byte> acquire(std::size_t size) {
    std::vector<std::byte> buf = take(size);
    buf.clear();
    buf.resize(size);
    return buf;
  }

  /// A buffer of exactly `size` bytes for a caller that overwrites all of
  /// them: recycled bytes are left as they are (a fresh buffer, or growth
  /// past a recycled buffer's old size, is still value-initialized).
  [[nodiscard]] std::vector<std::byte> acquire_for_overwrite(std::size_t size) {
    std::vector<std::byte> buf = take(size);
    buf.resize(size);
    return buf;
  }

  void release(std::vector<std::byte>&& buf) {
    const std::size_t cap = buf.capacity();
    if (cap < kMinClassBytes || cap >= 2 * kMaxClassBytes) return;
    const std::size_t c = class_of(cap);
    if (free_[c].size() >= kMaxRetainedPerClass) return;
    free_[c].push_back(std::move(buf));
    nonempty_[c / 64] |= std::uint64_t{1} << (c % 64);
  }

  /// Buffers held for reuse, over all classes.
  [[nodiscard]] std::size_t retained() const noexcept {
    std::size_t n = 0;
    for (const auto& bucket : free_) n += bucket.size();
    return n;
  }

 private:
  /// Lower bound of the smallest and of the largest class. Buffers below
  /// the first are not worth filing; buffers of twice the last are not
  /// kept.
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = 64 * 1024;
  /// Retained buffers per class: about twice the largest in-flight peak of
  /// any one class on the bench workloads (265 pull-reply buffers on
  /// cluster_uniform, 250 eager frames on cluster_incast), so a steady state
  /// recycles every buffer, while a one-off burst cannot hold its memory
  /// for the rest of the process.
  static constexpr std::size_t kMaxRetainedPerClass = 512;
  static constexpr std::size_t kStepsPerOctave = 16;
  static constexpr std::size_t kClasses =
      kStepsPerOctave * (std::bit_width(kMaxClassBytes / kMinClassBytes) - 1) +
      1;

  /// Lower capacity bound of class `c`.
  [[nodiscard]] static constexpr std::size_t class_bytes(
      std::size_t c) noexcept {
    const std::size_t octave = kMinClassBytes << (c / kStepsPerOctave);
    return octave + octave / kStepsPerOctave * (c % kStepsPerOctave);
  }

  /// The class whose capacity range holds `bytes`: the largest class bound
  /// at or below it (class 0 for anything smaller).
  [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept {
    if (bytes <= kMinClassBytes) return 0;
    const std::size_t octave = std::bit_width(bytes / kMinClassBytes) - 1;
    if (octave * kStepsPerOctave >= kClasses - 1) return kClasses - 1;
    const std::size_t base = kMinClassBytes << octave;
    return octave * kStepsPerOctave +
           (bytes - base) / (base / kStepsPerOctave);
  }

  /// Pops a buffer of capacity >= `size` (its old bytes still in place), or
  /// allocates an empty one.
  [[nodiscard]] std::vector<std::byte> take(std::size_t size) {
    std::size_t c = class_of(size);
    if (free_[c].empty() || free_[c].back().capacity() < size) {
      c = next_nonempty(c + 1);  // every buffer there holds more than `size`
    }
    if (c < kClasses) {
      std::vector<std::byte> buf = std::move(free_[c].back());
      free_[c].pop_back();
      if (free_[c].empty()) {
        nonempty_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
      }
      return buf;
    }
    // The smallest class bound at or above `size`, so the buffer files
    // back into a class this request searches (just `size` past the last).
    c = class_of(size);
    std::size_t cap = size;
    if (size <= class_bytes(c)) {
      cap = class_bytes(c);
    } else if (c + 1 < kClasses) {
      cap = class_bytes(c + 1);
    }
    std::vector<std::byte> buf;
    buf.reserve(cap);
    return buf;
  }

  /// First class >= `c` holding a buffer, or kClasses.
  [[nodiscard]] std::size_t next_nonempty(std::size_t c) const noexcept {
    for (std::size_t w = c / 64; w < nonempty_.size(); ++w) {
      std::uint64_t bits = nonempty_[w];
      if (w == c / 64) bits &= ~std::uint64_t{0} << (c % 64);
      if (bits != 0) {
        return std::min(kClasses, w * 64 + std::countr_zero(bits));
      }
    }
    return kClasses;
  }

  std::array<std::vector<std::vector<std::byte>>, kClasses> free_;
  std::array<std::uint64_t, (kClasses + 63) / 64> nonempty_{};
};

}  // namespace pinsim::mem
