#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace pinsim::mem {

/// Recycling pool of default-constructed `T` nodes with stable addresses.
///
/// The protocol hot path used to pay one heap allocation per send request,
/// pull transfer and tracked region (map nodes or `make_unique`). The pool
/// hands out the same nodes over and over instead: `acquire()` pops the
/// free list (allocating only on first growth), and dropping the returned
/// `Ptr` resets the node to a default-constructed state and pushes it back.
///
/// Node addresses are stable for the node's whole lease, which is the
/// property the flat tables rely on: a `FlatMap<K, ObjectPool<T>::Ptr>` can
/// shift its vector on insert/erase while callbacks hold `T&` into the
/// pooled nodes (see sim/flat_map.hpp's invalidation contract).
///
/// Lifetime: the pool must outlive every `Ptr` it issued — declare the pool
/// before any member that stores its `Ptr`s, so the container drains first.
/// `T` must be default-constructible and move-assignable (the reset path is
/// `*node = T{}`, which also recycles the node's inner vector capacity on
/// implementations that reuse the left-hand buffer).
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
    *node = T{};
    free_.push_back(node);
  }

  std::vector<std::unique_ptr<T>> nodes_;
  std::vector<T*> free_;
};

/// Recycles `std::vector<std::byte>` capacity for frame payloads.
///
/// Every packet on the wire used to allocate its payload vector at encode
/// and free it after decode; under a pull storm that is two heap round
/// trips per frame. The pool keeps a bounded stack of retired buffers and
/// re-issues their capacity. `acquire` always returns a buffer of exactly
/// `size` value-initialized bytes (a recycled buffer is emptied, then
/// resized), so recycled capacity can never leak stale bytes into a new frame;
/// `acquire_for_overwrite` skips that zeroing for callers that write every
/// byte before the buffer is read.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  [[nodiscard]] std::vector<std::byte> acquire(std::size_t size) {
    std::vector<std::byte> buf = acquire_for_overwrite(0);
    buf.resize(size);
    return buf;
  }

  /// A buffer of exactly `size` bytes for a caller that overwrites all of
  /// them: recycled bytes are left as they are (a fresh buffer, or growth
  /// past a recycled buffer's old size, is still value-initialized).
  [[nodiscard]] std::vector<std::byte> acquire_for_overwrite(std::size_t size) {
    if (free_.empty()) return std::vector<std::byte>(size);
    std::vector<std::byte> buf = std::move(free_.back());
    free_.pop_back();
    buf.resize(size);
    return buf;
  }

  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;  // nothing worth keeping
    if (free_.size() < kMaxRetained) free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t retained() const noexcept { return free_.size(); }

 private:
  /// Bounds idle capacity: enough for a full pull window of in-flight
  /// frames, small enough that a burst cannot pin memory forever.
  static constexpr std::size_t kMaxRetained = 256;

  std::vector<std::vector<std::byte>> free_;
};

}  // namespace pinsim::mem
