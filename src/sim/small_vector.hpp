#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace pinsim::sim {

/// Vector of trivially copyable `T` that holds up to `N` elements inline
/// and spills all of them to a heap vector past that. The spill vector
/// keeps its capacity across clear(), so a recycled owner that once
/// spilled does not allocate again. Serves the per-message lists that are
/// almost always tiny: a message's segment list (one contiguous buffer)
/// and an eager message's received fragment offsets.
template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  SmallVector() = default;
  /// Adopts `v`'s buffer when it does not fit inline (no copy, no
  /// allocation). Implicit, so `std::vector<T>` call sites keep working.
  SmallVector(std::vector<T> v) {  // NOLINT(google-explicit-constructor)
    if (v.size() <= N) {
      for (const T& x : v) push_back(x);
    } else {
      size_ = v.size();
      heap_ = std::move(v);
    }
  }

  SmallVector(const SmallVector&) = default;
  SmallVector& operator=(const SmallVector&) = default;
  SmallVector(SmallVector&& other) noexcept
      : inline_(other.inline_),
        heap_(std::move(other.heap_)),
        size_(std::exchange(other.size_, 0)) {}
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      heap_ = std::move(other.heap_);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  void push_back(const T& v) {
    if (size_ < N) {
      inline_[size_++] = v;
      return;
    }
    if (size_ == N) heap_.assign(inline_.begin(), inline_.end());
    heap_.push_back(v);
    ++size_;
  }

  /// Empties the list; a spilled buffer keeps its capacity.
  void clear() noexcept {
    heap_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const T* data() const noexcept {
    return size_ <= N ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  operator std::span<const T>() const noexcept {  // NOLINT
    return {data(), size_};
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;  // every element once size_ > N
  std::size_t size_ = 0;
};

}  // namespace pinsim::sim
