#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pinsim::sim {

/// FIFO ring over a power-of-two buffer that doubles when full and never
/// shrinks, so a queue that has seen its peak backlog pushes and pops
/// without allocating. Serves the cpu core run queues and the NIC and
/// switch-port frame queues, which a `std::deque` would feed a fresh block
/// every few hundred bytes of throughput.
///
/// `T` must be default-constructible and move-assignable; a popped slot is
/// left moved-from until it is reused.
template <typename T>
class Ring {
 public:
  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the oldest element. Precondition: !empty().
  T pop_front() {
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated (for tests: growth, never shrinkage).
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Destroys every queued element in FIFO order; keeps the buffer.
  void clear() {
    while (size_ != 0) (void)pop_front();
  }

 private:
  void grow() {
    std::vector<T> grown(buf_.empty() ? 4 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two size, or empty
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pinsim::sim
