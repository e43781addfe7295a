#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

/// C++20 coroutine layer over the event engine.
///
/// The Open-MX driver below stays callback/interrupt-driven (like the real
/// kernel code), but MPI rank programs and workloads read much better as
/// sequential coroutines: `co_await comm.send(...)`, `co_await delay(...)`.
///
/// `Task<T>` is lazy and single-awaiter with symmetric transfer; `spawn()`
/// turns a `Task<void>` into a detached simulation process whose uncaught
/// exceptions are recorded on the Engine (so tests can assert on them)
/// rather than terminating.
namespace pinsim::sim {

template <typename T = void>
class Task;

namespace detail {

/// Process-wide recycler for coroutine frames: a harness that awaits each
/// request in a coroutine creates a frame (plus a spawn() runner) per
/// message. Freed frames are filed by size in 64-byte classes up to 1 KiB
/// and handed out again LIFO, each free block's first word linking the
/// list. Blocks are never returned to the heap, so retention is bounded by
/// the peak number of live frames per class. Larger frames go straight to
/// the heap. The lists are not synchronized: the simulator is
/// single-threaded.
class FrameRecycler {
 public:
  static void* allocate(std::size_t n) {
    const std::size_t c = class_of(n);
    if (c >= kClasses) {
      // pinlint: allow(D3: frame larger than every recycled class)
      return ::operator new(n);
    }
    Block*& head = free_lists()[c];
    if (head == nullptr) {
      // pinlint: allow(D3: first use of a frame-recycler block; it is
      // recycled, never freed)
      return ::operator new((c + 1) * kGrain);
    }
    Block* b = head;
    head = b->next;
    return b;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = class_of(n);
    if (c >= kClasses) {
      // pinlint: allow(D3: matching delete for a frame past every class)
      ::operator delete(p);
      return;
    }
    Block*& head = free_lists()[c];
    // pinlint: allow(D3: placement new threading a freed frame onto its list)
    head = ::new (p) Block{head};
  }

 private:
  struct Block {
    Block* next;
  };
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kClasses = 16;  // frames up to 1 KiB

  [[nodiscard]] static constexpr std::size_t class_of(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / kGrain;
  }
  static std::array<Block*, kClasses>& free_lists() noexcept {
    static std::array<Block*, kClasses> lists{};
    return lists;
  }
};

/// Frame allocation for every promise type below: the frame of a coroutine
/// whose promise derives from this comes from the FrameRecycler.
struct RecycledFrame {
  static void* operator new(std::size_t n) {
    return FrameRecycler::allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameRecycler::deallocate(p, n);
  }
};

struct FinalAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase : RecycledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
    return {};
  }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

/// Lazy coroutine task. The frame is owned by the Task object; awaiting it
/// starts it and resumes the awaiter when it completes.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.error) std::rethrow_exception(p.error);
        assert(p.value && "task finished without a value");
        return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class TaskTestPeer;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/// Self-destroying root coroutine used by spawn(). Uncaught exceptions from
/// the spawned task are reported to the engine.
struct Detached {
  struct promise_type : RecycledFrame {
    Detached get_return_object() noexcept {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
      return {};
    }
    [[nodiscard]] std::suspend_never final_suspend() const noexcept {
      return {};
    }
    void return_void() const noexcept {}
    [[noreturn]] void unhandled_exception() const noexcept {
      // detached_runner catches everything; reaching this is a logic error.
      std::terminate();
    }
  };
  std::coroutine_handle<promise_type> handle;
};

inline Detached detached_runner(Engine& eng, Task<void> t) {
  try {
    co_await std::move(t);
  } catch (...) {
    eng.report_task_failure(std::current_exception());
  }
}

}  // namespace detail

/// Launches `t` as a detached simulation process. The task starts at the
/// current simulated time, on the next engine dispatch (never synchronously
/// inside the caller).
inline void spawn(Engine& eng, Task<void> t) {
  auto runner = detail::detached_runner(eng, std::move(t));
  eng.schedule_after(0, [h = runner.handle] { h.resume(); },
                     {"sim", "spawn"});
}

/// Awaitable pause for `d` simulated nanoseconds. Always suspends (a zero
/// delay still yields through the event queue, preserving FIFO fairness).
struct DelayAwaiter {
  Engine& eng;
  Time d;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.schedule_after(d, [h] { h.resume(); }, {"sim", "delay"});
  }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline DelayAwaiter delay(Engine& eng, Time d) {
  return DelayAwaiter{eng, d};
}

/// One-shot broadcast event: waiters suspend until open() is called; waiting
/// on an already-open gate does not suspend. Resumptions go through the event
/// queue at the current time (never synchronously inside open()), in arrival
/// order. The first waiter is held inline: a request's gate almost always
/// has exactly one, so waiting on it does not allocate.
class Gate {
 public:
  /// An unbound gate; reset() it onto an engine before anyone waits.
  Gate() = default;
  explicit Gate(Engine& eng) : eng_(&eng) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  void open() {
    if (open_) return;
    open_ = true;
    if (eng_ != nullptr) opened_at_ = eng_->now();
    if (first_) resume_later(std::exchange(first_, {}));
    for (auto h : rest_) resume_later(h);
    rest_.clear();
  }

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  /// Simulated instant open() first ran (0 while closed or unbound).
  [[nodiscard]] Time opened_at() const noexcept { return opened_at_; }

  /// Closes the gate again, forgets its waiters and binds it to `eng` (a
  /// recycled gate keeps the capacity of its overflow list).
  void reset(Engine* eng) noexcept {
    eng_ = eng;
    open_ = false;
    opened_at_ = 0;
    first_ = {};
    rest_.clear();
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& g;
      [[nodiscard]] bool await_ready() const noexcept { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!g.first_) {
          g.first_ = h;
        } else {
          g.rest_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  void resume_later(std::coroutine_handle<> h) {
    eng_->schedule_after(0, [h] { h.resume(); }, {"sim", "gate"});
  }

  Engine* eng_ = nullptr;
  bool open_ = false;
  Time opened_at_ = 0;
  std::coroutine_handle<> first_;             // the earliest waiter
  std::vector<std::coroutine_handle<>> rest_;  // later ones, in order
};

/// Countdown latch: wait() releases once count_down() has been called
/// `count` times. Used to join fleets of rank coroutines.
class Latch {
 public:
  Latch(Engine& eng, std::size_t count) : gate_(eng), remaining_(count) {
    if (remaining_ == 0) gate_.open();
  }

  void count_down() {
    assert(remaining_ > 0 && "latch underflow");
    if (--remaining_ == 0) gate_.open();
  }

  [[nodiscard]] auto wait() { return gate_.wait(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }

 private:
  Gate gate_;
  std::size_t remaining_;
};

}  // namespace pinsim::sim
