#include "obs/bus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/cpus.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pinsim::obs {

namespace {

/// The bus whose worker the calling thread is, if any.
thread_local const Bus* t_worker_of = nullptr;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// One step of a wait on the other thread: spin first, then yield the CPU.
void backoff(unsigned& n) noexcept {
  constexpr unsigned kSpins = 4096;
  if (n < kSpins) {
    ++n;
    cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

// --- Sink ---------------------------------------------------------------------

Sink::~Sink() {
  if (bus_ != nullptr) bus_->forget(this);
}

void Sink::drain() const {
  if (bus_ != nullptr) bus_->drain();
}

void Sink::wait_idle() const noexcept {
  if (bus_ != nullptr) bus_->wait_idle();
}

void Sink::print_stderr(std::string_view text) const {
  if (bus_ != nullptr) {
    bus_->print_stderr(text);
  } else {
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
}

// --- Bus ----------------------------------------------------------------------

Bus::Bus(sim::Engine& eng) : eng_(eng), one_cpu_(sim::affinity_cpus() <= 1) {}

Bus::~Bus() {
  if (emitters_ != 0) {
    std::fprintf(
        stderr,
        "obs: Bus destroyed with %zu emitter(s) still attached.\n"
        "     Components must set_bus(nullptr) (or be destroyed) before\n"
        "     their bus — see bench::ObsRig::detach().\n",
        emitters_);
    std::abort();
  }
  wait_idle();
  print_backlog();
  if (error_) {
    try {
      std::rethrow_exception(std::exchange(error_, nullptr));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "obs: a sink threw, never drained: %s\n",
                   ex.what());
    } catch (...) {
      std::fprintf(stderr, "obs: a sink threw, never drained\n");
    }
  }
  for (Sink* s : sinks_) s->bus_ = nullptr;
  if (worker_.joinable()) {
    stopping_.store(true);
    wake();
    worker_.join();
  }
}

void Bus::attach(Sink* s) {
  if (s == nullptr || s->bus_ == this) return;
  if (s->bus_ != nullptr) s->bus_->detach(s);
  drain();
  sinks_.push_back(s);
  s->bus_ = this;
  retune();
}

void Bus::detach(Sink* s) {
  if (s == nullptr || s->bus_ != this) return;
  drain();
  forget(s);
}

void Bus::forget(Sink* s) noexcept {
  wait_idle();
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), s), sinks_.end());
  s->bus_ = nullptr;
  retune();
}

void Bus::finalize() {
  drain();
  for (Sink* s : sinks_) s->finalize();
}

void Bus::retune() noexcept {
  threaded_ = !one_cpu_ && !sinks_.empty() &&
              std::none_of(sinks_.begin(), sinks_.end(),
                           [](const Sink* s) { return s->inline_delivery(); });
  // Until the worker runs the ring reads as full, so the first push starts
  // it.
  if (!worker_.joinable()) room_ = head_ - kSlots;
}

bool Bus::start_worker() noexcept {
  try {
    ring_ = std::make_unique<Slot[]>(kSlots);
    worker_ = std::thread([this] { run(); });
  } catch (const std::exception&) {
    ring_.reset();  // no memory or no thread to spare: deliver inline
    return false;
  }
  return true;
}

// --- simulation thread --------------------------------------------------------

void Bus::publish(bool wake_now) {
  published_.store(head_);
  if ((wake_now || head_ % kWakeEvery == 0) && sleeping_.load()) wake();
}

void Bus::wake() {
  bell_.fetch_add(1);
  bell_.notify_one();
}

bool Bus::make_room() {
  if (!worker_.joinable() && !start_worker()) {
    threaded_ = false;
    return false;
  }
  publish(true);
  unsigned n = 0;
  while (head_ - (room_ = consumed_.load(std::memory_order_acquire)) ==
         kSlots) {
    backoff(n);
  }
  return true;
}

void Bus::wait_idle() noexcept {
  if (on_worker() || consumed_.load(std::memory_order_acquire) == head_) {
    return;
  }
  publish(true);
  unsigned n = 0;
  while (consumed_.load(std::memory_order_acquire) != head_) backoff(n);
  room_ = head_;
}

void Bus::drain() {
  if (on_worker()) return;
  wait_idle();
  print_backlog();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Bus::print_backlog() {
  if (stderr_backlog_.empty()) return;
  std::fwrite(stderr_backlog_.data(), 1, stderr_backlog_.size(), stderr);
  stderr_backlog_.clear();
}

void Bus::print_stderr(std::string_view text) {
  if (on_worker()) {
    stderr_backlog_.append(text);
    return;
  }
  wait_idle();
  print_backlog();
  std::fwrite(text.data(), 1, text.size(), stderr);
}

bool Bus::on_worker() const noexcept { return t_worker_of == this; }

// --- worker -------------------------------------------------------------------

void Bus::run() {
  t_worker_of = this;
  std::uint64_t tail = 0;
  for (;;) {
    const std::uint64_t head = published_.load(std::memory_order_acquire);
    if (head == tail) {
      if (stopping_.load(std::memory_order_acquire)) return;
      idle(tail);
      continue;
    }
    do {
      deliver(ring_[tail & (kSlots - 1)].event);
      if ((++tail & (kPublishEvery - 1)) == 0) {
        consumed_.store(tail, std::memory_order_release);
      }
    } while (tail != head);
    consumed_.store(tail, std::memory_order_release);
  }
}

void Bus::deliver(const Event& e) noexcept {
  if (error_) return;
  try {
    life_.deliver(e, sinks_);
  } catch (...) {
    error_ = std::current_exception();
  }
}

void Bus::idle(std::uint64_t tail) {
  for (unsigned i = 0; i < kIdleSpins; ++i) {
    if (published_.load(std::memory_order_acquire) != tail ||
        stopping_.load(std::memory_order_acquire)) {
      return;
    }
    cpu_relax();
  }
  // Block until `publish` or the destructor rings: the seq_cst store of
  // `sleeping_` and load of `published_` pair with `publish`'s store of
  // `published_` and load of `sleeping_`, so one of the two sees the other.
  const std::uint32_t bell = bell_.load();
  sleeping_.store(true);
  if (published_.load() == tail && !stopping_.load()) bell_.wait(bell);
  sleeping_.store(false);
}

}  // namespace pinsim::obs
