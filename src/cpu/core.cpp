#include "cpu/core.hpp"

#include <utility>

namespace pinsim::cpu {

Core::Core(sim::Engine& eng, std::string name)
    : eng_(eng), name_(std::move(name)) {}

void Core::submit(Priority p, sim::Time duration, sim::UniqueFunction done) {
  queues_[static_cast<std::size_t>(p)].push_back(
      Job{duration, std::move(done)});
  if (!running_) dispatch();
}

std::size_t Core::queued() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

double Core::utilization() const noexcept {
  const sim::Time now = eng_.now();
  if (now == 0) return 0.0;
  return static_cast<double>(stats_.total_busy()) / static_cast<double>(now);
}

namespace {

constexpr const char* kPriorityLabel[] = {"bottom_half", "kernel", "user",
                                          "idle"};

}  // namespace

void Core::dispatch() {
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    auto& q = queues_[p];
    if (q.empty()) continue;
    Job job = q.pop_front();
    running_ = true;
    ++stats_.jobs[p];
    stats_.busy[p] += job.duration;
    current_ = std::move(job.done);
    // pinlint: allow(D7: the core is host hardware owned by Driver for the
    // life of the engine; jobs never outlive the machine they run on)
    eng_.schedule_after(job.duration, [this] { finish(); },
                        {"cpu", kPriorityLabel[p]});
    return;
  }
}

void Core::finish() {
  running_ = false;
  // The completion may submit() follow-up work, and submit() on an idle core
  // dispatches at once, overwriting current_: call it from a local.
  sim::UniqueFunction done = std::move(current_);
  done();
  if (!running_) dispatch();
}

}  // namespace pinsim::cpu
