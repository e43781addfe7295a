#pragma once

#include <cstdint>

#include "net/frame.hpp"
#include "obs/event.hpp"
#include "obs/relay.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pinsim::net {

/// One fault recipe. All probabilities are per frame and independent unless
/// noted; a plan with every knob at its default injects nothing.
///
/// The paper's central bet (§3.3) is that a dropped packet is cheap because
/// MXoE retransmission recovers. The FaultInjector exists to make that claim
/// testable under *adversarial* network behaviour, not just overlap misses:
/// random and bursty loss, bit corruption (caught by the frame checksum in
/// core/wire), duplication, and reordering via per-frame jitter.
struct FaultPlan {
  /// Independent (Bernoulli) frame loss.
  double loss = 0.0;

  /// Gilbert–Elliott bursty loss: a two-state Markov channel. Each frame
  /// first steps the chain (good -> bad with `burst_enter`, bad -> good with
  /// `burst_exit`), then drops with probability `burst_loss` while the
  /// channel is in the bad state. `burst_enter == 0` disables the chain.
  double burst_enter = 0.0;
  double burst_exit = 0.25;
  double burst_loss = 1.0;

  /// Probability of flipping `corrupt_bits` random payload bits in a frame
  /// that survived the loss stages. The receiver's checksum must catch it.
  double corrupt = 0.0;
  int corrupt_bits = 3;

  /// Probability of delivering a second copy of the frame.
  double duplicate = 0.0;

  /// Probability of delaying a frame by a uniform extra latency in
  /// (0, reorder_jitter], which lets later frames overtake it.
  double reorder = 0.0;
  sim::Time reorder_jitter = 50 * sim::kMicrosecond;

  [[nodiscard]] bool active() const noexcept {
    return loss > 0.0 || burst_enter > 0.0 || corrupt > 0.0 ||
           duplicate > 0.0 || reorder > 0.0;
  }
};

/// Deterministic per-frame fault injection for the fabric.
///
/// A global plan applies to every link; a per-link plan (keyed by the
/// directed (src, dst) pair) overrides the global one for that direction
/// only. All randomness comes from one seeded sim::Rng, so a run with the
/// same seed and traffic is bit-reproducible. Gilbert–Elliott channel state
/// is kept per directed link regardless of which plan is in force.
class FaultInjector {
 public:
  struct Stats {
    std::uint64_t frames_seen = 0;
    std::uint64_t drops = 0;        // independent-loss drops
    std::uint64_t burst_drops = 0;  // Gilbert–Elliott drops
    std::uint64_t corruptions = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;

    [[nodiscard]] std::uint64_t total_drops() const noexcept {
      return drops + burst_drops;
    }
  };

  /// What the fabric should do with one frame. `corrupt` means the payload
  /// bits have already been flipped in place.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    bool corrupted = false;
    sim::Time extra_latency = 0;
  };

  explicit FaultInjector(std::uint64_t seed = 0xfa017) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_plan(FaultPlan plan) noexcept { global_ = plan; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return global_; }

  /// Installs a plan for the directed link src -> dst (overrides the global
  /// plan for that direction).
  void set_link_plan(NodeId src, NodeId dst, FaultPlan plan) {
    link_plans_[link_key(src, dst)] = plan;
  }
  void clear_link_plans() { link_plans_.clear(); }

  /// Attaches a typed event bus; decisions are emitted as kFault* events.
  void set_bus(obs::Bus* bus) noexcept { relay_.set_bus(bus); }

  [[nodiscard]] bool enabled() const noexcept {
    return global_.active() || !link_plans_.empty();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Decides the fate of one frame about to enter the fabric, flipping
  /// payload bits in place when the verdict is corruption.
  Verdict inspect(Frame& frame);

 private:
  [[nodiscard]] static std::uint64_t link_key(NodeId src, NodeId dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  void trace(obs::EventKind kind, const Frame& frame);

  FaultPlan global_;
  sim::FlatMap<std::uint64_t, FaultPlan> link_plans_;
  // Gilbert–Elliott state per link
  sim::FlatMap<std::uint64_t, bool> burst_bad_;
  sim::Rng rng_;
  obs::Relay relay_;
  Stats stats_;
};

}  // namespace pinsim::net
