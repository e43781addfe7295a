#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/lifetimes.hpp"
#include "obs/sink.hpp"

namespace pinsim::obs {

/// Where one message's wall-clock went. The analyzer partitions each chain's
/// end-to-end latency into these phases; by construction they always sum to
/// exactly (end - start), so a slow message can be blamed, not just noticed.
enum class Phase : std::uint8_t {
  kSenderPin,   // handshake time blocked on the sender's own pin job
  kHandshake,   // rendezvous post -> pull start, minus sender-pin time
  kPinStall,    // overlap-miss stalls: pull outran a pin frontier (§3.3)
  kRetransmit,  // stalled on lost frames: retransmission timers / re-pulls
  kTransfer,    // data flowing: wire + copies + DMA queueing
  kCompletion,  // receiver done -> sender completion (notify round trip)
};
inline constexpr std::size_t kPhaseCount = 6;

[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Reconstructs every rendezvous/eager chain from the typed event stream
/// (stitched with the same sender-side chain_key the Chrome-trace flow
/// arrows use; the bus's lifetime table holds the open sends and binds each
/// pull to its sender's chain) and attributes its latency to phases with a
/// per-chain state machine:
///
///  * the chain opens at kRndvPost/kEagerPost in kHandshake/kTransfer;
///  * the time a pin job was open on the posted region while the chain was
///    in handshake is kSenderPin (regular pinning pays it, overlapped
///    pinning hides it);
///  * kPullStart flips to kTransfer; overlap misses flip to kPinStall and
///    retransmit/pull-retry timers to kRetransmit until the next byte of
///    progress (copy-in/copy-out) flips back;
///  * kRecvDone flips to kCompletion; kSendDone closes the chain.
///
/// Closed chains land in per-message blame records plus aggregate phase
/// totals; `digest()` renders the top-K slowest as a human-readable "why
/// was this slow" list and `json()` the machine twin for the run report.
class CriticalPathAnalyzer final : public Sink {
 public:
  struct Breakdown {
    std::uint32_t node = 0;  // sender identity (the chain key triple)
    std::uint8_t ep = 0;
    std::uint32_t seq = 0;
    bool rndv = false;
    bool aborted = false;
    std::uint64_t bytes = 0;
    sim::Time start = 0;
    sim::Time end = 0;
    std::array<sim::Time, kPhaseCount> phase_ns{};
    std::uint32_t overlap_misses = 0;
    std::uint32_t retransmits = 0;
    std::uint32_t pull_retries = 0;
    std::uint32_t pin_restarts = 0;

    [[nodiscard]] sim::Time total() const noexcept { return end - start; }
    [[nodiscard]] sim::Time phase(Phase p) const noexcept {
      return phase_ns[static_cast<std::size_t>(p)];
    }
    /// The phase this message spent most of its life in.
    [[nodiscard]] Phase dominant() const noexcept;
  };

  /// `max_records` bounds the verbatim per-message store (aggregates and
  /// the top-K slowest list stay exact past it — see `dropped_records()`).
  explicit CriticalPathAnalyzer(std::size_t max_records = 4096,
                                std::size_t top_k = 8)
      : max_records_(max_records), top_k_(top_k == 0 ? 1 : top_k) {}
  ~CriticalPathAnalyzer() override { wait_idle(); }

  void on_event(const Event& e) override;
  [[nodiscard]] bool inline_delivery() const noexcept override {
    return false;
  }

  /// End of stream: chains still open are counted as orphaned (the
  /// invariant checker reports them loudly; here they just stay out of the
  /// completed aggregates).
  void finalize() override;

  [[nodiscard]] const std::vector<Breakdown>& completed() const {
    drain();
    return completed_;
  }
  [[nodiscard]] const std::vector<Breakdown>& slowest() const {
    drain();
    return slowest_;  // sorted, slowest first; at most top_k entries
  }
  [[nodiscard]] std::uint64_t completed_count() const {
    drain();
    return completed_count_;
  }
  [[nodiscard]] std::uint64_t aborted_count() const {
    drain();
    return aborted_count_;
  }
  [[nodiscard]] std::uint64_t orphaned_count() const {
    drain();
    return orphaned_count_;
  }
  [[nodiscard]] std::uint64_t dropped_records() const {
    drain();
    return dropped_records_;
  }
  /// Aggregate over every cleanly completed chain.
  [[nodiscard]] sim::Time phase_total(Phase p) const {
    drain();
    return phase_totals_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] sim::Time latency_total() const {
    drain();
    return latency_total_;
  }

  /// `{"completed":...,"phase_totals_ns":{...},"messages":[...],...}`.
  [[nodiscard]] std::string json() const;

  /// Human-readable top-K "why was this slow" digest (empty-stream safe).
  [[nodiscard]] std::string digest() const;

 private:
  /// Per-send state, indexed by the send's `Lifetimes::Send::slot`.
  struct Chain {
    Breakdown rec;
    Phase cur = Phase::kHandshake;
    sim::Time since = 0;
    std::uint32_t region = 0;      // sender-side region (rendezvous only)
    bool open = false;             // posted, not yet closed
    bool in_handshake = true;      // sender-pin only accrues here
    sim::Time pinning_at_post = 0;  // the region's pin-job time at the post
    std::uint32_t restarts_at_post = 0;  // and its restart count
  };

  void transition(Chain& c, sim::Time now, Phase next);
  void close(Chain& c, sim::Time now, bool aborted);
  [[nodiscard]] const Lifetimes::Region* region_of(const Chain& c) const;
  Chain* find_chain(std::uint64_t key);
  /// The open chain `e` is about, if any.
  Chain* chain_of(const Event& e);

  std::size_t max_records_;
  std::size_t top_k_;
  const Lifetimes* life_ = nullptr;  // the stream's table, for finalize
  std::vector<Chain> chains_;
  std::vector<Breakdown> completed_;
  std::vector<Breakdown> slowest_;
  std::array<sim::Time, kPhaseCount> phase_totals_{};
  sim::Time latency_total_ = 0;
  std::uint64_t completed_count_ = 0;
  std::uint64_t aborted_count_ = 0;
  std::uint64_t orphaned_count_ = 0;
  std::uint64_t dropped_records_ = 0;
};

}  // namespace pinsim::obs
