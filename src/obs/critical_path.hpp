#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/hash_map.hpp"

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
/// arrows use) and attributes its latency to phases with a per-chain state
/// machine:
///
///  * the chain opens at kRndvPost/kEagerPost in kHandshake/kTransfer;
///  * a pin job on the posted region, while still in handshake, accrues
///    kSenderPin (regular pinning pays it, overlapped pinning hides it);
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

  void on_event(const Event& e) override;

  /// End of stream: chains still open are counted as orphaned (the
  /// invariant checker reports them loudly; here they just stay out of the
  /// completed aggregates).
  void finalize() override;

  [[nodiscard]] const std::vector<Breakdown>& completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] const std::vector<Breakdown>& slowest() const noexcept {
    return slowest_;  // sorted, slowest first; at most top_k entries
  }
  [[nodiscard]] std::uint64_t completed_count() const noexcept {
    return completed_count_;
  }
  [[nodiscard]] std::uint64_t aborted_count() const noexcept {
    return aborted_count_;
  }
  [[nodiscard]] std::uint64_t orphaned_count() const noexcept {
    return orphaned_count_;
  }
  [[nodiscard]] std::uint64_t dropped_records() const noexcept {
    return dropped_records_;
  }
  /// Aggregate over every cleanly completed chain.
  [[nodiscard]] sim::Time phase_total(Phase p) const noexcept {
    return phase_totals_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] sim::Time latency_total() const noexcept {
    return latency_total_;
  }

  /// `{"completed":...,"phase_totals_ns":{...},"messages":[...],...}`.
  [[nodiscard]] std::string json() const;

  /// Human-readable top-K "why was this slow" digest (empty-stream safe).
  [[nodiscard]] std::string digest() const;

 private:
  static constexpr std::uint32_t kNoChain = 0xffffffffu;

  struct Chain {
    Breakdown rec;
    Phase cur = Phase::kHandshake;
    sim::Time since = 0;
    std::uint32_t region = 0;      // sender-side region (rendezvous only)
    bool in_handshake = true;      // sender-pin only accrues here
    bool pin_open = false;         // a pin job for `region` is running
    sim::Time pin_since = 0;
    sim::Time sender_pin = 0;      // accrued pin-blocked handshake time
    // Links of the list of open chains on the same (node, ep, region).
    std::uint32_t region_prev = kNoChain;
    std::uint32_t region_next = kNoChain;
  };

  void transition(Chain& c, sim::Time now, Phase next);
  void close(std::uint32_t idx, std::uint64_t key, sim::Time now,
             bool aborted);
  void on_pin_event(const Event& e);
  Chain* find_chain(std::uint64_t key);
  Chain* resolve_receiver(const Event& e);
  void link_region(std::uint32_t idx);
  void unlink_region(std::uint32_t idx);

  std::size_t max_records_;
  std::size_t top_k_;
  std::vector<Chain> chains_;                // open chain pool
  std::vector<std::uint32_t> free_chains_;   // free slots of chains_
  sim::HashMap<std::uint32_t> open_;         // chain key -> chains_ slot
  sim::HashMap<std::uint32_t> by_region_;    // pin key -> first chain slot
  sim::HashMap<std::uint64_t> pulls_;        // handle -> chain key
  sim::HashSet pins_open_;                   // running pin jobs
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
