#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/hash_map.hpp"

namespace pinsim::obs {

/// The lifetimes the protocol is made of, tracked once for every sink: each
/// region's pins (its frontier and its on-demand pin job, paper §3.1/§3.3),
/// each posted send, and each receiver's pull. Rows are keyed by
/// chain_key(node, ep, id), with the region id, the send seq or the pull
/// handle as the id.
///
/// The bus stamps every event with this table and hands it to `deliver`,
/// which updates the table in two steps around the fan-out:
///  - before it, a post or a pull start opens its row (a repeat while open
///    replaces the row's event; see `opened`) and a pin event makes sure
///    its region has a row, so a sink finds the row an event is about;
///  - after it, everything else: frontiers, pin jobs, retry counts and
///    open counts; a done, abort or fail closes its row, and a kLifeCrash
///    drops the dead endpoint's rows (its next incarnation reuses ids
///    from 1).
/// So while the sinks read an event, rows and counts still describe the
/// stream up to the event before it, and the event carries what changes.
class Lifetimes {
 public:
  /// A rendezvous or eager send, from its post to its done or abort.
  struct Send {
    Event open;                 // the latest post
    std::uint64_t retries = 0;  // the last kRetransmit's retry count
    std::uint32_t slot = 0;     // dense index, reused once the send closes
  };

  /// A receiver's pull, from its start to its done or abort; its event's
  /// sender_chain is the send it serves.
  struct Pull {
    Event open;  // the latest kPullStart
  };

  /// A region's pins, from its first pin event on.
  struct Region {
    std::uint64_t frontier = 0;  // pinned pages
    bool pinning = false;        // a pin job is open (start to done or fail)
    sim::Time job_start = 0;     // the open job's latest kPinStart
    sim::Time jobs_ns = 0;       // time earlier jobs were open
    std::uint32_t restarts = 0;  // kPinRestart events so far
    /// Time a pin job was open on the region, up to `now`.
    [[nodiscard]] sim::Time pinning_ns(sim::Time now) const noexcept {
      return jobs_ns + (pinning ? now - job_start : 0);
    }
  };

  /// Hands `e`, stamped with this table (`e.life == this`), to every sink
  /// in order.
  void deliver(const Event& e, std::span<Sink* const> sinks);

  [[nodiscard]] const Send* send(std::uint64_t key) const noexcept {
    return find(sends_, key);
  }
  [[nodiscard]] const Pull* pull(std::uint64_t key) const noexcept {
    return find(pulls_, key);
  }
  [[nodiscard]] const Region* region(std::uint64_t key) const noexcept {
    return find(regions_, key);
  }
  [[nodiscard]] const sim::HashMap<Send>& sends() const noexcept {
    return sends_;
  }
  [[nodiscard]] const sim::HashMap<Pull>& pulls() const noexcept {
    return pulls_;
  }

  /// Whether the post or pull start being delivered opened a row, rather
  /// than repeating one still open.
  [[nodiscard]] bool opened() const noexcept { return opened_; }

  /// What is open, as of the event before the one being delivered.
  struct Counts {
    std::uint32_t sends = 0;
    std::uint32_t pulls = 0;
    std::uint32_t pin_jobs = 0;
    std::uint64_t pinned_pages = 0;  // the sum of the regions' frontiers
  };
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

 private:
  template <typename Row>
  static const Row* find(const sim::HashMap<Row>& rows,
                         std::uint64_t key) noexcept {
    const auto it = rows.find(key);
    return it == rows.end() ? nullptr : &it->second;
  }

  void open(const Event& e);
  void settle(const Event& e);
  template <typename Row>
  void close(sim::HashMap<Row>& rows, std::uint64_t key);
  void settle_pin(Region& r, const Event& e);
  void forget(const Send& s);
  void forget(const Pull&) { --counts_.pulls; }
  void forget(const Region& r);

  sim::HashMap<Send> sends_;
  sim::HashMap<Pull> pulls_;
  sim::HashMap<Region> regions_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_slot_ = 0;
  bool opened_ = false;  // the event being delivered opened a send or pull
  Counts counts_;
};

}  // namespace pinsim::obs
