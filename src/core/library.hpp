#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/endpoint.hpp"
#include "core/region_cache.hpp"
#include "mem/pool.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace pinsim::core {

/// Thrown synchronously (in the caller's context, before anything is
/// submitted) when a send targets a node the watchdog has declared dead.
/// MX semantics for a known-dead peer: fail fast instead of burning the
/// whole retry budget against silence.
class PeerDeadError : public std::runtime_error {
 public:
  explicit PeerDeadError(net::NodeId node)
      : std::runtime_error("isend to a dead peer node"), node_(node) {}
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

 private:
  net::NodeId node_;
};

/// A user-visible communication request. The owner keeps it alive until it
/// completes; coroutines `co_await req->wait()`.
///
/// Requests come from one process-wide pool (harnesses keep them past the
/// Library that issued them), and dropping a RequestPtr recycles the node.
/// The request also carries its own submission arguments, so the closures
/// queued behind the syscall cost hold just a pointer to it.
class Request {
 public:
  [[nodiscard]] auto wait() { return gate_.wait(); }
  [[nodiscard]] bool completed() const noexcept { return completed_; }
  [[nodiscard]] const Status& status() const noexcept { return status_; }
  /// Simulated instant the request completed (meaningful once completed()).
  [[nodiscard]] sim::Time completed_at() const noexcept {
    return gate_.opened_at();
  }

 private:
  friend class Library;
  friend class mem::ObjectPool<Request>;
  enum class Kind { kSend, kRecv };

  /// Back to the unsubmitted state, keeping the gate's and the segment
  /// list's capacity (ObjectPool contract).
  void reset() {
    gate_.reset(nullptr);
    SegmentList segs = std::move(segments_);
    segs.clear();
    status_ = Status{};
    completed_ = false;
    region_ = kInvalidRegion;
    kind_ = Kind::kSend;
    submitted_ = false;
    cancel_requested_ = false;
    send_seq_ = 0;
    recv_id_ = 0;
    dest_ = EndpointAddr{};
    match_ = 0;
    mask_ = 0;
    segments_ = std::move(segs);
    blocking_hint_ = false;
  }

  void complete(Status st) {
    assert(st.ok == (st.cause == AbortCause::kNone));
    if (completed_) return;
    status_ = st;
    completed_ = true;
    gate_.open();
  }

  /// Completes a request whose cancel arrived while it was still queued
  /// behind its syscall; true if it did.
  bool complete_if_cancelled() {
    if (cancel_requested_) complete(Status::aborted(AbortCause::kCancelled));
    return cancel_requested_;
  }

  sim::Gate gate_;
  Status status_;
  bool completed_ = false;
  RegionId region_ = kInvalidRegion;
  Kind kind_ = Kind::kSend;
  bool submitted_ = false;         // the driver knows about it
  bool cancel_requested_ = false;  // cancel arrived pre-submission
  std::uint32_t send_seq_ = 0;
  std::uint64_t recv_id_ = 0;
  // Submission arguments, consumed when the syscall cost has been paid.
  EndpointAddr dest_;
  std::uint64_t match_ = 0;
  std::uint64_t mask_ = 0;
  SegmentList segments_;
  bool blocking_hint_ = false;
};

using RequestPtr = mem::ObjectPool<Request>::Ptr;

/// The user-space Open-MX library (paper Figure 4): manages the region cache
/// and translates application send/recv calls into endpoint ioctls. It knows
/// which regions *exist*, never which are pinned — that stays in the driver.
class Library {
 public:
  explicit Library(Endpoint& ep);

  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;
  ~Library();

  /// Nonblocking send. Messages up to the eager threshold are copied and
  /// sent eagerly; larger ones go through region declaration (cache) and the
  /// rendezvous protocol.
  [[nodiscard]] RequestPtr isend(EndpointAddr dest, std::uint64_t match,
                                 mem::VirtAddr buf, std::size_t len,
                                 bool blocking_hint = false);

  /// Vectorial (iovec) variant: the message is the concatenation of the
  /// segments; large messages declare one vectorial region (paper §3.2:
  /// "regions may be vectorial").
  [[nodiscard]] RequestPtr isendv(EndpointAddr dest, std::uint64_t match,
                                  std::vector<Segment> segments,
                                  bool blocking_hint = false);

  /// Nonblocking receive. A region is declared (via the cache) when the
  /// posted buffer is large enough to receive rendezvous traffic.
  [[nodiscard]] RequestPtr irecv(std::uint64_t match, std::uint64_t mask,
                                 mem::VirtAddr buf, std::size_t len,
                                 bool blocking_hint = false);

  [[nodiscard]] RequestPtr irecvv(std::uint64_t match, std::uint64_t mask,
                                  std::vector<Segment> segments,
                                  bool blocking_hint = false);

  /// Cancels a pending request (mx_cancel semantics): succeeds for receives
  /// that have not matched and sends that have not hit the wire. On success
  /// the request completes with ok == false. Returns false when it is too
  /// late (the request will complete normally).
  bool cancel(Request& req);

  /// Blocking (coroutine) conveniences.
  [[nodiscard]] sim::Task<Status> send(EndpointAddr dest, std::uint64_t match,
                                       mem::VirtAddr buf, std::size_t len);
  [[nodiscard]] sim::Task<Status> recv(std::uint64_t match, std::uint64_t mask,
                                       mem::VirtAddr buf, std::size_t len);

  [[nodiscard]] Endpoint& endpoint() noexcept { return ep_; }
  [[nodiscard]] EndpointAddr addr() const noexcept { return ep_.addr(); }
  [[nodiscard]] RegionCache& cache() noexcept { return cache_; }
  [[nodiscard]] Counters& counters() noexcept { return ep_.counters(); }

 private:
  /// User-space cost of a cache lookup (the small overhead §4.2 mentions).
  static constexpr sim::Time kCacheLookupCost = 200;

  [[nodiscard]] static std::size_t total_length(
      std::span<const Segment> segments) noexcept;

  [[nodiscard]] RequestPtr submit_send(EndpointAddr dest, std::uint64_t match,
                                       SegmentList segments,
                                       bool blocking_hint);
  [[nodiscard]] RequestPtr submit_recv(std::uint64_t match, std::uint64_t mask,
                                       SegmentList segments,
                                       bool blocking_hint);

  /// Liveness token for submission closures queued on the process core: a
  /// process killed with submissions still queued (crash injection) must not
  /// let them fire into the freed library. Such requests never complete;
  /// their owner drops them after the kill.
  std::shared_ptr<void> alive_ = std::make_shared<char>();

  Endpoint& ep_;
  sim::Engine& eng_;
  RegionCache cache_;
};

}  // namespace pinsim::core
