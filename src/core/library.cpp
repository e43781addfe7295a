#include "core/library.hpp"

#include "core/driver.hpp"

namespace pinsim::core {

Library::Library(Endpoint& ep)
    : ep_(ep),
      eng_(ep.driver().engine()),
      cache_(ep.driver().config().cache,
             [this](const std::vector<Segment>& segs) {
               // Declaration is a syscall; its cost lands on the process
               // core ahead of the communication that triggered it.
               ep_.process_core().consume(
                   cpu::Priority::kKernel,
                   ep_.driver().config().protocol.syscall_cost);
               return ep_.declare_region(segs);
             },
             [this](RegionId id) { ep_.undeclare_region(id); }) {}

Library::~Library() = default;

namespace {

/// Process-wide: harnesses keep requests past the Library that issued them.
mem::ObjectPool<Request>& request_pool() {
  // pinlint: allow(D3: leaked on purpose, like net::frame_buffers(); requests
  // held in objects with static storage may be dropped after a function-local
  // pool would be destroyed)
  static auto* const pool = new mem::ObjectPool<Request>;
  return *pool;
}

}  // namespace

std::size_t Library::total_length(std::span<const Segment> segments) noexcept {
  std::size_t total = 0;
  for (const Segment& s : segments) total += s.len;
  return total;
}

RequestPtr Library::submit_send(EndpointAddr dest, std::uint64_t match,
                                SegmentList segments, bool blocking_hint) {
  // The watchdog already declared this node dead: fail fast in the caller's
  // context instead of spending the whole retry budget against silence.
  if (ep_.driver().peer_dead(dest.node)) throw PeerDeadError(dest.node);
  RequestPtr req = request_pool().acquire();
  Request* r = req.get();
  r->gate_.reset(&eng_);
  r->kind_ = Request::Kind::kSend;
  r->dest_ = dest;
  r->match_ = match;
  r->segments_ = std::move(segments);
  r->blocking_hint_ = blocking_hint;
  const auto& proto = ep_.driver().config().protocol;
  cpu::Core& core = ep_.process_core();

  if (total_length(r->segments_) <= proto.eager_threshold) {
    core.submit(cpu::Priority::kKernel, proto.syscall_cost,
                [this, alive = std::weak_ptr<void>(alive_), r] {
                  if (alive.expired()) return;  // library died mid-queue
                  if (r->complete_if_cancelled()) return;
                  r->submitted_ = true;
                  r->send_seq_ = ep_.isend_eager(
                      r->dest_, r->match_, r->segments_,
                      [r](Status st) { r->complete(st); });
                });
    return req;
  }

  // User-space region-cache lookup, then the send ioctl.
  core.submit(
      cpu::Priority::kUser, kCacheLookupCost,
      [this, alive = std::weak_ptr<void>(alive_), r] {
        if (alive.expired()) return;  // library died mid-queue
        if (r->complete_if_cancelled()) return;
        r->region_ = cache_.acquire(r->segments_);
        ep_.process_core().submit(
            cpu::Priority::kKernel, ep_.driver().config().protocol.syscall_cost,
            [this, alive, r] {
              if (alive.expired()) return;
              if (r->cancel_requested_) cache_.release(r->region_);
              if (r->complete_if_cancelled()) return;
              r->submitted_ = true;
              r->send_seq_ = ep_.isend_rndv(
                  r->dest_, r->match_, r->region_,
                  total_length(r->segments_),
                  [this, r](Status st) {
                    cache_.release(r->region_);
                    r->complete(st);
                  },
                  r->blocking_hint_);
            });
      });
  return req;
}

RequestPtr Library::submit_recv(std::uint64_t match, std::uint64_t mask,
                                SegmentList segments, bool blocking_hint) {
  RequestPtr req = request_pool().acquire();
  Request* r = req.get();
  r->gate_.reset(&eng_);
  r->kind_ = Request::Kind::kRecv;
  r->match_ = match;
  r->mask_ = mask;
  r->segments_ = std::move(segments);
  r->blocking_hint_ = blocking_hint;
  const auto& proto = ep_.driver().config().protocol;
  cpu::Core& core = ep_.process_core();

  if (total_length(r->segments_) <= proto.eager_threshold) {
    core.submit(cpu::Priority::kKernel, proto.syscall_cost,
                [this, alive = std::weak_ptr<void>(alive_), r] {
                  if (alive.expired()) return;  // library died mid-queue
                  if (r->complete_if_cancelled()) return;
                  r->submitted_ = true;
                  r->recv_id_ = ep_.irecv(
                      r->match_, r->mask_, std::move(r->segments_),
                      kInvalidRegion, [r](Status st) { r->complete(st); });
                });
    return req;
  }

  core.submit(
      cpu::Priority::kUser, kCacheLookupCost,
      [this, alive = std::weak_ptr<void>(alive_), r] {
        if (alive.expired()) return;  // library died mid-queue
        if (r->complete_if_cancelled()) return;
        r->region_ = cache_.acquire(r->segments_);
        ep_.process_core().submit(
            cpu::Priority::kKernel, ep_.driver().config().protocol.syscall_cost,
            [this, alive, r] {
              if (alive.expired()) return;
              if (r->cancel_requested_) cache_.release(r->region_);
              if (r->complete_if_cancelled()) return;
              r->submitted_ = true;
              r->recv_id_ = ep_.irecv(
                  r->match_, r->mask_, std::move(r->segments_), r->region_,
                  [this, r](Status st) {
                    cache_.release(r->region_);
                    r->complete(st);
                  },
                  r->blocking_hint_);
            });
      });
  return req;
}

RequestPtr Library::isend(EndpointAddr dest, std::uint64_t match,
                          mem::VirtAddr buf, std::size_t len,
                          bool blocking_hint) {
  SegmentList segs;
  if (len > 0) segs.push_back(Segment{buf, len});
  return submit_send(dest, match, std::move(segs), blocking_hint);
}

RequestPtr Library::isendv(EndpointAddr dest, std::uint64_t match,
                           std::vector<Segment> segments,
                           bool blocking_hint) {
  return submit_send(dest, match, std::move(segments), blocking_hint);
}

RequestPtr Library::irecv(std::uint64_t match, std::uint64_t mask,
                          mem::VirtAddr buf, std::size_t len,
                          bool blocking_hint) {
  SegmentList segs;
  if (len > 0) segs.push_back(Segment{buf, len});
  return submit_recv(match, mask, std::move(segs), blocking_hint);
}

RequestPtr Library::irecvv(std::uint64_t match, std::uint64_t mask,
                           std::vector<Segment> segments,
                           bool blocking_hint) {
  return submit_recv(match, mask, std::move(segments), blocking_hint);
}

bool Library::cancel(Request& req) {
  if (req.completed()) return false;
  if (!req.submitted_) {
    // Still queued behind the syscall: the submission stage will observe the
    // flag and complete the request with ok == false.
    req.cancel_requested_ = true;
    return true;
  }
  if (req.kind_ == Request::Kind::kRecv) {
    return ep_.cancel_recv(req.recv_id_);
  }
  return ep_.cancel_send(req.send_seq_);
}

sim::Task<Status> Library::send(EndpointAddr dest, std::uint64_t match,
                                mem::VirtAddr buf, std::size_t len) {
  auto req = isend(dest, match, buf, len, /*blocking_hint=*/true);
  co_await req->wait();
  co_return req->status();
}

sim::Task<Status> Library::recv(std::uint64_t match, std::uint64_t mask,
                                mem::VirtAddr buf, std::size_t len) {
  auto req = irecv(match, mask, buf, len, /*blocking_hint=*/true);
  co_await req->wait();
  co_return req->status();
}

}  // namespace pinsim::core
