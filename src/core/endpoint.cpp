#include "core/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/driver.hpp"

namespace pinsim::core {

namespace {

/// Notifier registered on the process address space when the endpoint opens
/// (paper §3.1). All it does is forward invalidations to the pin manager —
/// the user-space library never hears about them.
struct EndpointNotifier final : mem::MmuNotifier {
  explicit EndpointNotifier(Endpoint& e) : ep(&e) {}
  void invalidate_range(mem::VirtAddr start, mem::VirtAddr end) override {
    ep->pin_manager().invalidate_range(start, end);
  }
  void release() override { address_space_alive = false; }
  Endpoint* ep;
  bool address_space_alive = true;
};

constexpr std::size_t kCompletedMemory = 8192;

/// A retransmit timer of nominal timeout t waits t + [0, t / 2): half a
/// timeout of spread decorrelates retries that one collision synchronized,
/// without stretching recovery past 1.5 t.
constexpr sim::Time kTimerSpreadDivisor = 2;

}  // namespace

Endpoint::Endpoint(Driver& driver, std::uint8_t id, mem::AddressSpace& as,
                   cpu::Core& process_core)
    : driver_(driver),
      id_(id),
      as_(as),
      process_core_(process_core),
      pins_(driver.engine(), process_core, driver.cpu(),
            driver.config().pinning, counters_, &driver.relay()) {
  pins_.set_identity(driver.node(), id_);
  pins_.set_driver(&driver);
  auto notifier = std::make_unique<EndpointNotifier>(*this);
  as_.register_notifier(notifier.get());
  notifier_ = std::move(notifier);

  pins_.set_failure_handler([this](Region& r) {
    // Abort every in-flight request still using this region. The tables
    // iterate in ascending seq order (flat maps), which is the order the
    // abort packets and their event emissions must leave in for replays to
    // be bit-exact; collect the keys first because the exits erase entries
    // mid-walk.
    std::vector<std::uint32_t> dead_sends;
    for (auto& [seq, req] : sends_) {
      if (!req->eager && req->region == r.id()) dead_sends.push_back(seq);
    }
    for (std::uint32_t seq : dead_sends) {
      abort_send(seq, AbortCause::kPinFailed);
    }

    std::vector<std::uint32_t> dead_pulls;
    for (auto& [handle, ps] : pulls_) {
      if (ps->region == &r && !ps->done) dead_pulls.push_back(handle);
    }
    for (std::uint32_t handle : dead_pulls) {
      abort_pull(handle, AbortCause::kPinFailed);
    }
  });
}

Endpoint::~Endpoint() {
  // Disarm every guarded() closure still sitting in the engine's event
  // queue or a core's run queue, then drop the timers we know about. An
  // endpoint closed mid-transfer otherwise leaves retransmit timers and
  // queued bottom halves pointing at freed memory.
  alive_.reset();
  for (auto& [seq, req] : sends_) driver_.engine().cancel(req->rto);
  for (auto& [handle, ps] : pulls_) driver_.engine().cancel(ps->rto);

  // If the address space died first, its destructor already fired the
  // notifier's release() — touching it again would be use-after-free.
  auto* notifier = static_cast<EndpointNotifier*>(notifier_.get());
  if (notifier->address_space_alive) as_.unregister_notifier(notifier);
}

void Endpoint::set_epoch(std::uint8_t e) noexcept {
  epoch_ = e;
  timer_rng_.reseed(std::uint64_t{driver_.node()} << 16 |
                    std::uint64_t{id_} << 8 | e);
}

EndpointAddr Endpoint::addr() const noexcept {
  return EndpointAddr{driver_.node(), id_};
}

cpu::Core& Endpoint::bh_core() noexcept {
  return driver_.config().protocol.distribute_interrupts
             ? process_core_
             : driver_.nic().irq_core();
}

std::size_t Endpoint::inflight() const noexcept {
  return sends_.size() + pulls_.size() + posted_.size();
}

// --- regions -----------------------------------------------------------------

RegionId Endpoint::declare_region(std::vector<Segment> segments) {
  return pins_.declare(as_, std::move(segments)).id();
}

void Endpoint::undeclare_region(RegionId id) {
  pins_.undeclare(id);
  for (auto w = pending_reserves_.begin(); w != pending_reserves_.end();) {
    w = w->second == id ? pending_reserves_.erase(w) : std::next(w);
  }
}

Region* Endpoint::find_region(RegionId id) { return pins_.find(id); }

// --- eager send ----------------------------------------------------------------

std::uint32_t Endpoint::isend_eager(EndpointAddr dest, std::uint64_t match,
                                    mem::VirtAddr buf, std::size_t len,
                                    Completion done) {
  const Segment seg{buf, len};
  return isend_eager(dest, match,
                     std::span<const Segment>(&seg, len > 0 ? 1 : 0),
                     std::move(done));
}

std::uint32_t Endpoint::isend_eager(EndpointAddr dest, std::uint64_t match,
                                    std::span<const Segment> segments,
                                    Completion done) {
  const std::uint32_t seq = next_send_seq_++;
  auto node = send_pool_.acquire();
  SendRequest& req = *node;
  req.seq = seq;
  req.dest = dest;
  req.match = match;
  req.eager = true;
  req.done = std::move(done);
  for (const Segment& s : segments) req.len += s.len;
  const std::size_t len = req.len;
  ++counters_.eager_sent;
  {
    obs::Event e = ev(obs::EventKind::kEagerPost);
    e.seq = seq;
    e.peer = dest.node;
    e.peer_ep = dest.ep;
    e.len = len;
    obs_emit(e);
  }
  // Posted before the copy, so a fault fails a send the observers know.
  sends_.emplace(seq, std::move(node));
  // Gather the (possibly vectorial) user data into the kernel staging copy,
  // a byte-pool buffer that goes back to the pool with the request.
  req.eager_data = net::frame_buffers().acquire_for_overwrite(len);
  try {
    std::size_t off = 0;
    for (const Segment& s : segments) {
      as_.read(s.addr, std::span<std::byte>(req.eager_data.data() + off,
                                            s.len));  // copy_from_user
      off += s.len;
    }
  } catch (const mem::InvalidAddressError&) {
    abort_send(seq, AbortCause::kBadAddress);
    return seq;
  }
  // The kernel-side copy into frames costs CPU on the submitting core.
  process_core_.submit(cpu::Priority::kKernel, driver_.cpu().copy_cost(len),
                       guarded([this, seq] {
                         if (sends_.count(seq) != 0) transmit_eager(seq);
                       }));
  return seq;
}

void Endpoint::transmit_eager(std::uint32_t seq) {
  SendRequest& req = *sends_.at(seq);
  req.transmitted = true;
  const std::size_t chunk = driver_.config().protocol.frame_payload;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(chunk, req.len - off);
    EagerBody body;
    body.match = req.match;
    body.msg_len = static_cast<std::uint32_t>(req.len);
    body.frag_offset = static_cast<std::uint32_t>(off);
    body.seq = seq;
    // Written once, straight into the buffer that becomes the frame.
    body.data = payload_for_overwrite(PacketType::kEager, n);
    std::copy_n(req.eager_data.begin() + static_cast<std::ptrdiff_t>(off), n,
                body.data.begin());
    send_packet(req.dest, std::move(body), cpu::Priority::kKernel);
    off += n;
  } while (off < req.len);
  arm_send_rto(req);
}

// --- rendezvous send -----------------------------------------------------------

std::uint32_t Endpoint::isend_rndv(EndpointAddr dest, std::uint64_t match,
                                   RegionId region_id, std::size_t len,
                                   Completion done, bool blocking_hint) {
  Region* region = find_region(region_id);
  if (region == nullptr) throw std::invalid_argument("isend on unknown region");
  if (len > region->total_length()) {
    throw std::invalid_argument("isend length exceeds region");
  }
  const std::uint32_t seq = next_send_seq_++;
  auto node = send_pool_.acquire();
  SendRequest& req = *node;
  req.seq = seq;
  req.dest = dest;
  req.match = match;
  req.len = len;
  req.eager = false;
  req.region = region_id;
  req.done = std::move(done);
  region->add_use();
  ++counters_.rndv_sent;
  {
    obs::Event e = ev(obs::EventKind::kRndvPost);
    e.seq = seq;
    e.peer = dest.node;
    e.peer_ep = dest.ep;
    e.region = region_id;
    e.len = len;
    obs_emit(e);
  }
  sends_.emplace(seq, std::move(node));

  // Pin per configuration: with overlapping the completion fires right away
  // (or after the pre-pin threshold) and the RNDV leaves before the region
  // is fully pinned (Figure 5); otherwise it waits (Figure 2).
  pins_.ensure_pinned(*region, guarded([this, seq](bool ok) {
    auto it = sends_.find(seq);
    if (it == sends_.end()) return;  // already failed/aborted
    if (!ok) {
      abort_send(seq, AbortCause::kPinFailed);
    } else if (!it->second->rndv_sent) {
      send_rndv_frame(*it->second);
    }
  }), blocking_hint);
  return seq;
}

void Endpoint::send_rndv_frame(SendRequest& req) {
  req.rndv_sent = true;
  req.transmitted = true;
  RndvBody body;
  body.match = req.match;
  body.msg_len = req.len;
  body.region = req.region;
  body.seq = req.seq;
  send_packet(req.dest, body, cpu::Priority::kKernel);
  arm_send_rto(req);
}

sim::Time Endpoint::backoff_timeout(int retries) const {
  const auto& proto = driver_.config().protocol;
  sim::Time t = proto.retransmit_timeout;
  for (int i = 0; i < retries && t < proto.retransmit_backoff_max; ++i) {
    t *= 2;
  }
  return std::min(t, proto.retransmit_backoff_max);
}

sim::Time Endpoint::spread(sim::Time t) {
  const sim::Time width = t / kTimerSpreadDivisor;
  return width == 0 ? t : t + timer_rng_.next_below(width);
}

void Endpoint::arm_send_rto(SendRequest& req) {
  const auto seq = req.seq;
  req.rto = driver_.engine().schedule_after(
      spread(backoff_timeout(req.retries)), guarded([this, seq] {
        auto it = sends_.find(seq);
        if (it == sends_.end()) return;
        SendRequest& r = *it->second;
        ++r.retries;
        // A pull that keeps arriving is progress, not silence: only ticks
        // without one spend the budget (the backoff still grows).
        if (!r.pulled) ++r.idle_ticks;
        r.pulled = false;
        // Once a PULL arrived the receiver drives the rendezvous: a tick
        // then resends nothing, so it is no retransmission.
        if (r.eager || !r.pull_seen) {
          ++counters_.send_timeouts;
          ++counters_.retransmit_timeouts;
          obs::Event e = ev(obs::EventKind::kRetransmit);
          e.seq = seq;
          e.peer = r.dest.node;
          e.peer_ep = r.dest.ep;
          e.offset = static_cast<std::uint64_t>(r.retries);
          obs_emit(e);
        }
        if (r.idle_ticks > driver_.config().protocol.retry_budget) {
          // Budget exhausted: give up gracefully instead of hammering a
          // peer that is clearly not answering.
          ++counters_.retry_exhausted;
          abort_send(seq, AbortCause::kRetryBudget);
          return;
        }
        if (r.eager) {
          transmit_eager(seq);  // re-arms the timer
        } else if (!r.pull_seen) {
          send_rndv_frame(r);  // RNDV itself was probably lost
        } else {
          arm_send_rto(r);  // passive: receiver drives; just keep waiting
        }
      }),
      {"core", "send_rto"});
}

void Endpoint::abort_send(std::uint32_t seq, AbortCause cause) {
  auto it = sends_.find(seq);
  if (it == sends_.end()) return;
  // Move the pooled node out before erasing: the entry must be gone before
  // the completion runs, and the node recycles when this frame returns.
  auto node = std::move(it->second);
  sends_.erase(it);
  SendRequest& req = *node;
  driver_.engine().cancel(req.rto);
  ++counters_.aborts;
  ++(counters_.*abort_cause_row(cause).counter);
  {
    obs::Event e = ev(obs::EventKind::kSendAbort);
    e.seq = seq;
    e.peer = req.dest.node;
    e.peer_ep = req.dest.ep;
    e.len = static_cast<std::uint64_t>(cause);
    e.label = abort_cause_name(cause);
    obs_emit(e);
  }
  if (abort_cause_row(cause).tells_peer && req.rndv_sent) {
    send_packet(req.dest, AbortBody{seq}, cpu::Priority::kKernel);
  }
  if (!req.eager) {
    if (Region* r = find_region(req.region); r != nullptr) r->drop_use();
  }
  req.done(Status::aborted(cause));
}

void Endpoint::abort_pull(std::uint32_t handle, AbortCause cause) {
  auto it = pulls_.find(handle);
  if (it == pulls_.end()) return;
  PullState& p = *it->second;  // pooled: stable across the completion
  if (!p.done) {
    if (abort_cause_row(cause).tells_peer) {
      send_packet({p.peer_node, p.peer_ep}, AbortBody{p.sender_seq},
                  cpu::Priority::kKernel);
    }
    if (p.region != nullptr) p.region->drop_use();
    obs::Event e = ev(obs::EventKind::kRecvAbort);
    e.seq = handle;
    e.offset = p.sender_seq;
    e.peer = p.peer_node;
    e.peer_ep = p.peer_ep;
    e.len = static_cast<std::uint64_t>(cause);
    e.label = abort_cause_name(cause);
    obs_emit(e);
    abort_recv(p.recv, cause);
  }
  destroy_pull(handle);
}

void Endpoint::abort_recv(const RecvRequest& recv, AbortCause cause) {
  ++counters_.aborts;
  ++(counters_.*abort_cause_row(cause).counter);
  complete_recv(recv, Status::aborted(cause));
}

void Endpoint::fail_all_inflight() {
  // Ascending-id walks with the keys collected first: the exits erase
  // entries and run user completions that may re-enter the tables.
  std::vector<std::uint32_t> seqs;
  for (const auto& [seq, req] : sends_) seqs.push_back(seq);
  for (std::uint32_t seq : seqs) abort_send(seq, AbortCause::kCrash);

  std::vector<std::uint32_t> handles;
  for (const auto& [handle, ps] : pulls_) handles.push_back(handle);
  for (std::uint32_t handle : handles) abort_pull(handle, AbortCause::kCrash);

  while (!posted_.empty()) {
    auto recv = std::move(posted_.front());
    posted_.erase(posted_.begin());
    abort_recv(*recv, AbortCause::kCrash);
  }
  inbound_.clear();
}

void Endpoint::fail_requests_to(net::NodeId node, int peer_ep,
                                AbortCause cause) {
  std::vector<std::uint32_t> seqs;
  for (const auto& [seq, req] : sends_) {
    if (req->dest.node == node &&
        (peer_ep < 0 || req->dest.ep == static_cast<std::uint8_t>(peer_ep))) {
      seqs.push_back(seq);
    }
  }
  for (std::uint32_t seq : seqs) abort_send(seq, cause);
  std::vector<std::uint32_t> handles;
  for (const auto& [handle, ps] : pulls_) {
    if (ps->peer_node == node &&
        (peer_ep < 0 || ps->peer_ep == static_cast<std::uint8_t>(peer_ep))) {
      handles.push_back(handle);
    }
  }
  for (std::uint32_t handle : handles) abort_pull(handle, cause);
}

void Endpoint::on_peer_restarted(net::NodeId node, std::uint8_t peer_ep) {
  fail_requests_to(node, peer_ep, AbortCause::kPeerRestarted);
  // Reassembly records from the dead incarnation: unbound ones evaporate,
  // bound ones fail their receive. Each record leaves the list before its
  // completion runs, and the scan restarts after it: the completion may
  // post a receive that binds (and erases) some other record.
  const auto from_old = [node, peer_ep](const InboundPtr& m) {
    return m->peer_node == node && m->peer_ep == peer_ep;
  };
  for (auto it = std::find_if(inbound_.begin(), inbound_.end(), from_old);
       it != inbound_.end();
       it = std::find_if(inbound_.begin(), inbound_.end(), from_old)) {
    InboundPtr msg = std::move(*it);
    inbound_.erase(it);
    if (msg->bound) abort_recv(msg->recv, AbortCause::kPeerRestarted);
  }
  // Duplicate-suppression memory keyed by the old incarnation's seq space:
  // the new incarnation reuses seqs from 1, so stale "already completed"
  // records would silently swallow its messages. inbound_key packs node/ep
  // into disjoint bit ranges, so prefix filtering is exact.
  const auto from_peer = [node, peer_ep](std::uint64_t key) {
    return (key >> 41) == node && ((key >> 33) & 0xff) == peer_ep;
  };
  completed_.erase_if(from_peer);
  for (std::size_t n = completed_fifo_.size(); n > 0; --n) {
    const std::uint64_t key = completed_fifo_.pop_front();  // order kept
    if (!from_peer(key)) completed_fifo_.push_back(key);
  }
}

// --- receive posting -----------------------------------------------------------

std::uint64_t Endpoint::irecv(std::uint64_t match, std::uint64_t mask,
                              mem::VirtAddr buf, std::size_t len,
                              RegionId region, Completion done,
                              bool blocking_hint) {
  SegmentList segs;
  if (len > 0) segs.push_back(Segment{buf, len});
  return irecv(match, mask, std::move(segs), region, std::move(done),
               blocking_hint);
}

std::uint64_t Endpoint::irecv(std::uint64_t match, std::uint64_t mask,
                              SegmentList segments, RegionId region,
                              Completion done, bool blocking_hint) {
  auto node = recv_pool_.acquire();
  RecvRequest& recv = *node;
  recv.match = match;
  recv.mask = mask;
  recv.segments = std::move(segments);
  for (const Segment& s : recv.segments) recv.total_len += s.len;
  recv.region = region;
  recv.id = next_recv_id_++;
  recv.blocking_hint = blocking_hint;
  const std::uint64_t id = recv.id;
  recv.done = std::move(done);

  // Warm the pin before the rendezvous arrives (Figure 3: MPI_Recv -> pin).
  if (Region* r = find_region(region); r != nullptr) {
    pins_.ensure_pinned(*r, [](bool) {}, blocking_hint);
  }

  // Match already-arrived messages in arrival order (MPI non-overtaking).
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    InboundMsg& m = **it;
    if (m.bound || !match_ok(recv, m.match)) continue;
    if (m.rndv) {
      InboundPtr msg = std::move(*it);
      inbound_.erase(it);
      start_pull(std::move(*msg), std::move(recv));
    } else {
      m.bound = true;
      m.recv = std::move(recv);
      if (m.bytes_received >= m.msg_len) finish_eager_inbound(m);
    }
    return id;
  }
  posted_.push_back(std::move(node));
  return id;
}

bool Endpoint::cancel_recv(std::uint64_t recv_id) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if ((*it)->id != recv_id) continue;
    auto recv = std::move(*it);
    posted_.erase(it);
    abort_recv(*recv, AbortCause::kCancelled);
    return true;
  }
  return false;  // already matched (or completed): too late
}

bool Endpoint::cancel_send(std::uint32_t seq) {
  auto it = sends_.find(seq);
  if (it == sends_.end() || it->second->transmitted) return false;
  abort_send(seq, AbortCause::kCancelled);
  return true;
}

// --- packet dispatch -----------------------------------------------------------

void Endpoint::handle_packet(net::NodeId src_node, Packet&& pkt) {
  std::visit(
      [&](auto&& body) {
        on_packet(src_node, pkt.header.src_ep,
                  std::forward<decltype(body)>(body));
      },
      std::move(pkt.body));
}

// --- eager receive ---------------------------------------------------------------

void Endpoint::on_packet(net::NodeId src, std::uint8_t src_ep,
                         EagerBody&& body) {
  const std::uint64_t key = inbound_key(src, src_ep, body.seq, false);
  if (is_completed(key)) {
    // Retransmission of a message we already delivered: re-ack (the ack was
    // probably lost) but never touch the user buffer again.
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    send_packet({src, src_ep}, EagerAckBody{body.seq},
                cpu::Priority::kBottomHalf);
    return;
  }

  // Find (or create) the reassembly record; matching happens on the first
  // fragment so message order is fixed by arrival order.
  InboundMsg* msg = nullptr;
  for (const InboundPtr& m : inbound_) {
    if (!m->rndv && m->peer_node == src && m->peer_ep == src_ep &&
        m->seq == body.seq) {
      msg = m.get();
      break;
    }
  }
  if (msg == nullptr) {
    InboundPtr node = inbound_pool_.acquire();
    InboundMsg& m = *node;
    m.id = next_inbound_id_++;
    m.rndv = false;
    m.peer_node = src;
    m.peer_ep = src_ep;
    m.seq = body.seq;
    m.match = body.match;
    m.msg_len = body.msg_len;
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (match_ok(**it, body.match)) {
        m.bound = true;
        m.recv = std::move(**it);
        posted_.erase(it);
        break;
      }
    }
    if (!m.bound) m.kernel_buffer = net::frame_buffers().acquire(m.msg_len);
    msg = &m;
    inbound_.push_back(std::move(node));
  }

  const auto& seen = msg->frags_seen;
  if (std::find(seen.begin(), seen.end(), body.frag_offset) != seen.end()) {
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    return;
  }
  msg->frags_seen.push_back(body.frag_offset);
  eager_deliver_frag(*msg, body.frag_offset, std::move(body.data));
}

void Endpoint::eager_deliver_frag(InboundMsg& msg, std::uint32_t frag_offset,
                                  DataChunk&& data) {
  const std::size_t n = data.size();
  charge_rx_copy(n, guarded([this, id = msg.id, frag_offset,
                             data = std::move(data)] {
    // Re-find the record: it may have completed/vanished while the copy
    // cost was accruing (e.g. duplicate path).
    for (const InboundPtr& node : inbound_) {
      InboundMsg& m = *node;
      if (m.rndv || m.id != id) continue;
      if (m.bound && m.kernel_buffer.empty()) {
        // Matched before the first fragment arrived: copy directly into the
        // user buffer (bounded by the posted size).
        scatter_to_user(m.recv, frag_offset, data);
      } else {
        // Started as unexpected: every fragment stays in the kernel staging
        // buffer, even if an irecv bound the message mid-reassembly, so the
        // final staged copy delivers a consistent whole. A zero-length
        // message has no bytes (and a null data pointer) to copy.
        if (!data.empty()) {
          std::memcpy(m.kernel_buffer.data() + frag_offset, data.data(),
                      data.size());
        }
      }
      m.bytes_received += data.size();
      if (m.bytes_received >= m.msg_len) finish_eager_inbound(m);
      return;
    }
  }));
}

void Endpoint::finish_eager_inbound(InboundMsg& msg) {
  if (!msg.acked) {
    msg.acked = true;
    send_packet({msg.peer_node, msg.peer_ep}, EagerAckBody{msg.seq},
                cpu::Priority::kBottomHalf);
  }

  if (msg.bound) {
    const bool trunc = msg.msg_len > msg.recv.total_len;
    const std::size_t delivered = std::min(msg.msg_len, msg.recv.total_len);
    remember_completed(
        inbound_key(msg.peer_node, msg.peer_ep, msg.seq, false));
    InboundPtr done = take_inbound(msg);
    if (!done->kernel_buffer.empty()) {
      // Was unexpected when it started arriving: one more copy from the
      // kernel staging buffer into the user buffer. The record rides along
      // with the copy, its lease as a raw pointer: if the endpoint closes
      // first, the guard drops the closure and the pool frees the node.
      charge_rx_copy(delivered, guarded([this, raw = done.release(), delivered,
                                         trunc] {
        const InboundPtr m(raw, mem::ObjectPool<InboundMsg>::Releaser(
                                    &inbound_pool_));
        scatter_to_user(m->recv, 0,
                        std::span<const std::byte>(m->kernel_buffer.data(),
                                                   delivered));
        ++counters_.eager_completed;
        complete_recv(m->recv, Status{true, trunc, delivered});
      }));
      return;
    }
    ++counters_.eager_completed;
    complete_recv(done->recv, Status{true, trunc, delivered});
    return;
  }
  // Unexpected and complete: wait in the inbound list for a matching irecv.
  // (finish runs again, on the bound path, when irecv binds it.)
}

void Endpoint::scatter_to_user(const RecvRequest& recv, std::size_t offset,
                               std::span<const std::byte> data) {
  if (offset >= recv.total_len) return;
  std::size_t remaining = std::min(data.size(), recv.total_len - offset);
  std::size_t cur = offset;   // message offset being written
  std::size_t src_off = 0;    // consumed bytes of `data`
  std::size_t seg_base = 0;   // message offset where this segment starts
  for (const Segment& s : recv.segments) {
    if (remaining == 0) break;
    const std::size_t seg_end = seg_base + s.len;
    if (cur < seg_end) {
      const std::size_t in_off = cur - seg_base;
      const std::size_t chunk = std::min(remaining, s.len - in_off);
      as_.write(s.addr + in_off, data.subspan(src_off, chunk));
      cur += chunk;
      src_off += chunk;
      remaining -= chunk;
    }
    seg_base = seg_end;
  }
}

Endpoint::InboundPtr Endpoint::take_inbound(InboundMsg& msg) {
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (it->get() == &msg) {
      InboundPtr node = std::move(*it);
      inbound_.erase(it);
      return node;
    }
  }
  return nullptr;
}

void Endpoint::complete_recv(const RecvRequest& recv, Status st) {
  if (recv.done) recv.done(st);
}

void Endpoint::on_packet(net::NodeId, std::uint8_t,
                         const EagerAckBody& body) {
  auto it = sends_.find(body.seq);
  if (it == sends_.end()) {
    ++counters_.duplicates_suppressed;  // duplicate ack
    return;
  }
  auto node = std::move(it->second);
  sends_.erase(it);
  SendRequest& req = *node;
  driver_.engine().cancel(req.rto);
  {
    obs::Event e = ev(obs::EventKind::kSendDone);
    e.seq = body.seq;
    e.peer = req.dest.node;
    e.peer_ep = req.dest.ep;
    e.len = req.len;
    obs_emit(e);
  }
  req.done(Status{true, false, req.len});
}

// --- rendezvous receive ----------------------------------------------------------

void Endpoint::on_packet(net::NodeId src, std::uint8_t src_ep,
                         const RndvBody& body) {
  ++counters_.rndv_received;
  const std::uint64_t key = inbound_key(src, src_ep, body.seq, true);
  if (is_completed(key)) {
    ++counters_.duplicates_suppressed;  // stale duplicate
    return;
  }
  for (const auto& [handle, ps] : pulls_) {
    if (ps->peer_node == src && ps->peer_ep == src_ep &&
        ps->sender_seq == body.seq) {
      ++counters_.duplicates_suppressed;  // dup of an in-progress transfer
      return;
    }
  }
  for (const InboundPtr& m : inbound_) {
    if (m->rndv && m->peer_node == src && m->peer_ep == src_ep &&
        m->seq == body.seq) {
      ++counters_.duplicates_suppressed;  // dup of an unmatched rendezvous
      return;
    }
  }

  InboundPtr node = inbound_pool_.acquire();
  InboundMsg& msg = *node;
  msg.rndv = true;
  msg.peer_node = src;
  msg.peer_ep = src_ep;
  msg.seq = body.seq;
  msg.match = body.match;
  msg.msg_len = body.msg_len;
  msg.sender_region = body.region;

  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (match_ok(**it, body.match)) {
      auto recv = std::move(*it);
      posted_.erase(it);
      start_pull(std::move(msg), std::move(*recv));
      return;
    }
  }
  inbound_.push_back(std::move(node));
}

void Endpoint::start_pull(InboundMsg&& rndv_msg, RecvRequest recv) {
  const std::size_t wanted = std::min(rndv_msg.msg_len, recv.total_len);
  Region* region = find_region(recv.region);
  if (region == nullptr && wanted > 0) {
    // No region to land the data in (severe posted-size mismatch): refuse
    // the RNDV at bottom-half priority; no pull exists to tear down.
    send_packet({rndv_msg.peer_node, rndv_msg.peer_ep},
                AbortBody{rndv_msg.seq}, cpu::Priority::kBottomHalf);
    abort_recv(recv, AbortCause::kNoRegion);
    return;
  }

  auto state = pull_pool_.acquire();
  PullState& ps = *state;
  ps.handle = next_pull_handle_++;
  ps.peer_node = rndv_msg.peer_node;
  ps.peer_ep = rndv_msg.peer_ep;
  ps.sender_seq = rndv_msg.seq;
  ps.sender_region = rndv_msg.sender_region;
  ps.full_len = rndv_msg.msg_len;
  ps.msg_len = wanted;
  ps.recv = std::move(recv);
  ps.region = region;

  const std::size_t frame_payload = driver_.config().protocol.frame_payload;
  for (std::size_t i = 0; i * kPullBlock < wanted; ++i) {
    const std::size_t frames =
        (ps.block_len(i) + frame_payload - 1) / frame_payload;
    PullBlock blk;
    blk.unseen = blk.uncopied = ~std::uint64_t{0} >> (64 - frames);
    ps.blocks.push_back(blk);
  }

  // `ps` stays valid across the emplace: the pooled node's address is
  // stable even as the table itself shifts.
  const std::uint32_t handle = ps.handle;
  pulls_.emplace(handle, std::move(state));
  {
    obs::Event e = ev(obs::EventKind::kPullStart);
    e.seq = handle;
    e.offset = ps.sender_seq;
    e.len = wanted;
    e.peer = ps.peer_node;
    e.peer_ep = ps.peer_ep;
    e.region = ps.recv.region;
    obs_emit(e);
  }

  if (wanted == 0) {
    finish_pull(ps);
    return;
  }

  region->add_use();
  arm_pull_rto(ps);
  pins_.ensure_pinned(*region, guarded([this, handle](bool ok) {
    auto it = pulls_.find(handle);
    if (it == pulls_.end()) return;
    if (!ok) {
      abort_pull(handle, AbortCause::kPinFailed);
    } else if (!it->second->started) {
      begin_pull_requests(*it->second);
    }
  }), ps.recv.blocking_hint);
}

void Endpoint::begin_pull_requests(PullState& ps) {
  ps.started = true;
  pump_pull_window(ps);
}

void Endpoint::pump_pull_window(PullState& ps) {
  while (ps.requested_incomplete < kPullWindow &&
         ps.next_block < ps.blocks.size()) {
    request_block(ps, ps.next_block++);
  }
}

void Endpoint::request_block(PullState& ps, std::size_t block_idx) {
  PullBlock& blk = ps.blocks[block_idx];
  if (blk.complete()) return;
  if (!blk.requested) {
    blk.requested = true;
    ++ps.requested_incomplete;
  }
  blk.last_request = driver_.engine().now();
  ++counters_.pulls_sent;
  {
    obs::Event e = ev(obs::EventKind::kPullBlockReq);
    e.seq = ps.handle;
    e.offset = block_idx * kPullBlock;
    e.len = ps.block_len(block_idx);
    e.peer = ps.peer_node;
    e.peer_ep = ps.peer_ep;
    obs_emit(e);
  }
  PullBody body;
  body.region = ps.sender_region;
  body.handle = ps.handle;
  body.offset = block_idx * kPullBlock;
  body.len = static_cast<std::uint32_t>(ps.block_len(block_idx));
  body.seq = ps.sender_seq;
  send_packet({ps.peer_node, ps.peer_ep}, body, cpu::Priority::kBottomHalf);
}

// Sender side: serve a pull request straight from the (pinned) region.
void Endpoint::on_packet(net::NodeId src, std::uint8_t src_ep,
                         const PullBody& body) {
  const auto send = sends_.find(body.seq);
  const bool live = send != sends_.end();
  if (live) {
    send->second->pull_seen = true;  // the RNDV clearly arrived
    send->second->pulled = true;
  }
  Region* region = find_region(body.region);
  if (region == nullptr) return;  // undeclared (aborted): ignore
  pins_.touch(*region);

  // A pull must stay inside the region it names; a request that escapes it
  // (corrupted-but-parseable, or hostile) is dropped, never served.
  if (body.offset > region->total_length() ||
      body.len > region->total_length() - body.offset) {
    ++counters_.checksum_drops;
    return;
  }

  const auto& proto = driver_.config().protocol;
  const std::size_t end = body.offset + body.len;
  for (std::size_t off = body.offset; off < end;
       off += proto.frame_payload) {
    const std::size_t n = std::min(proto.frame_payload, end - off);
    ++counters_.region_accesses;
    PullReplyBody reply;
    reply.handle = body.handle;
    reply.offset = off;
    // Both copies below write every byte or the reply is dropped unsent.
    // The chunk is the frame to be: encode() adds header and CRC in place.
    reply.data = payload_for_overwrite(PacketType::kPullReply, n);
    // Zero-copy send: the NIC reads the pinned pages during serialization
    // (a paged region's through the page table); no CPU copy cost is
    // charged. If the page is not pinned yet this is an overlap miss and
    // the frame is simply not sent (paper §3.3).
    if (region->copy_out(off, reply.data) != Region::AccessResult::kOk) {
      overlap_miss(obs::EventKind::kOverlapMissSend, {src, src_ep}, body.seq,
                   body.region, off, n);
      // A PULL of a send that already ended is stale: nothing waits for
      // pins on its behalf.
      if (live) reserve_when_pinned(src, src_ep, body, *region);
      continue;
    }
    emit_data(obs::EventKind::kCopyOut, {src, src_ep}, body.seq, body.region,
              off, n);
    ++counters_.pull_replies_sent;
    send_packet({src, src_ep}, std::move(reply), cpu::Priority::kBottomHalf);
  }
}

void Endpoint::on_packet(net::NodeId, std::uint8_t, PullReplyBody&& body) {
  auto it = pulls_.find(body.handle);
  if (it == pulls_.end()) {
    ++counters_.duplicate_frames;  // stale reply for a finished transfer
    ++counters_.duplicates_suppressed;
    return;
  }
  PullState& ps = *it->second;
  const auto& proto = driver_.config().protocol;
  // Validate the frame against this pull state before touching any memory:
  // the offset must land on a frame boundary inside a known block and the
  // payload must be exactly the frame the protocol would send for that slot.
  // Anything else is a corrupted-but-parseable or hostile frame — drop it
  // and let retransmission recover; never scribble into the region.
  if (body.offset >= ps.msg_len) {
    ++counters_.checksum_drops;
    return;
  }
  const std::size_t block_idx = body.offset / kPullBlock;
  if (block_idx >= ps.blocks.size()) {
    ++counters_.checksum_drops;
    return;
  }
  PullBlock& blk = ps.blocks[block_idx];
  const std::size_t block_len = ps.block_len(block_idx);
  const std::size_t in_block = body.offset % kPullBlock;
  if (in_block % proto.frame_payload != 0 || in_block >= block_len) {
    ++counters_.checksum_drops;
    return;
  }
  const std::size_t frame_idx = in_block / proto.frame_payload;
  if (body.data.size() != std::min(proto.frame_payload, block_len - in_block)) {
    ++counters_.checksum_drops;
    return;
  }
  const std::uint64_t frame_bit = std::uint64_t{1} << frame_idx;
  if ((blk.unseen & frame_bit) == 0) {
    ++counters_.duplicate_frames;
    ++counters_.duplicates_suppressed;
    return;
  }

  // The paper's cheap test on the region descriptor: not pinned yet ->
  // overlap miss -> drop the packet, retransmission recovers (§3.3).
  ++counters_.region_accesses;
  if (!ps.region->range_pinned(body.offset, body.data.size())) {
    overlap_miss(obs::EventKind::kOverlapMissRecv, {ps.peer_node, ps.peer_ep},
                 ps.handle, ps.region->id(), body.offset, body.data.size());
    repull_when_pinned(ps, block_idx);
    maybe_optimistic_rerequest(ps, block_idx);
    return;
  }

  blk.unseen &= ~frame_bit;
  ++ps.frames_received;
  const std::uint32_t handle = ps.handle;
  const std::size_t n = body.data.size();
  // The closure carries the frame's number in the pull rather than the
  // body, which keeps it inside sim::UniqueFunction's inline buffer.
  const auto frame =
      static_cast<std::uint32_t>(block_idx * frames_per_block() + frame_idx);
  charge_rx_copy(n, guarded([this, handle, frame,
                             data = std::move(body.data)]() mutable {
    auto pit = pulls_.find(handle);
    if (pit == pulls_.end()) return;
    PullState& p = *pit->second;
    const std::size_t block_idx = frame / frames_per_block();
    const std::size_t fi = frame % frames_per_block();
    PullBlock& b = p.blocks[block_idx];
    const std::uint64_t bit = std::uint64_t{1} << fi;
    const std::size_t offset = block_idx * kPullBlock +
                               fi * driver_.config().protocol.frame_payload;
    if (p.region->copy_in(offset, data) != Region::AccessResult::kOk) {
      // Invalidated between the check and the copy: count it as a miss and
      // re-pull the block once the region has repinned it.
      overlap_miss(obs::EventKind::kOverlapMissRecv, {p.peer_node, p.peer_ep},
                   p.handle, p.region->id(), offset, data.size());
      b.unseen |= bit;
      --p.frames_received;
      repull_when_pinned(p, block_idx);
      return;
    }
    emit_data(obs::EventKind::kCopyIn, {p.peer_node, p.peer_ep}, p.handle,
              p.region->id(), offset, data.size());
    b.uncopied &= ~bit;
    if (b.complete()) {
      --p.requested_incomplete;
      ++p.blocks_done;
      if (p.blocks_done == p.blocks.size()) {
        finish_pull(p);
        return;
      }
      pump_pull_window(p);
    }
  }));
  maybe_optimistic_rerequest(ps, block_idx);
}

void Endpoint::repull_when_pinned(PullState& ps, std::size_t block_idx) {
  PullBlock& blk = ps.blocks[block_idx];
  if (blk.awaiting_pins) return;
  blk.awaiting_pins = true;
  const std::uint32_t handle = ps.handle;
  pins_.when_pinned(
      *ps.region,
      ps.region->pages_through(block_idx * kPullBlock, ps.block_len(block_idx)),
      guarded([this, handle, block_idx](bool ok) {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullState& p = *it->second;
        PullBlock& b = p.blocks[block_idx];
        b.awaiting_pins = false;
        // A failed pin job aborts the pull through the failure handler.
        if (!ok || p.done || b.complete()) return;
        ++counters_.pull_rerequests;
        request_block(p, block_idx);
      }));
}

void Endpoint::reserve_when_pinned(net::NodeId src, std::uint8_t src_ep,
                                   const PullBody& body, Region& region) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(body.handle) << 32) ^
      (body.offset / kPullBlock);
  if (!pending_reserves_.emplace(key, region.id()).second) return;
  pins_.when_pinned(region, region.pages_through(body.offset, body.len),
                    guarded([this, src, src_ep, body, key](bool ok) {
                      pending_reserves_.erase(key);
                      // Re-serve the whole PULL; the receiver discards
                      // duplicates.
                      if (ok) on_packet(src, src_ep, body);
                    }));
}

void Endpoint::maybe_optimistic_rerequest(PullState& ps,
                                          std::size_t arrived_block) {
  // Minimum gap between re-requests of the same block, so a burst of later
  // frames does not trigger a re-request storm.
  constexpr sim::Time kRerequestCooldown = 30 * sim::kMicrosecond;
  // Data for a later block implies earlier requests were (partly) lost:
  // re-request the oldest incomplete block at once instead of waiting for
  // the timeout, rate-limited (footnote 4).
  // "Lost" means missing on the wire — a block whose frames all arrived and
  // are merely queued behind the copy engine is fine. Blocks only ever turn
  // complete, so the scan starts past the complete prefix.
  while (ps.first_incomplete < arrived_block &&
         ps.blocks[ps.first_incomplete].complete()) {
    ++ps.first_incomplete;
  }
  for (std::size_t i = ps.first_incomplete; i < arrived_block; ++i) {
    PullBlock& blk = ps.blocks[i];
    if (!blk.requested || blk.unseen == 0) continue;
    if (driver_.engine().now() - blk.last_request < kRerequestCooldown) {
      return;
    }
    ++counters_.pull_rerequests;
    request_block(ps, i);
    return;
  }
}

void Endpoint::finish_pull(PullState& ps) {
  ps.done = true;
  driver_.engine().cancel(ps.rto);
  const bool trunc = ps.full_len > ps.msg_len;
  if (ps.region != nullptr) {
    ps.region->drop_use();
  }
  {
    obs::Event e = ev(obs::EventKind::kRecvDone);
    e.seq = ps.handle;
    e.offset = ps.sender_seq;
    e.len = ps.msg_len;
    e.peer = ps.peer_node;
    e.peer_ep = ps.peer_ep;
    obs_emit(e);
  }
  remember_completed(
      inbound_key(ps.peer_node, ps.peer_ep, ps.sender_seq, true));
  complete_recv(ps.recv, Status{true, trunc, ps.msg_len});
  send_notify(ps);
}

void Endpoint::send_notify(PullState& ps) {
  ++counters_.notifies_sent;
  send_packet({ps.peer_node, ps.peer_ep},
              NotifyBody{ps.sender_seq, ps.handle},
              cpu::Priority::kBottomHalf);
  // NOTIFY retransmissions before the receiver abandons the handshake.
  constexpr int kNotifyRetryBudget = 100;
  const std::uint32_t handle = ps.handle;
  ps.rto = driver_.engine().schedule_after(
      spread(backoff_timeout(ps.notify_retries)), guarded([this, handle] {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullState& p = *it->second;
        if (++p.notify_retries > kNotifyRetryBudget) {
          // The data is safely delivered; only the sender-side release is
          // lost. Stop retransmitting and free the handle.
          ++counters_.retry_exhausted;
          destroy_pull(handle);
          return;
        }
        ++counters_.notify_timeouts;
        ++counters_.retransmit_timeouts;
        send_notify(p);
      }),
      {"core", "notify_rto"});
}

void Endpoint::arm_pull_rto(PullState& ps) {
  const std::uint32_t handle = ps.handle;
  ps.rto = driver_.engine().schedule_after(
      spread(driver_.config().protocol.pull_retry_timeout),
      guarded([this, handle] {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullState& p = *it->second;
        if (p.done) return;
        // Only a transfer that made no progress since the last tick is
        // stalled (tail-dropped by an overlap miss, or lost on the wire);
        // one that is merely streaming must not be re-pulled.
        const std::size_t progress = p.frames_received;
        if (p.started && progress == p.last_progress) {
          if (++p.stall_ticks > driver_.config().protocol.pull_stall_budget) {
            // The sender has been silent for the whole budget: stop holding
            // receiver state for it, tell it we gave up, fail the receive.
            // Still pinning the landing region is the root cause then.
            ++counters_.retry_exhausted;
            abort_pull(handle, pins_.pinning(*p.region)
                                   ? AbortCause::kPinStarved
                                   : AbortCause::kPullStall);
            return;
          }
          ++counters_.pull_stall_ticks;
          ++counters_.retransmit_timeouts;
          {
            obs::Event e = ev(obs::EventKind::kPullRetry);
            e.seq = handle;
            e.offset = p.sender_seq;
            e.len = static_cast<std::uint64_t>(p.stall_ticks);
            e.peer = p.peer_node;
            e.peer_ep = p.peer_ep;
            obs_emit(e);
          }
          for (std::size_t i = 0; i < p.blocks.size(); ++i) {
            PullBlock& blk = p.blocks[i];
            if (blk.requested && !blk.complete()) request_block(p, i);
          }
        } else {
          p.stall_ticks = 0;
        }
        p.last_progress = progress;
        arm_pull_rto(p);
      }),
      {"core", "pull_rto"});
}

void Endpoint::destroy_pull(std::uint32_t handle) {
  auto it = pulls_.find(handle);
  if (it == pulls_.end()) return;
  driver_.engine().cancel(it->second->rto);
  pulls_.erase(it);
}

// Sender: the receiver has everything; release and complete.
void Endpoint::on_packet(net::NodeId src, std::uint8_t src_ep,
                         const NotifyBody& body) {
  // Always ack: the notify may be a retransmission after our ack was lost.
  send_packet({src, src_ep}, NotifyAckBody{body.handle},
              cpu::Priority::kBottomHalf);
  auto it = sends_.find(body.seq);
  if (it == sends_.end()) {
    ++counters_.duplicates_suppressed;  // notify retransmission
    return;
  }
  auto node = std::move(it->second);
  sends_.erase(it);
  SendRequest& req = *node;
  driver_.engine().cancel(req.rto);
  if (Region* r = find_region(req.region); r != nullptr) r->drop_use();
  {
    obs::Event e = ev(obs::EventKind::kSendDone);
    e.seq = body.seq;
    e.peer = src;
    e.peer_ep = src_ep;
    e.len = req.len;
    obs_emit(e);
  }
  req.done(Status{true, false, req.len});
}

void Endpoint::on_packet(net::NodeId, std::uint8_t,
                         const NotifyAckBody& body) {
  if (pulls_.find(body.handle) == pulls_.end()) {
    ++counters_.duplicates_suppressed;  // ack for an already-freed handle
    return;
  }
  destroy_pull(body.handle);
}

void Endpoint::on_packet(net::NodeId src, std::uint8_t src_ep,
                         const AbortBody& body) {
  // Receiver side: the sender gave up on (src, seq). At most one in-progress
  // pull matches (on_rndv suppresses duplicates), so scan order cannot leak.
  for (auto& [handle, ps] : pulls_) {
    if (ps->peer_node == src && ps->peer_ep == src_ep &&
        ps->sender_seq == body.seq && !ps->done) {
      abort_pull(handle, AbortCause::kRemoteAbort);
      return;
    }
  }
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    const InboundMsg& m = **it;
    if (m.rndv && m.peer_node == src && m.peer_ep == src_ep &&
        m.seq == body.seq) {
      inbound_.erase(it);
      return;
    }
  }
  // Sender side: the receiver aborted our request.
  if (auto it = sends_.find(body.seq);
      it != sends_.end() && it->second->dest.node == src &&
      it->second->dest.ep == src_ep) {
    abort_send(body.seq, AbortCause::kRemoteAbort);
  }
}

// --- plumbing ---------------------------------------------------------------------

void Endpoint::charge_rx_copy(std::size_t bytes, sim::UniqueFunction after) {
  cpu::Core& irq = bh_core();
  ioat::DmaEngine* dma = driver_.dma();
  if (driver_.config().protocol.use_ioat && dma != nullptr) {
    // Bottom half only writes the descriptor; the engine moves the data.
    const sim::Time cpu_cost = driver_.cpu().copy_cost(bytes);
    irq.submit(cpu::Priority::kBottomHalf, 300,
               // pinlint: allow(D7: dma and irq are host hardware owned by
               // the Driver, which outlives every endpoint; the endpoint
               // state itself rides inside `after`, guarded by the caller)
               [dma, bytes, cpu_cost, after = std::move(after),
                &irq]() mutable {
                 if (dma->full()) {
                   // Descriptor ring full: fall back to a CPU copy.
                   irq.submit(cpu::Priority::kBottomHalf, cpu_cost,
                              std::move(after));
                   return;
                 }
                 dma->copy(bytes, [] {}, std::move(after));
               });
    return;
  }
  irq.submit(cpu::Priority::kBottomHalf, driver_.cpu().copy_cost(bytes),
             std::move(after));
}

std::size_t Endpoint::frames_per_block() const {
  const std::size_t frame_payload = driver_.config().protocol.frame_payload;
  return (kPullBlock + frame_payload - 1) / frame_payload;
}

void Endpoint::emit_data(obs::EventKind kind, EndpointAddr peer,
                         std::uint32_t seq, RegionId region,
                         std::uint64_t offset, std::size_t len) {
  obs::Event e = ev(kind);
  e.seq = seq;
  e.region = region;
  e.offset = offset;
  e.len = len;
  e.peer = peer.node;
  e.peer_ep = peer.ep;
  obs_emit(e);
}

void Endpoint::overlap_miss(obs::EventKind kind, EndpointAddr peer,
                            std::uint32_t seq, RegionId region,
                            std::uint64_t offset, std::size_t len) {
  ++counters_.overlap_misses;
  ++counters_.frames_dropped_on_miss;
  emit_data(kind, peer, seq, region, offset, len);
}

obs::Event Endpoint::ev(obs::EventKind kind) const {
  obs::Event e;
  e.kind = kind;
  e.node = driver_.node();
  e.ep = id_;
  return e;
}

void Endpoint::obs_emit(const obs::Event& e) { driver_.relay().emit(e); }

void Endpoint::send_packet(EndpointAddr dest, PacketBody body,
                           cpu::Priority priority, sim::Time extra_cost) {
  const PacketType type = packet_type(body);
  {
    obs::Event e = ev(obs::EventKind::kPktTx);
    e.pkt = static_cast<std::uint8_t>(type);
    e.label = packet_type_name(type);
    e.peer = dest.node;
    e.peer_ep = dest.ep;
    obs_emit(e);
  }
  Packet pkt;
  pkt.header.type = type;
  pkt.header.src_ep = id_;
  pkt.header.dst_ep = dest.ep;
  // Incarnation fencing: our epoch, and the destination's as far as we have
  // learned it (0 = unknown, never fenced — first contact always lands).
  pkt.header.src_epoch = epoch_;
  pkt.header.dst_epoch = driver_.peer_epoch(dest.node, dest.ep);
  pkt.body = std::move(body);

  net::Frame frame;
  frame.dst = dest.node;
  frame.payload = encode(std::move(pkt));

  cpu::Core& core = priority == cpu::Priority::kBottomHalf
                        ? bh_core()
                        : process_core_;
  const sim::Time cost = driver_.cpu().tx_frame_overhead + extra_cost;
  core.submit(priority, cost, guarded([this, f = std::move(frame)]() mutable {
    driver_.nic().send(std::move(f));
  }));
}

void Endpoint::remember_completed(std::uint64_t key) {
  completed_.insert(key);
  completed_fifo_.push_back(key);
  while (completed_fifo_.size() > kCompletedMemory) {
    completed_.erase(completed_fifo_.pop_front());
  }
}

bool Endpoint::is_completed(std::uint64_t key) const {
  return completed_.count(key) != 0;
}

std::uint64_t Endpoint::inbound_key(net::NodeId node, std::uint8_t ep,
                                    std::uint32_t seq, bool rndv) {
  return (static_cast<std::uint64_t>(node) << 41) ^
         (static_cast<std::uint64_t>(ep) << 33) ^
         (static_cast<std::uint64_t>(rndv ? 1 : 0) << 32) ^
         static_cast<std::uint64_t>(seq);
}

}  // namespace pinsim::core
