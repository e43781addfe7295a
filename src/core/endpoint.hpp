#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/pin_manager.hpp"
#include "core/region.hpp"
#include "core/wire.hpp"
#include "cpu/core.hpp"
#include "cpu/cpu_model.hpp"
#include "ioat/dma_engine.hpp"
#include "mem/address_space.hpp"
#include "mem/mmu_notifier.hpp"
#include "mem/pool.hpp"
#include "net/frame.hpp"
#include "obs/event.hpp"
#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/hash_map.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/small_vector.hpp"

namespace pinsim::core {

class Driver;

/// Network-wide endpoint address, like an MX (board, endpoint) pair.
struct EndpointAddr {
  net::NodeId node = net::kInvalidNode;
  std::uint8_t ep = 0;

  friend bool operator==(const EndpointAddr&, const EndpointAddr&) = default;
};

/// Completion status delivered to the user library.
struct Status {
  bool ok = true;
  bool truncated = false;
  std::size_t len = 0;  // bytes actually transferred
  AbortCause cause = AbortCause::kNone;  // why it failed; kNone iff ok

  /// A failed completion. A receive with no region to land a rendezvous in
  /// failed because the message did not fit it, so it is also truncated.
  [[nodiscard]] static Status aborted(AbortCause c) noexcept {
    return Status{false, c == AbortCause::kNoRegion, 0, c};
  }
};

using Completion = std::function<void(Status)>;

/// One Open-MX endpoint: the driver-side object holding the pin manager
/// (which owns the declared regions) and the MXoE protocol state machines
/// (paper §2.2, §3). Every pinning decision (the pin mode, whether a pin
/// overlaps the communication) is the pin manager's: the endpoint hands it
/// each request's blocking hint, and its data paths ask only whether the
/// bytes they touch are accessible.
///
/// All packet handling runs in bottom-half context on the NIC's interrupt
/// core — the stack is interrupt-driven, which is exactly why buffers must
/// be pinned (§2.2: "many incoming packets are not processed in the context
/// of the target process"). Submission paths (`isend*`, `irecv`) are entered
/// from process context; the library charges the syscall cost before calling
/// them.
class Endpoint {
 public:
  /// Bytes per pull block request (MXoE uses 32 kB blocks).
  static constexpr std::size_t kPullBlock = 32 * 1024;
  /// Pull blocks kept outstanding by the receiver.
  static constexpr std::size_t kPullWindow = 2;

  Endpoint(Driver& driver, std::uint8_t id, mem::AddressSpace& as,
           cpu::Core& process_core);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- region ioctls (called by the user-space library) --------------------

  /// Declares a (possibly vectorial) region through the pin manager, which
  /// decides whether and when it pins. Declaration of invalid segments
  /// *succeeds*; the failure surfaces at communication time (paper §3.1).
  [[nodiscard]] RegionId declare_region(std::vector<Segment> segments);

  /// Destroys a declared region, dropping any pins it still holds.
  void undeclare_region(RegionId id);

  [[nodiscard]] Region* find_region(RegionId id);

  // --- communication ioctls -------------------------------------------------

  /// Small-message send: data is gathered out of the (possibly vectorial)
  /// user buffer into frames at submission (through the page table; no
  /// pinning). A zero-length message is an empty segment list. Returns the
  /// send sequence id usable with cancel_send().
  std::uint32_t isend_eager(EndpointAddr dest, std::uint64_t match,
                            std::span<const Segment> segments,
                            Completion done);
  std::uint32_t isend_eager(EndpointAddr dest, std::uint64_t match,
                            mem::VirtAddr buf, std::size_t len,
                            Completion done);

  /// Large-message send over the rendezvous/pull protocol. The region must
  /// be declared; the pin manager decides how it pins.
  /// `blocking_hint` tells the driver whether the application will block on
  /// this request (§6: overlap may be restricted to blocking operations).
  /// Returns the send sequence id usable with cancel_send().
  std::uint32_t isend_rndv(EndpointAddr dest, std::uint64_t match,
                           RegionId region, std::size_t len, Completion done,
                           bool blocking_hint = true);

  /// Posts a receive into a (possibly vectorial) buffer. `region` is the
  /// declared region backing it for large messages (kInvalidRegion when the
  /// caller expects only eager traffic). An incoming message matches when
  /// (incoming & mask) == (match & mask). Returns a request id usable with
  /// cancel_recv().
  std::uint64_t irecv(std::uint64_t match, std::uint64_t mask,
                      SegmentList segments, RegionId region,
                      Completion done, bool blocking_hint = true);
  std::uint64_t irecv(std::uint64_t match, std::uint64_t mask,
                      mem::VirtAddr buf, std::size_t len, RegionId region,
                      Completion done, bool blocking_hint = true);

  /// Cancels a posted receive that has not matched yet (MX semantics: a
  /// matched receive is too late to cancel). On success the completion fires
  /// with ok=false and len=0, and true is returned.
  bool cancel_recv(std::uint64_t recv_id);

  /// Cancels a send whose first frame has not left yet (still pinning or
  /// queued behind the copy). Too late once anything was transmitted.
  bool cancel_send(std::uint32_t seq);

  // --- driver-internal entry points ----------------------------------------

  /// Packet dispatch; runs in BH context on the irq core.
  void handle_packet(net::NodeId src_node, Packet&& pkt);

  // --- crash/restart lifecycle ----------------------------------------------

  /// Crash teardown, called by Host::kill_process before the MMU-notifier
  /// sweep: every in-flight send, pull, posted receive and reassembly record
  /// dies right here, completions fire with ok=false, and nothing touches
  /// the wire — a dead process sends no aborts. Normal destruction stays
  /// silent; only the explicit crash path emits.
  void fail_all_inflight();

  /// Fails outstanding sends/pulls whose peer is `node` (all its endpoints
  /// when `peer_ep` is negative) with `cause`: peer_dead on the watchdog's
  /// missed-heartbeat verdict, peer_restarted on an epoch change.
  void fail_requests_to(net::NodeId node, int peer_ep, AbortCause cause);

  /// A remote endpoint was reincarnated (or closed): fail what is still
  /// outstanding to the old incarnation and flush its duplicate-suppression
  /// and reassembly state — the new incarnation restarts its seq space, so
  /// stale "already completed" records would wrongly suppress fresh traffic.
  void on_peer_restarted(net::NodeId node, std::uint8_t peer_ep);

  /// Incarnation number stamped into every outgoing frame (src_epoch);
  /// assigned by the driver when the slot opens. Reseeds the retransmit
  /// timer spread, so each incarnation draws its own instants.
  void set_epoch(std::uint8_t e) noexcept;
  [[nodiscard]] std::uint8_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] std::uint8_t id() const noexcept { return id_; }
  [[nodiscard]] EndpointAddr addr() const noexcept;
  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] PinManager& pin_manager() noexcept { return pins_; }
  [[nodiscard]] cpu::Core& process_core() noexcept { return process_core_; }

  /// Core this endpoint's bottom halves run on: the process core under
  /// distributed interrupts, otherwise the NIC's irq core.
  [[nodiscard]] cpu::Core& bh_core() noexcept;
  [[nodiscard]] mem::AddressSpace& address_space() noexcept { return as_; }
  [[nodiscard]] Driver& driver() noexcept { return driver_; }

  /// Number of in-flight send/recv requests (drained == 0); used by tests.
  [[nodiscard]] std::size_t inflight() const noexcept;

 private:
  // ---- send side -----------------------------------------------------------

  struct SendRequest {
    std::uint32_t seq = 0;
    EndpointAddr dest;
    std::uint64_t match = 0;
    std::size_t len = 0;
    bool transmitted = false;  // any frame already left (limits cancel)
    Completion done;
    // Eager state.
    bool eager = false;
    std::vector<std::byte> eager_data;  // kernel copy, for retransmission
    // Rendezvous state.
    RegionId region = kInvalidRegion;
    bool rndv_sent = false;
    bool pull_seen = false;  // first PULL acks the RNDV
    bool pulled = false;     // a PULL was served since the last RTO tick
    int retries = 0;         // RTO ticks so far: the backoff exponent
    int idle_ticks = 0;      // ticks without a PULL: the retry budget spent
    sim::Engine::EventId rto{};

    /// The kernel copy goes back to the byte pool (ObjectPool contract).
    void reset() {
      net::frame_buffers().release(std::move(eager_data));
      *this = SendRequest{};
    }
  };

  // ---- receive side ---------------------------------------------------------

  struct RecvRequest {
    std::uint64_t match = 0;
    std::uint64_t mask = 0;
    SegmentList segments;       // vectorial user buffer
    std::size_t total_len = 0;  // sum of segment lengths
    RegionId region = kInvalidRegion;
    std::uint64_t id = 0;  // for cancellation
    bool blocking_hint = true;
    Completion done;

    void reset() { mem::reset_keeping(*this, &RecvRequest::segments); }
  };

  /// Reassembly / matching record for a message whose first packet arrived.
  /// Matching is decided at first-packet arrival to preserve MPI ordering.
  struct InboundMsg {
    std::uint32_t id = 0;  // unique per endpoint, for deferred re-finds
    bool rndv = false;
    net::NodeId peer_node = net::kInvalidNode;
    std::uint8_t peer_ep = 0;
    std::uint32_t seq = 0;
    std::uint64_t match = 0;
    std::size_t msg_len = 0;
    // Eager-specific.
    std::size_t bytes_received = 0;
    // Offsets seen, for dup suppression; a few fit inline.
    sim::SmallVector<std::uint32_t, 4> frags_seen;
    std::vector<std::byte> kernel_buffer;  // only when unexpected; pooled
    bool bound = false;                    // matched to a posted recv
    bool acked = false;                    // EAGER_ACK already sent
    RecvRequest recv;                      // valid when bound
    // Rendezvous-specific.
    std::uint32_t sender_region = kInvalidRegion;

    /// The staging copy goes back to the byte pool (ObjectPool contract).
    void reset() {
      net::frame_buffers().release(std::move(kernel_buffer));
      mem::reset_keeping(*this, &InboundMsg::frags_seen);
    }
  };

  /// Block i of a pull covers message bytes [i * kPullBlock, +block_len(i)),
  /// one bit per frame in each mask (the Driver caps a block at 64 frames).
  struct PullBlock {
    std::uint64_t unseen = 0;    // frames not arrived on the wire yet
    std::uint64_t uncopied = 0;  // frames not copied into the region yet
    bool requested = false;
    bool awaiting_pins = false;  // a pin-frontier waiter will re-pull it
    sim::Time last_request = 0;

    /// Every frame copied. A frame is seen before it is copied, so a
    /// complete block has none unseen either.
    [[nodiscard]] bool complete() const { return uncopied == 0; }
  };

  /// Receiver-side large-message transfer (one per matched rendezvous).
  struct PullState {
    std::uint32_t handle = 0;
    net::NodeId peer_node = net::kInvalidNode;
    std::uint8_t peer_ep = 0;
    std::uint32_t sender_seq = 0;
    std::uint32_t sender_region = kInvalidRegion;
    std::size_t msg_len = 0;     // bytes actually pulled (after truncation)
    std::size_t full_len = 0;    // sender's message length
    RecvRequest recv;
    Region* region = nullptr;
    std::vector<PullBlock> blocks;
    std::size_t next_block = 0;
    std::size_t blocks_done = 0;
    std::size_t first_incomplete = 0;  // blocks before it are all complete
    std::size_t requested_incomplete = 0;
    std::size_t frames_received = 0;  // arrived on the wire, every block
    bool started = false;  // pulls flowing (pin gate passed)
    bool done = false;     // data complete, NOTIFY (re)transmitting
    int notify_retries = 0;
    int stall_ticks = 0;   // consecutive progress-free pull-retry ticks
    std::size_t last_progress = 0;  // frames received at the last rto tick
    sim::Engine::EventId rto{};

    [[nodiscard]] std::size_t block_len(std::size_t i) const {
      return std::min(kPullBlock, msg_len - i * kPullBlock);
    }

    void reset() { mem::reset_keeping(*this, &PullState::blocks); }
  };

  using InboundPtr = mem::ObjectPool<InboundMsg>::Ptr;

  friend struct EndpointNotifier;

  // Submission helpers.
  void transmit_eager(std::uint32_t seq);
  void send_rndv_frame(SendRequest& req);
  void arm_send_rto(SendRequest& req);

  // The abort exits: every ok=false completion of this endpoint leaves
  // through abort_send or abort_recv, which count the abort under `cause`.
  // An ABORT packet leaves when the cause tells the peer (counters.hpp) and
  // the peer knows the request: a send whose RNDV went out, any pull.

  /// Fails send `seq` (a no-op when it is gone): emits kSendAbort, sends
  /// the ABORT if due, drops the region use, completes the request.
  void abort_send(std::uint32_t seq, AbortCause cause);

  /// Tears down pull `handle` (a no-op when it is gone): sends the ABORT if
  /// due, drops the region use, emits kRecvAbort and fails its receive. A
  /// pull whose data was already delivered only loses its NOTIFY handshake.
  void abort_pull(std::uint32_t handle, AbortCause cause);

  /// Fails one receive: counts the abort and completes it.
  void abort_recv(const RecvRequest& recv, AbortCause cause);

  /// Exponential backoff: base retransmit timeout doubled per retry already
  /// burned, capped at `retransmit_backoff_max`.
  [[nodiscard]] sim::Time backoff_timeout(int retries) const;

  /// The instant a retransmit timer of nominal timeout `t` waits: t + u,
  /// u uniform in [0, t / kTimerSpreadDivisor) from this incarnation's
  /// seeded stream. Never earlier than `t`, so endpoints that lost frames
  /// in one collision spread their retries instead of colliding again.
  [[nodiscard]] sim::Time spread(sim::Time t);

  // Packet handlers (BH context), one per PINSIM_PACKET_TYPES row:
  // handle_packet visits the body onto them, so a row without a handler
  // does not compile.
  void on_packet(net::NodeId src, std::uint8_t src_ep, EagerBody&& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep,
                 const EagerAckBody& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep, const RndvBody& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep, const PullBody& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep, PullReplyBody&& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep, const NotifyBody& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep,
                 const NotifyAckBody& body);
  void on_packet(net::NodeId src, std::uint8_t src_ep, const AbortBody& body);

  // Eager receive plumbing.
  /// Writes `data` at message offset `offset` into the request's (possibly
  /// vectorial) buffer through the page table, clipped to the posted size.
  void scatter_to_user(const RecvRequest& recv, std::size_t offset,
                       std::span<const std::byte> data);
  void eager_deliver_frag(InboundMsg& msg, std::uint32_t frag_offset,
                          DataChunk&& data);
  void finish_eager_inbound(InboundMsg& msg);
  /// Removes `msg` from the inbound list, handing back its lease.
  [[nodiscard]] InboundPtr take_inbound(InboundMsg& msg);
  void complete_recv(const RecvRequest& recv, Status st);

  // Pull machinery.
  void start_pull(InboundMsg&& rndv_msg, RecvRequest recv);
  void begin_pull_requests(PullState& ps);
  void request_block(PullState& ps, std::size_t block_idx);
  void pump_pull_window(PullState& ps);
  void maybe_optimistic_rerequest(PullState& ps, std::size_t arrived_block);

  /// §3.3 drop-on-miss recovery, fast path: the side that dropped a packet
  /// because its own page was not pinned yet *knows* it did, so it waits on
  /// its region's pin frontier (PinManager::when_pinned) and retries the
  /// moment the pages are pinned ("it is resent almost immediately most of
  /// the times", §4.3). The coarse pull retry timer stays as the backstop
  /// when pinning itself is starved. At most one waiter per (pull, block)
  /// on each side: the receiver re-pulls the block, the sender re-serves
  /// the whole PULL.
  void repull_when_pinned(PullState& ps, std::size_t block_idx);
  void reserve_when_pinned(net::NodeId src, std::uint8_t src_ep,
                           const PullBody& body, Region& region);
  void finish_pull(PullState& ps);
  void send_notify(PullState& ps);
  void arm_pull_rto(PullState& ps);
  void destroy_pull(std::uint32_t handle);

  // Copy-charging helpers: run `after` once the copy cost has been paid
  // (CPU bottom half or I/OAT channel). `after` runs after an arbitrary
  // queueing delay, so callers pass it through guarded(); wrapping the
  // closure before type erasure keeps it inline in the UniqueFunction.
  void charge_rx_copy(std::size_t bytes, sim::UniqueFunction after);

  /// PULL_REPLY frames in a full pull block.
  [[nodiscard]] std::size_t frames_per_block() const;

  // Frame assembly/transmission. `priority` is BH for packet-driven sends
  // and kernel for process-context submissions.
  void send_packet(EndpointAddr dest, PacketBody body, cpu::Priority priority,
                   sim::Time extra_cost = 0);

  /// A typed event of `kind` from this endpoint (node and ep filled in).
  [[nodiscard]] obs::Event ev(obs::EventKind kind) const;

  /// Hands `e` to the driver's observability relay; a no-op (one pointer
  /// compare) with no bus attached.
  void obs_emit(const obs::Event& e);

  /// Emits a data-movement event (a copy or an overlap miss) of `len` bytes
  /// at `offset` in `region`, bound to its send or pull chain by `seq`.
  void emit_data(obs::EventKind kind, EndpointAddr peer, std::uint32_t seq,
                 RegionId region, std::uint64_t offset, std::size_t len);

  /// An overlap miss (§3.3): counts the dropped frame and emits `kind`.
  void overlap_miss(obs::EventKind kind, EndpointAddr peer, std::uint32_t seq,
                    RegionId region, std::uint64_t offset, std::size_t len);

  [[nodiscard]] bool match_ok(const RecvRequest& r, std::uint64_t match) const {
    return (r.match & r.mask) == (match & r.mask);
  }

  /// Remembers a completed inbound message id for duplicate suppression
  /// (bounded memory).
  void remember_completed(std::uint64_t key);
  [[nodiscard]] bool is_completed(std::uint64_t key) const;

  /// Wraps a timer/core-queue callback so it turns into a no-op once this
  /// endpoint is destroyed. Closures capturing `this` can outlive the
  /// endpoint inside the engine's event queue or a core's run queue; an
  /// endpoint closed mid-transfer must not let them fire into freed memory.
  template <typename F>
  [[nodiscard]] auto guarded(F f) {
    return [weak = std::weak_ptr<void>(alive_),
            fn = std::move(f)](auto&&... args) mutable {
      if (weak.expired()) return;
      fn(std::forward<decltype(args)>(args)...);
    };
  }
  [[nodiscard]] static std::uint64_t inbound_key(net::NodeId node,
                                                 std::uint8_t ep,
                                                 std::uint32_t seq,
                                                 bool rndv);

  /// Liveness token for guarded() closures; reset first thing in ~Endpoint.
  std::shared_ptr<void> alive_ = std::make_shared<char>();

  Driver& driver_;
  std::uint8_t id_;
  std::uint8_t epoch_ = 1;  // stamped by the driver at open
  sim::Rng timer_rng_;      // seeded by (node, id, epoch) in set_epoch
  mem::AddressSpace& as_;
  cpu::Core& process_core_;
  Counters counters_;
  PinManager pins_;
  std::unique_ptr<mem::MmuNotifier> notifier_;

  // Request tables are sorted flat maps (deterministic ascending iteration,
  // no per-entry allocation) over pooled nodes: a SendRequest/PullState must
  // keep a stable address across reentrant completions that insert into the
  // table, and the pools recycle the nodes so steady-state traffic stops
  // allocating. Pools are declared before the tables that hold their nodes.
  mem::ObjectPool<SendRequest> send_pool_;
  mem::ObjectPool<PullState> pull_pool_;
  mem::ObjectPool<RecvRequest> recv_pool_;
  mem::ObjectPool<InboundMsg> inbound_pool_;

  sim::FlatMap<std::uint32_t, mem::ObjectPool<SendRequest>::Ptr> sends_;
  std::uint32_t next_send_seq_ = 1;

  // Posted receives and inbound messages, each in arrival order (MPI
  // matching order) over pooled nodes: erasing a lease keeps the order, and
  // the vectors keep their capacity, so steady traffic does not allocate.
  std::vector<mem::ObjectPool<RecvRequest>::Ptr> posted_;
  std::uint64_t next_recv_id_ = 1;
  std::vector<InboundPtr> inbound_;  // unmatched or in-progress inbound msgs
  std::uint32_t next_inbound_id_ = 1;
  sim::FlatMap<std::uint32_t, mem::ObjectPool<PullState>::Ptr> pulls_;
  std::uint32_t next_pull_handle_ = 1;

  sim::HashSet completed_;
  sim::Ring<std::uint64_t> completed_fifo_;
  // Sender waiters pending per (pull handle, block), with the region they
  // wait on: undeclaring it drops them uncalled.
  sim::FlatMap<std::uint64_t, RegionId> pending_reserves_;
};

}  // namespace pinsim::core
