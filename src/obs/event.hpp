#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "sim/time.hpp"

namespace pinsim::obs {

/// The field of an `Event` a kind's table row names (see
/// PINSIM_EVENT_KINDS); the enumerators are spelled like the fields they
/// read so a row reads as the kind's payload.
enum class EventSlot : std::uint8_t {
  none, peer, pkt, seq, region, offset, len
};

/// The event-kind table: every kind the stack emits, one row per kind,
/// `X(enumerator, name, slot_a, a_name, slot_b, b_name, slot_c, c_name)`:
///  - enumerator: the `EventKind` value;
///  - name:       `event_kind_name`, the snake_case name every exporter
///                prints (Chrome trace, flight recorder, `describe`);
///  - slot_a/b/c: up to three `EventSlot` fields a post-mortem reader needs,
///                each with the name it goes by ("" for none). They are the
///                kind's field documentation, the words the flight recorder
///                keeps per entry and the keys its dump prints.
/// Every kind also carries time, node and ep, and may point `label` at a
/// static string. An emitter may fill more fields than its row names (a
/// copy's or miss's frame `len`, and `peer_ep`, for the sinks that follow
/// chains); a field no emitter sets is in no row. `EventKind`, its
/// names and `kEventKindRows` are generated from this list, so a kind is
/// declared, named and encoded by writing its row once.
#define PINSIM_EVENT_KINDS(X)                                                \
  /* Wire / driver: peer is the remote node, pkt the PacketType. */          \
  X(kPktTx, "pkt_tx", peer, "peer", pkt, "pkt", none, "")                    \
  X(kPktRx, "pkt_rx", peer, "peer", pkt, "pkt", none, "")                    \
  X(kPktChecksumDrop, "pkt_checksum_drop", peer, "peer", none, "", none, "") \
  X(kPktMalformed, "pkt_malformed", peer, "peer", none, "", none, "")        \
  /* Send side. An abort carries its core::AbortCause code in len and its */ \
  /* name in label; a retransmit its retry count in offset. */               \
  X(kEagerPost, "eager_post", seq, "seq", peer, "peer", len, "len")          \
  X(kRndvPost, "rndv_post", seq, "seq", peer, "peer", len, "len")            \
  X(kSendDone, "send_done", seq, "seq", peer, "peer", len, "len")            \
  X(kSendAbort, "send_abort", seq, "seq", peer, "peer", len, "cause")        \
  X(kRetransmit, "retransmit", seq, "seq", peer, "peer", offset, "retries")  \
  /* Receive-side pull: seq is the pull handle. */                           \
  X(kPullStart, "pull_start", seq, "handle", offset, "sender_seq", len,      \
    "len")                                                                   \
  X(kPullBlockReq, "pull_block_req", seq, "handle", offset, "offset", len,   \
    "len")                                                                   \
  X(kPullRetry, "pull_retry", seq, "handle", offset, "sender_seq", len,      \
    "stall_ticks")                                                           \
  X(kRecvDone, "recv_done", seq, "handle", offset, "sender_seq", len, "len") \
  X(kRecvAbort, "recv_abort", seq, "handle", offset, "sender_seq", len,      \
    "cause")                                                                 \
  /* Overlap misses (paper §3.3) and data movement. */                       \
  X(kOverlapMissSend, "overlap_miss_send", seq, "seq", region, "region",     \
    offset, "offset")                                                        \
  X(kOverlapMissRecv, "overlap_miss_recv", seq, "handle", region, "region",  \
    offset, "offset")                                                        \
  X(kCopyIn, "copy_in", seq, "handle", region, "region", offset, "offset")   \
  X(kCopyOut, "copy_out", seq, "seq", region, "region", offset, "offset")    \
  X(kDmaCopy, "dma_copy", len, "bytes", none, "", none, "")                  \
  /* Pin state machine of one region (frontier and total in pages). */       \
  X(kPinReset, "pin_reset", region, "region", offset, "frontier_pages",      \
    len, "total_pages")                                                      \
  X(kPinStart, "pin_start", region, "region", offset, "frontier_pages",      \
    len, "total_pages")                                                      \
  X(kPinPages, "pin_pages", region, "region", offset, "frontier_pages",      \
    len, "total_pages")                                                      \
  X(kPinShrink, "pin_shrink", region, "region", offset, "frontier_pages",    \
    len, "total_pages")                                                      \
  X(kPinRetry, "pin_retry", region, "region", offset, "frontier_pages",      \
    len, "total_pages")                                                      \
  X(kPinRestart, "pin_restart", region, "region", offset, "frontier_pages",  \
    len, "total_pages")                                                      \
  X(kPinInvalidate, "pin_invalidate", region, "region", seq, "cut_slot",     \
    len, "total_pages")                                                      \
  X(kPinDone, "pin_done", region, "region", offset, "frontier_pages",        \
    len, "total_pages")                                                      \
  X(kPinFail, "pin_fail", region, "region", offset, "frontier_pages",        \
    len, "total_pages")                                                      \
  X(kPinShed, "pin_shed", region, "region", offset, "frontier_pages",        \
    len, "total_pages")                                                      \
  X(kPinUnpin, "pin_unpin", region, "region", offset, "frontier_pages",      \
    len, "total_pages")                                                      \
  /* Memory-pressure injection: the label says what happened. */             \
  X(kPressureDeny, "pressure_deny", none, "", none, "", none, "")            \
  X(kPressureSweep, "pressure_sweep", none, "", none, "", none, "")          \
  X(kPressureMigrate, "pressure_migrate", none, "", none, "", none, "")      \
  X(kPressureCow, "pressure_cow", none, "", none, "", none, "")              \
  /* Network fault injection: node is the frame's source. */                 \
  X(kFaultDrop, "fault_drop", peer, "peer", none, "", len, "len")            \
  X(kFaultCorrupt, "fault_corrupt", peer, "peer", none, "", len, "len")      \
  X(kFaultDup, "fault_dup", peer, "peer", none, "", len, "len")              \
  X(kFaultReorder, "fault_reorder", peer, "peer", none, "", len, "len")      \
  /* Component lifecycle. A crash also carries the pages its notifier */     \
  /* sweep reclaimed in region; the invariant checker proves that the */     \
  /* pinned pages after the sweep equal the non-tenant baseline. A link */   \
  /* event's node is the fabric port. */                                     \
  X(kLifeCrash, "life_crash", offset, "pinned_after_sweep", len, "baseline", \
    seq, "epoch")                                                            \
  X(kLifeRestart, "life_restart", seq, "epoch", none, "", none, "")          \
  X(kLifeLinkDown, "life_link_down", none, "", none, "", none, "")           \
  X(kLifeLinkUp, "life_link_up", none, "", none, "", none, "")               \
  X(kLifeNicReset, "life_nic_reset", len, "tx_dropped", none, "", none, "")  \
  X(kLifePeerDead, "life_peer_dead", peer, "peer", none, "", none, "")       \
  X(kLifePeerAlive, "life_peer_alive", peer, "peer", none, "", none, "")     \
  X(kLifeFence, "life_fence", seq, "epoch", none, "", none, "")              \
  /* Cluster switch fabric (net/topology.hpp): node is the switch port, */   \
  /* pkt is 1 on uplink ports; the invariant checker asserts depth <= */     \
  /* capacity. */                                                            \
  X(kNetPortQueue, "net_port_queue", pkt, "uplink", offset, "depth", len,    \
    "capacity")                                                              \
  X(kNetPortTx, "net_port_tx", pkt, "uplink", offset, "serialization_ns",    \
    len, "wire_bytes")                                                       \
  X(kNetCongestionDrop, "net_congestion_drop", pkt, "uplink", peer, "dst",   \
    len, "wire_bytes")

/// Every event kind the stack emits, one per PINSIM_EVENT_KINDS row. One
/// enum across layers so sinks can switch on it without string matching.
enum class EventKind : std::uint8_t {
#define PINSIM_EVENT_ENUM(kind, name, a, an, b, bn, c, cn) kind,
  PINSIM_EVENT_KINDS(PINSIM_EVENT_ENUM)
#undef PINSIM_EVENT_ENUM
};

/// One generated row of the event-kind table, indexed by kind.
struct EventKindRow {
  const char* name;
  EventSlot slot[3];
  const char* slot_name[3];  // "" where the slot is none
};

inline constexpr EventKindRow kEventKindRows[] = {
#define PINSIM_EVENT_ROW(kind, name, a, an, b, bn, c, cn) \
  {name, {EventSlot::a, EventSlot::b, EventSlot::c}, {an, bn, cn}},
    PINSIM_EVENT_KINDS(PINSIM_EVENT_ROW)
#undef PINSIM_EVENT_ROW
};

[[nodiscard]] constexpr const EventKindRow& event_kind_row(
    EventKind k) noexcept {
  return kEventKindRows[static_cast<std::size_t>(k)];
}

/// The kind's snake_case name (Chrome trace, flight recorder, `describe`).
[[nodiscard]] constexpr const char* event_kind_name(EventKind k) noexcept {
  return event_kind_row(k).name;
}

/// The code of core::AbortCause::kPeerDead, the cause a kLifePeerDead counts
/// as (the flight recorder's expected-abort set); core asserts the match.
inline constexpr std::uint8_t kPeerDeadCause = 8;

/// Sender-side identity of one message chain: every hop of a rendezvous or
/// eager transfer — post, pulls, retransmissions, completion — shares the
/// (origin node, origin endpoint, send seq) triple. The Chrome-trace writer
/// uses it as the flow/async id; the critical-path analyzer as the chain
/// key. Receiver-side events name the same chain through (peer, peer_ep,
/// sender seq).
[[nodiscard]] inline std::uint64_t chain_key(std::uint32_t node,
                                             std::uint8_t ep,
                                             std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(node) << 40) |
         (static_cast<std::uint64_t>(ep) << 32) | seq;
}

/// One observed event: a small POD stamped with simulated time by the Bus.
/// Field meaning is per-kind (its PINSIM_EVENT_KINDS row); unused fields
/// stay 0. `label` must point at a string with static storage duration
/// (packet type names, literal reasons) — sinks may keep events past the
/// emitting call.
struct Event {
  sim::Time time = 0;
  EventKind kind = EventKind::kPktTx;
  std::uint8_t ep = 0;        // emitting endpoint id
  std::uint8_t peer_ep = 0;   // remote endpoint id (wire events)
  std::uint8_t pkt = 0;       // PacketType as integer (wire events)
  std::uint32_t node = 0;     // emitting node
  std::uint32_t peer = 0;     // remote node
  std::uint32_t region = 0;   // region id (pin/copy events)
  std::uint32_t seq = 0;      // send seq / pull handle / invalidation cut
  std::uint64_t offset = 0;   // byte offset / pinned frontier / retry count
  std::uint64_t len = 0;      // byte length / total pages
  const char* label = nullptr;
};

/// The value of the field `s` names (0 for none).
[[nodiscard]] constexpr std::uint64_t slot_value(const Event& e,
                                                 EventSlot s) noexcept {
  switch (s) {
    case EventSlot::none: return 0;
    case EventSlot::peer: return e.peer;
    case EventSlot::pkt: return e.pkt;
    case EventSlot::seq: return e.seq;
    case EventSlot::region: return e.region;
    case EventSlot::offset: return e.offset;
    case EventSlot::len: return e.len;
  }
  return 0;
}

/// One-line human rendering (invariant violation windows, debug dumps).
[[nodiscard]] std::string describe(const Event& e);

}  // namespace pinsim::obs
