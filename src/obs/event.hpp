#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace pinsim::obs {

/// Every event kind the stack emits. One enum across layers so sinks can
/// switch on it without string matching; `event_kind_name` gives each kind
/// the one name every exporter prints.
enum class EventKind : std::uint8_t {
  // Wire / driver.
  kPktTx,            // frame handed to the NIC
  kPktRx,            // frame decoded and dispatched to an endpoint
  kPktChecksumDrop,  // CRC mismatch, frame dropped
  kPktMalformed,     // undecodable frame dropped

  // Send-side protocol lifecycle. Both abort kinds carry the cause code
  // (core::AbortCause) in `len` and its name in `label`.
  kEagerPost,   // eager send posted (seq, len)
  kRndvPost,    // rendezvous send posted (seq, region, len)
  kSendDone,    // send completed ok (eager ack or notify)
  kSendAbort,   // send failed/aborted (len = cause code)
  kRetransmit,  // send retransmission timer fired (offset = retry count)

  // Receive-side pull lifecycle.
  kPullStart,     // pull transfer created (seq = handle, offset = sender seq)
  kPullBlockReq,  // PULL for one block (offset, len)
  kPullRetry,     // stalled pull re-requested (len = stall ticks)
  kRecvDone,      // pull transfer completed ok
  kRecvAbort,     // pull transfer aborted (len = cause code)

  // Overlap misses (paper §3.3) and data movement.
  kOverlapMissSend,  // sender could not serve a pull from unpinned pages
  kOverlapMissRecv,  // receiver dropped a reply landing on unpinned pages
  kCopyIn,           // bytes landed in a pinned region (region, offset, len)
  kCopyOut,          // bytes served from a pinned region
  kDmaCopy,          // I/OAT channel finished a copy (len = bytes)

  // Pin state machine (offset = pinned frontier in pages, len = total pages).
  kPinReset,       // failed region reset for retry
  kPinStart,       // pin job started
  kPinPages,       // chunk committed, frontier advanced
  kPinShrink,      // chunk shrunk to quota headroom
  kPinRetry,       // transient denial, backing off
  kPinRestart,     // invalidated mid-pin, restarting
  kPinInvalidate,  // MMU notifier truncated the frontier (seq = cut slot)
  kPinDone,        // fully pinned
  kPinFail,        // pin job failed
  kPinShed,        // pins shed under memory pressure
  kPinUnpin,       // all pins released

  // Memory-pressure injection.
  kPressureDeny,
  kPressureSweep,
  kPressureMigrate,
  kPressureCow,

  // Network fault injection.
  kFaultDrop,
  kFaultCorrupt,
  kFaultDup,
  kFaultReorder,

  // Component lifecycle (crash/restart injection, PR 7). For kLifeCrash,
  // `offset` is the host's pinned-page count after the reclaim sweep,
  // `len` the expected non-tenant baseline (the invariant checker proves
  // offset == len), `region` the pages the sweep reclaimed from the dying
  // tenant, and `seq` the dying incarnation's epoch.
  kLifeCrash,     // process killed; pins reclaimed via the notifier sweep
  kLifeRestart,   // process restarted (seq = new epoch)
  kLifeLinkDown,  // fabric port forced down (node = port)
  kLifeLinkUp,    // fabric port restored
  kLifeNicReset,  // NIC rings wiped mid-transfer (len = tx frames dropped)
  kLifePeerDead,  // watchdog declared a peer dead (peer = node)
  kLifePeerAlive, // watchdog heard the peer again
  kLifeFence,     // stale-epoch frame fenced at the driver (seq = frame epoch)

  // Cluster switch fabric (net/topology.hpp). `node` is the switch port id
  // (downlink ports share the destination node's id, uplink ports live in
  // a disjoint id range), `pkt` is 1 on uplink ports. For kNetPortQueue,
  // `offset` is the queue depth after the transition and `len` the port's
  // capacity (the invariant checker asserts offset <= len). For kNetPortTx,
  // `offset` is the serialization time in ns and `len` the wire bytes. For
  // kNetCongestionDrop, `peer` is the frame's destination node and `len`
  // its wire bytes.
  kNetPortQueue,       // egress queue depth changed (enqueue or drain)
  kNetPortTx,          // frame finished clocking out of a switch port
  kNetCongestionDrop,  // bounded egress queue overflowed; frame lost
};

/// The code of core::AbortCause::kPeerDead, the cause a kLifePeerDead counts
/// as (the flight recorder's expected-abort set); core asserts the match.
inline constexpr std::uint8_t kPeerDeadCause = 8;

/// The kind's snake_case name (Chrome trace, flight recorder, `describe`).
[[nodiscard]] const char* event_kind_name(EventKind k) noexcept;

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
/// Field meaning is per-kind (documented on the enum); unused fields stay 0.
/// `label` must point at a string with static storage duration (packet type
/// names, literal reasons) — sinks may keep events past the emitting call.
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

/// One-line human rendering (invariant violation windows, debug dumps).
[[nodiscard]] std::string describe(const Event& e);

}  // namespace pinsim::obs
