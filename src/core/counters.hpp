#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/event.hpp"

namespace pinsim::core {

/// The counter table: the one list of per-endpoint counters, one row per
/// counter, `X(section, member, label, doc)`:
///  - section: the text-report line the counter prints on; the rows of one
///    section are consecutive and print in table order;
///  - member:  the `Counters` field, also its key in the JSON endpoint row;
///  - label:   its `label=value` key on the text-report line;
///  - doc:     what it counts (read by people, not generated into code).
/// `Counters`, `kCounterRows` and both reports (core/report.cpp) are
/// generated from this list, so a counter is declared, printed and
/// serialized by writing its row once.
///
/// Every row is endpoint scope: one value per process and one key in each
/// `endpoints[]` row of the run report. Host-scope values (pinned pages,
/// pin quota, quota denials; owned by mem::PhysicalMemory) and fabric-scope
/// values (fault and congestion drops; owned by net::Fabric) are not
/// counters here: the run report emits them once per host and once per
/// fabric (`format_json_host`, `format_json_fabric`), never per endpoint.
#define PINSIM_COUNTERS(X)                                                   \
  X("protocol", eager_sent, "eager", "eager sends posted")                   \
  X("protocol", rndv_sent, "rndv", "rendezvous sends posted")                \
  X("protocol", pulls_sent, "pulls", "PULL requests sent")                   \
  X("protocol", pull_replies_sent, "replies", "PULL_REPLY frames sent")      \
  X("protocol", notifies_sent, "notifies", "NOTIFY frames sent")             \
  X("receive side", eager_completed, "eager_done", "eager receives done")    \
  X("receive side", rndv_received, "rndv_rx", "rendezvous receives done")    \
  X("reliability", pull_rerequests, "rerequests",                            \
    "optimistic gap-driven re-requests")                                     \
  X("reliability", retransmit_timeouts, "timeouts",                          \
    "retransmission timers that fired")                                      \
  X("reliability", duplicate_frames, "dups", "duplicate frames received")    \
  X("reliability", aborts, "aborts", "requests aborted")                     \
  X("faults", frames_corrupted, "corrupted", "frames that failed to decode") \
  X("faults", checksum_drops, "checksum_drops",                              \
    "checksum mismatch or bounds abuse")                                     \
  X("faults", duplicates_suppressed, "dup_suppressed",                       \
    "duplicate frames discarded side-effect-free")                           \
  X("faults", retry_exhausted, "retry_exhausted",                            \
    "requests given up after the retry budget")                              \
  X("faults", frames_dropped_on_miss, "miss_drops",                          \
    "replies dropped on a not-yet-pinned page")                              \
  X("pinning", pin_ops, "ops", "whole-region pin operations started")        \
  X("pinning", pages_pinned, "pages", "pages pinned")                        \
  X("pinning", unpin_ops, "unpins", "whole-region unpin operations")         \
  X("pinning", pages_unpinned, "pages_unpinned", "pages unpinned")           \
  X("pinning", repins, "repins", "regions pinned again after losing pins")   \
  X("pinning", pin_failures, "failures", "region pins that finally failed")  \
  X("invalidations", notifier_invalidations, "notifier",                     \
    "regions unpinned by the MMU notifier")                                  \
  X("invalidations", pressure_unpins, "pressure",                            \
    "regions unpinned for memory pressure")                                  \
  X("pressure", pins_denied, "denied", "page pins refused (quota/injected)") \
  X("pressure", pin_retries, "retries", "chunk retries after a denial")      \
  X("pressure", pin_retry_exhausted, "retry_exhausted",                      \
    "regions failed after the retry budget")                                 \
  X("pressure", pin_chunk_shrinks, "shrinks",                                \
    "chunks shrunk to the quota headroom")                                   \
  X("pressure", pin_fail_resets, "failed_resets",                            \
    "failed regions retried on next use")                                    \
  X("pressure", pin_inval_restarts, "inval_restarts",                        \
    "in-flight pin jobs restarted by a notifier invalidation")               \
  X("overlap", region_accesses, "accesses",                                  \
    "packet-driven reads/writes of regions")                                 \
  X("overlap", overlap_misses, "misses", "accesses to a not-yet-pinned page") \
  X("lifecycle", lifecycle_crashes, "crashes", "times this slot was killed") \
  X("lifecycle", lifecycle_restarts, "restarts", "times it came back")       \
  X("lifecycle", lifecycle_reclaimed_pages, "reclaimed_pages",               \
    "pins swept on those crashes")                                           \
  X("lifecycle", fenced_stale_frames, "fenced", "stale-epoch frames dropped") \
  X("lifecycle", heartbeat_timeouts, "hb_timeouts",                          \
    "peers declared dead by the watchdog")                                   \
  X("tenant", tenant_arb_requests, "arb_requests",                           \
    "headroom requests to the pin arbiter")                                  \
  X("tenant", tenant_arb_grants, "arb_grants",                               \
    "requests satisfied by shedding")                                        \
  X("tenant", tenant_sheds_suffered, "sheds_suffered",                       \
    "regions shed for another tenant")

/// The abort-cause table: why a request ended ok=false, one row per cause,
/// `X(enumerator, name, tells_peer, doc)`:
///  - enumerator: the `AbortCause` value; its code is the row's position
///    plus one (0 is kNone, the cause of every ok completion);
///  - name:       `abort_cause_name`, the label of its report counter
///    (`abort_<name>` in JSON) and of its kSendAbort/kRecvAbort event;
///  - tells_peer: the abort starts here while the peer still waits, so a
///    peer that knows the request gets an ABORT (Endpoint::abort_send and
///    abort_pull decide from this and the request's state);
///  - doc:        when it happens.
/// `AbortCause`, its name, one counter per cause and the two reports'
/// per-cause rows are generated from this list.
#define PINSIM_ABORT_CAUSES(X)                                               \
  X(kRetryBudget, retry_budget, true, "the send retransmit budget ran out")  \
  X(kPinFailed, pin_failed, true, "the region's pin job failed")             \
  X(kPullStall, pull_stall, true,                                            \
    "the pull made no progress for its stall budget")                        \
  X(kPinStarved, pin_starved, true,                                          \
    "a pull stall while the receive region is still pinning")                \
  X(kNoRegion, no_region, true, "the matched receive has no region")         \
  X(kBadAddress, bad_address, true, "the eager copy_from_user faulted")      \
  X(kRemoteAbort, remote_abort, false, "the peer sent ABORT")                \
  X(kPeerDead, peer_dead, false, "the watchdog declared the peer dead")      \
  X(kPeerRestarted, peer_restarted, false,                                   \
    "the peer's epoch changed or its slot closed")                           \
  X(kCrash, crash, false, "this process was killed")                         \
  X(kCancelled, cancelled, true, "the user cancelled the request")

enum class AbortCause : std::uint8_t {
  kNone,
#define PINSIM_ABORT_ENUM(cause, name, tells_peer, doc) cause,
  PINSIM_ABORT_CAUSES(PINSIM_ABORT_ENUM)
#undef PINSIM_ABORT_ENUM
};

/// Per-endpoint instrumentation, one member per `PINSIM_COUNTERS` row. The
/// §4.3 overlap-miss probability and the retransmission behaviour reported
/// in the paper are computed from these. Memory-pressure runs pass when
/// pins_denied and pin_retry_exhausted move and everything still ends in
/// clean completions or ok=false aborts. Crash history survives the
/// endpoint: the driver keeps per-slot lifecycle totals and stamps them
/// into the next incarnation's counters at open_endpoint.
struct Counters {
#define PINSIM_COUNTER_MEMBER(section, member, label, doc) \
  std::uint64_t member = 0;
  PINSIM_COUNTERS(PINSIM_COUNTER_MEMBER)
#undef PINSIM_COUNTER_MEMBER
  // One per abort cause; they sum to `aborts`.
#define PINSIM_ABORT_MEMBER(cause, name, tells_peer, doc) \
  std::uint64_t abort_##name = 0;
  PINSIM_ABORT_CAUSES(PINSIM_ABORT_MEMBER)
#undef PINSIM_ABORT_MEMBER

  /// §4.3's headline metric: fraction of packet-driven region accesses that
  /// found their page not pinned yet.
  [[nodiscard]] double overlap_miss_rate() const noexcept {
    return region_accesses == 0 ? 0.0
                                : static_cast<double>(overlap_misses) /
                                      static_cast<double>(region_accesses);
  }
};

/// One generated row of the counter table, for code that walks every
/// counter (the reports) instead of naming them.
struct CounterRow {
  const char* section;
  const char* name;
  const char* label;
  std::uint64_t Counters::*member;
};

/// Every `PINSIM_COUNTERS` row, then one "abort causes" row per cause.
inline constexpr CounterRow kCounterRows[] = {
#define PINSIM_COUNTER_ROW(section, member, label, doc) \
  {section, #member, label, &Counters::member},
    PINSIM_COUNTERS(PINSIM_COUNTER_ROW)
#undef PINSIM_COUNTER_ROW
#define PINSIM_ABORT_ROW(cause, name, tells_peer, doc) \
  {"abort causes", "abort_" #name, #name, &Counters::abort_##name},
    PINSIM_ABORT_CAUSES(PINSIM_ABORT_ROW)
#undef PINSIM_ABORT_ROW
};

/// One generated row of the abort-cause table, indexed by cause code.
struct AbortCauseRow {
  const char* name;
  bool tells_peer;
  std::uint64_t Counters::*counter;  // null for kNone
};

inline constexpr AbortCauseRow kAbortCauseRows[] = {
    {"none", false, nullptr},
#define PINSIM_ABORT_CAUSE_ROW(cause, name, tells_peer, doc) \
  {#name, tells_peer, &Counters::abort_##name},
    PINSIM_ABORT_CAUSES(PINSIM_ABORT_CAUSE_ROW)
#undef PINSIM_ABORT_CAUSE_ROW
};

[[nodiscard]] constexpr const AbortCauseRow& abort_cause_row(
    AbortCause c) noexcept {
  return kAbortCauseRows[static_cast<std::size_t>(c)];
}

[[nodiscard]] constexpr const char* abort_cause_name(AbortCause c) noexcept {
  return abort_cause_row(c).name;
}

/// The obs layer sits below core (pinlint D9) and cannot see this table;
/// the one code it must know is peer_dead, which a kLifePeerDead counts as.
static_assert(static_cast<std::uint8_t>(AbortCause::kPeerDead) ==
              obs::kPeerDeadCause);

}  // namespace pinsim::core
