#pragma once

#include <cstdint>

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
    "regions shed for another tenant")                                       \
  X("tenant", tenant_floor_protected, "floor_protected",                     \
    "times the fair-share floor shielded this tenant's pins")

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

inline constexpr CounterRow kCounterRows[] = {
#define PINSIM_COUNTER_ROW(section, member, label, doc) \
  {section, #member, label, &Counters::member},
    PINSIM_COUNTERS(PINSIM_COUNTER_ROW)
#undef PINSIM_COUNTER_ROW
};

}  // namespace pinsim::core
