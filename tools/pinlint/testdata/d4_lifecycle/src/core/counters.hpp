#pragma once

#include <cstdint>

// pinlint fixture: the lifecycle counters' D4 shape. A crash-history counter
// is *stamped* from the driver's slot state on restart (plain `=`), not
// bumped in place — D4 must accept that as an increment site. Never compiled.
#define PINSIM_COUNTERS(X)                                               \
  X("lifecycle", lifecycle_crashes, "crashes", "stamped via '='")        \
  X("lifecycle", lifecycle_restarts, "restarts", "stamped via '='")      \
  X("lifecycle", lifecycle_reclaimed_pages, "reclaimed_pages",           \
    "'=' stamp and '+=' sweep")                                          \
  X("lifecycle", fenced_stale_frames, "fenced", "classic '++'")          \
  X("lifecycle", heartbeat_timeouts, "hb_timeouts", "classic '++'")      \
  X("lifecycle", stale_epoch_probes, "probes", "nothing ever bumps it")

struct Counters {
#define PINSIM_COUNTER_MEMBER(section, member, label, doc) \
  std::uint64_t member = 0;
  PINSIM_COUNTERS(PINSIM_COUNTER_MEMBER)
#undef PINSIM_COUNTER_MEMBER
};
