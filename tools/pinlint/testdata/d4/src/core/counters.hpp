#pragma once

#include <cstdint>

// pinlint fixture: a counter table in the repo's X-macro form. D4 reads the
// rows and checks that something under src/ increments each one. Never
// compiled.
#define PINSIM_COUNTERS(X)                                            \
  X("pinning", pin_ops, "ops", "bumped with ++: clean")               \
  X("pinning", pages_pinned, "pages", "bumped with +=: clean")        \
  X("pinning", never_incremented, "never", "nothing bumps it: fires") \
  X("pinning", only_read, "read", "read but never bumped: fires")

struct Counters {
#define PINSIM_COUNTER_MEMBER(section, member, label, doc) \
  std::uint64_t member = 0;
  PINSIM_COUNTERS(PINSIM_COUNTER_MEMBER)
#undef PINSIM_COUNTER_MEMBER
};
