#pragma once

#include <cstdint>

// pinlint fixture: counters declared as plain members, outside any
// PINSIM_COUNTERS table. D4 must say it found no rows, not pass silently.
// Never compiled.
struct Counters {
  std::uint64_t pin_ops = 0;
};
