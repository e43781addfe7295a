#pragma once

#include <cstddef>

#if defined(__linux__)
#include <sched.h>
#endif

namespace pinsim::sim {

/// CPUs in this process's affinity mask: the cores set-up work may split
/// across and the obs bus may hand delivery to. 1 when the mask cannot be
/// read.
[[nodiscard]] inline std::size_t affinity_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return 1;
}

}  // namespace pinsim::sim
