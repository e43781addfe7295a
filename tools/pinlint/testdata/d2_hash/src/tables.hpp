#pragma once

#include "sim/hash_map.hpp"

struct Tables {
  pinsim::sim::HashMap<int> open;
  pinsim::sim::HashSet seen;
  int sum() const;
  int first_seen() const;
};
