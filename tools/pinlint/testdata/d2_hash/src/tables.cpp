// pinlint fixture: D2 over the simulator's open-addressing tables, whose
// slot order depends on the insert/erase history like bucket order does.
// Never compiled.
#include "tables.hpp"

int Tables::sum() const {
  int total = 0;
  for (const auto& [k, v] : open) total += v;  // range-for over a HashMap
  // pinlint: unordered-ok(counting is order-free)
  for (auto k : seen) total += k != 0 ? 1 : 0;
  return total;
}

int Tables::first_seen() const {
  auto it = seen.begin();  // iterator traversal of a HashSet
  return it == seen.end() ? 0 : 1;
}
