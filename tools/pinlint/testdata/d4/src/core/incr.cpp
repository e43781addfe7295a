// pinlint fixture: the increment side of the D4 contract. Never compiled.
#include "counters.hpp"

void bump(Counters& c) {
  ++c.pin_ops;
  c.pages_pinned += 2;
}

unsigned long peek(const Counters& c) { return c.only_read; }
