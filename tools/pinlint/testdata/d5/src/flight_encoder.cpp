// pinlint fixture: a flight-recorder-style per-kind compact encoder whose
// defaultless switch misses kC — D5 keeps hand-written per-kind switches
// in lock-step with the table so a new kind cannot silently fall through.
// Never compiled.
#include "obs/event.hpp"

struct CompactEvent {
  int a = 0;
};

CompactEvent compact_encode(EventKind k) {
  CompactEvent ce;
  switch (k) {
    case EventKind::kA:
      ce.a = 1;
      break;
    case EventKind::kB:
      ce.a = 2;
      break;
  }
  return ce;
}
