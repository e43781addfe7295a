// pinlint fixture: event_kind_name names kA and kB but forgot
// kC. The switch itself has a default, so only the naming rule fires
// here. Never compiled.
#include "event.hpp"

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kA:
      return "a";
    case EventKind::kB:
      return "b";
    default:
      return "?";
  }
}
