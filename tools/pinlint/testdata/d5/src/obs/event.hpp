#pragma once

// pinlint fixture: an event-kind table in the repo's X-macro form. D5 reads
// the kinds from its rows and checks every switch over EventKind against
// them. Never compiled.
#define PINSIM_EVENT_KINDS(X)                     \
  X(kA, "a", peer, "peer", none, "", none, "")    \
  X(kB, "b", seq, "seq", none, "", len, "len")    \
  X(kC, "c", region, "region", offset, "offset", \
    len, "len")

enum class EventKind {
#define PINSIM_EVENT_ENUM(kind, name, a, an, b, bn, c, cn) kind,
  PINSIM_EVENT_KINDS(PINSIM_EVENT_ENUM)
#undef PINSIM_EVENT_ENUM
};
