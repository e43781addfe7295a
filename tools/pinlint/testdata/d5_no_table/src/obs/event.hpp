#pragma once

// pinlint fixture: event kinds declared as a plain enum, outside any
// PINSIM_EVENT_KINDS table. D5 must say it found no rows, not pass
// silently. Never compiled.
enum class EventKind { kA, kB, kC };
