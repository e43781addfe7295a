#pragma once

#include <string>

#include "core/host.hpp"
#include "net/fabric.hpp"

namespace pinsim::core {

/// Human-readable diagnostic block for one process: protocol counters,
/// pinning activity, region-cache behaviour and the core's time breakdown.
/// Examples and ad-hoc experiments print this instead of hand-rolling
/// printf choreography.
[[nodiscard]] std::string format_report(Host::Process& process, Host& host);

/// Machine-readable twin of `format_report`'s endpoint part: one JSON
/// object with the process identity (endpoint, node, host, core), one key
/// per counter-table row (core/counters.hpp) and the region-cache stats.
/// Host- and fabric-wide values are not repeated here; see below.
[[nodiscard]] std::string format_json_report(Host::Process& process,
                                             Host& host);

/// One JSON object for a host's host-scope values: name, node, pinned
/// pages, pin quota (only when finite) and quota denials.
[[nodiscard]] std::string format_json_host(Host& host);

/// One JSON object for the fabric-scope values: fault and congestion drops.
[[nodiscard]] std::string format_json_fabric(const net::Fabric& fabric);

}  // namespace pinsim::core
