#include "core/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "obs/json.hpp"

namespace pinsim::core {

namespace {

/// printf-style append onto `out`; the line grows to fit, so a long host or
/// core name cannot cut it short.
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

/// Builds one flat JSON object. All emission goes through the obs/json.hpp
/// helpers — the one escaping and number-formatting authority — so a host
/// or core name containing `"` or `\` cannot produce invalid JSON.
class JsonObject {
 public:
  void field(const char* key, std::uint64_t v) {
    start_member(key);
    out_ += obs::json_num(v);
  }
  void str_field(const char* key, std::string_view v) {
    start_member(key);
    out_ += obs::json_str(v);
  }
  [[nodiscard]] std::string close() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void start_member(const char* key) {
    if (out_.size() > 1) out_ += ',';
    out_ += obs::json_str(key);
    out_ += ':';
  }

  std::string out_ = "{";
};

[[nodiscard]] bool has_quota(Host& host) {
  return host.memory().pin_quota() != std::numeric_limits<std::size_t>::max();
}

}  // namespace

std::string format_report(Host::Process& p, Host& host) {
  const Counters& c = p.lib.counters();
  const auto& cache = p.lib.cache().stats();
  const auto& core_stats = p.core.stats();

  std::string out;
  appendf(out, "endpoint %u @ node %u\n", static_cast<unsigned>(p.ep.id()),
          static_cast<unsigned>(p.addr().node));
  // One line per table section: "  <section>: <label>=<value> ...".
  std::string_view section;
  const auto end_section = [&] {
    if (section == "overlap") {
      appendf(out, " (rate %.2e)", c.overlap_miss_rate());
    }
    out += '\n';
  };
  for (const CounterRow& row : kCounterRows) {
    if (section != row.section) {
      if (!section.empty()) end_section();
      section = row.section;
      out += "  ";
      out += section;
      out += ':';
    }
    out += ' ';
    out += row.label;
    out += '=';
    out += std::to_string(c.*row.member);
  }
  end_section();

  appendf(out, "  region cache: hits=%llu misses=%llu evictions=%llu "
               "live=%zu\n",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses),
          static_cast<unsigned long long>(cache.evictions),
          p.lib.cache().size());
  appendf(out, "  core '%s': bh=%.1fus kernel=%.1fus user=%.1fus "
               "idleq=%.1fus (util %.1f%%)\n",
          p.core.name().c_str(), sim::to_usec(core_stats.busy[0]),
          sim::to_usec(core_stats.busy[1]), sim::to_usec(core_stats.busy[2]),
          sim::to_usec(core_stats.busy[3]), p.core.utilization() * 100.0);
  // Host- and fabric-wide values, labelled as such: not per-endpoint.
  if (has_quota(host)) {
    appendf(out, "  host pinned pages now: %zu (quota %zu, denials %llu)\n",
            host.memory().pinned_pages(), host.memory().pin_quota(),
            static_cast<unsigned long long>(host.memory().quota_denials()));
  } else {
    appendf(out, "  host pinned pages now: %zu\n",
            host.memory().pinned_pages());
  }
  const net::Fabric& fabric = host.nic().fabric();
  appendf(out,
          "  fabric drops: fault=%llu congestion=%llu uplink_stranded=%llu\n",
          static_cast<unsigned long long>(fabric.fault_dropped()),
          static_cast<unsigned long long>(fabric.congestion_dropped()),
          static_cast<unsigned long long>(fabric.uplink_stranded()));
  return out;
}

std::string format_json_report(Host::Process& p, Host& host) {
  const Counters& c = p.lib.counters();
  const auto& cache = p.lib.cache().stats();

  JsonObject obj;
  obj.field("endpoint", p.ep.id());
  obj.field("node", p.addr().node);
  obj.str_field("host", host.config().name);
  obj.str_field("core", p.core.name());
  for (const CounterRow& row : kCounterRows) {
    obj.field(row.name, c.*row.member);
  }
  obj.field("cache_hits", cache.hits);
  obj.field("cache_misses", cache.misses);
  obj.field("cache_evictions", cache.evictions);
  return obj.close();
}

std::string format_json_host(Host& host) {
  JsonObject obj;
  obj.str_field("name", host.config().name);
  obj.field("node", host.nic().node_id());
  obj.field("pinned_pages", host.memory().pinned_pages());
  if (has_quota(host)) obj.field("pin_quota", host.memory().pin_quota());
  obj.field("quota_denials", host.memory().quota_denials());
  return obj.close();
}

std::string format_json_fabric(const net::Fabric& fabric) {
  JsonObject obj;
  obj.field("fault_dropped", fabric.fault_dropped());
  obj.field("congestion_dropped", fabric.congestion_dropped());
  obj.field("uplink_stranded", fabric.uplink_stranded());
  return obj.close();
}

}  // namespace pinsim::core
