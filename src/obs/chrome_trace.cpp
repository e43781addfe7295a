#include "obs/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <set>


namespace pinsim::obs {

namespace {

// Sender-side identity of a rendezvous chain, used as the flow/async id so
// every hop of one transfer shares an arc (same key the critical-path
// analyzer stitches chains with).
std::uint64_t send_flow_id(std::uint32_t node, std::uint8_t ep,
                           std::uint32_t seq) {
  return chain_key(node, ep, seq);
}

void append_common(std::string& out, const Event& e, const char* name,
                   const char* cat, const char* ph) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                "\"pid\":%u,\"tid\":%u,\"ts\":%.3f",
                name, cat, ph, e.node, static_cast<unsigned>(e.ep),
                static_cast<double>(e.time) / 1000.0);
  out += buf;
}

void append_id(std::string& out, std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, ",\"id\":\"0x%" PRIx64 "\"", id);
  out += buf;
}

void append_args(std::string& out, const Event& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"args\":{\"peer\":%u,\"peer_ep\":%u,\"region\":%u,"
                "\"seq\":%u,\"offset\":%" PRIu64 ",\"len\":%" PRIu64 "%s%s%s"
                "}}",
                e.peer, static_cast<unsigned>(e.peer_ep), e.region, e.seq,
                e.offset, e.len, e.label != nullptr ? ",\"label\":\"" : "",
                e.label != nullptr ? e.label : "",
                e.label != nullptr ? "\"" : "");
  out += buf;
}

void append_flow(std::string& out, const Event& e, const char* ph,
                 std::uint64_t id) {
  append_common(out, e, "rndv", "flow", ph);
  append_id(out, id);
  if (ph[0] == 't') out += ",\"bp\":\"e\"";
  out += "},\n";
}

}  // namespace

std::string ChromeTraceWriter::render() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

  // Track naming metadata: one process per node, one thread per endpoint.
  std::set<std::uint32_t> nodes;
  std::set<std::pair<std::uint32_t, std::uint8_t>> eps;
  for (const Event& e : events_) {
    nodes.insert(e.node);
    eps.insert({e.node, e.ep});
  }
  char buf[192];
  for (std::uint32_t n : nodes) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"node %u\"}},\n",
                  n, n);
    out += buf;
  }
  for (const auto& [n, ep] : eps) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"endpoint %u\"}},\n",
                  n, static_cast<unsigned>(ep), static_cast<unsigned>(ep));
    out += buf;
  }

  for (const Event& e : events_) {
    const char* name = event_kind_name(e.kind);
    switch (e.kind) {
      // Async spans: pin jobs (id = region) and transfers (id = chain).
      case EventKind::kPinStart:
        append_common(out, e, "pin", "pin", "b");
        append_id(out, send_flow_id(e.node, e.ep, e.region) | (1ull << 63));
        append_args(out, e);
        out += ",\n";
        break;
      case EventKind::kPinDone:
      case EventKind::kPinFail:
        append_common(out, e, "pin", "pin", "e");
        append_id(out, send_flow_id(e.node, e.ep, e.region) | (1ull << 63));
        append_args(out, e);
        out += ",\n";
        break;
      case EventKind::kRndvPost:
      case EventKind::kEagerPost:
        append_common(out, e, "send", "proto", "b");
        append_id(out, send_flow_id(e.node, e.ep, e.seq));
        append_args(out, e);
        out += ",\n";
        if (e.kind == EventKind::kRndvPost) {
          append_flow(out, e, "s", send_flow_id(e.node, e.ep, e.seq));
        }
        break;
      case EventKind::kSendDone:
      case EventKind::kSendAbort:
        append_common(out, e, "send", "proto", "e");
        append_id(out, send_flow_id(e.node, e.ep, e.seq));
        append_args(out, e);
        out += ",\n";
        append_flow(out, e, "f", send_flow_id(e.node, e.ep, e.seq));
        break;
      case EventKind::kPullStart:
        // The pull knows the sender-side chain: peer endpoint + sender seq
        // travel in the event, binding the receive to the rendezvous arc.
        append_common(out, e, "pull", "proto", "b");
        append_id(out, send_flow_id(e.peer, e.peer_ep,
                                    static_cast<std::uint32_t>(e.offset)) |
                           (1ull << 62));
        append_args(out, e);
        out += ",\n";
        append_flow(out, e, "t",
                    send_flow_id(e.peer, e.peer_ep,
                                 static_cast<std::uint32_t>(e.offset)));
        break;
      case EventKind::kRecvDone:
      case EventKind::kRecvAbort:
        append_common(out, e, "pull", "proto", "e");
        append_id(out, send_flow_id(e.peer, e.peer_ep,
                                    static_cast<std::uint32_t>(e.offset)) |
                           (1ull << 62));
        append_args(out, e);
        out += ",\n";
        break;
      case EventKind::kRetransmit:
        append_common(out, e, name, "proto", "i");
        out += ",\"s\":\"t\"";
        append_args(out, e);
        out += ",\n";
        append_flow(out, e, "t", send_flow_id(e.node, e.ep, e.seq));
        break;
      case EventKind::kPullRetry:
        append_common(out, e, name, "proto", "i");
        out += ",\"s\":\"t\"";
        append_args(out, e);
        out += ",\n";
        append_flow(out, e, "t",
                    send_flow_id(e.peer, e.peer_ep,
                                 static_cast<std::uint32_t>(e.offset)));
        break;
      default:
        append_common(out, e, name, "event", "i");
        out += ",\"s\":\"t\"";
        append_args(out, e);
        out += ",\n";
        break;
    }
  }

  // Trailing sentinel instant keeps the array well-formed after the last
  // comma without tracking "first element" state above. Stamped at the last
  // event's time so the rendered stream stays timestamp-ordered.
  const double end_ts =
      events_.empty() ? 0.0 : static_cast<double>(events_.back().time) / 1000.0;
  char tail[96];
  std::snprintf(tail, sizeof tail,
                "{\"name\":\"trace_end\",\"ph\":\"i\",\"pid\":0,\"tid\":0,"
                "\"ts\":%.3f,\"s\":\"g\"}\n]}\n",
                end_ts);
  out += tail;
  return out;
}

void ChromeTraceWriter::finalize() {
  if (written_ || path_.empty()) return;
  written_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write chrome trace to %s\n",
                 path_.c_str());
    return;
  }
  const std::string body = render();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace pinsim::obs
