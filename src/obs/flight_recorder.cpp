#include "obs/flight_recorder.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace pinsim::obs {

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config cfg)
    : cap_(cfg.capacity < 16 ? 16 : cfg.capacity),
      max_dumps_(cfg.max_dumps),
      dump_prefix_(std::move(cfg.dump_prefix)),
      expected_aborts_(cfg.expected_aborts) {
  ring_.resize(cap_);
}

FlightRecorder::CompactEvent FlightRecorder::compact_encode(
    const Event& e) noexcept {
  const EventKindRow& row = event_kind_row(e.kind);
  return {e.time,
          {slot_value(e, row.slot[0]), slot_value(e, row.slot[1]),
           slot_value(e, row.slot[2])},
          e.node,
          e.kind,
          e.ep};
}

void FlightRecorder::on_event(const Event& e) {
  if (held_ == cap_) ++dropped_;
  ring_[head_] = compact_encode(e);
  if (++head_ == cap_) head_ = 0;
  if (held_ < cap_) ++held_;
  ++recorded_;
  const bool abort = e.kind == EventKind::kSendAbort ||
                     e.kind == EventKind::kRecvAbort;
  if (dumping_ || (!abort && e.kind != EventKind::kLifePeerDead)) return;
  const std::uint64_t cause = abort ? e.len : kPeerDeadCause;
  if (cause < 32 && (expected_aborts_ >> cause & 1u) != 0) return;
  std::string reason = "auto: ";
  reason += event_kind_name(e.kind);
  dump(reason);
}

void FlightRecorder::for_each_held(
    const std::function<void(const CompactEvent&)>& fn) const {
  const std::size_t start = held_ == cap_ ? head_ : 0;
  for (std::size_t i = 0; i < held_; ++i) {
    fn(ring_[(start + i) % cap_]);
  }
}

void FlightRecorder::append_entry_json(std::string& out,
                                       const CompactEvent& ce) const {
  const EventKindRow& row = event_kind_row(ce.kind);
  out += "{\"name\":" + json_str(row.name);
  out += ",\"ph\":\"i\",\"s\":\"t\"";
  // Chrome trace ts is in microseconds; keep ns precision as a fraction.
  out += ",\"ts\":" + json_num(static_cast<double>(ce.time) / 1000.0);
  out += ",\"pid\":" + json_num(static_cast<std::uint64_t>(ce.node));
  out += ",\"tid\":" + json_num(static_cast<std::uint64_t>(ce.ep));
  out += ",\"args\":{\"t_ns\":" + json_num(static_cast<std::uint64_t>(ce.time));
  for (std::size_t i = 0; i < 3; ++i) {
    if (row.slot[i] == EventSlot::none) continue;
    out += ",";
    out += json_str(row.slot_name[i]) + ":" + json_num(ce.slot[i]);
  }
  out += "}}";
}

std::string FlightRecorder::render(std::string_view reason) const {
  drain();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for_each_held([&](const CompactEvent& ce) {
    if (!first) out += ",";
    first = false;
    append_entry_json(out, ce);
  });
  out += "],\"metadata\":{\"reason\":" + json_str(reason);
  out += ",\"recorded\":" + json_num(recorded_);
  out += ",\"dropped\":" + json_num(dropped_);
  out += ",\"window\":" + json_num(static_cast<std::uint64_t>(held_));
  out += "}}";
  return out;
}

std::string FlightRecorder::digest(std::string_view reason,
                                   std::size_t tail) const {
  drain();
  std::string out = "flight recorder: ";
  out += reason;
  out += "\n  window: last " + json_num(static_cast<std::uint64_t>(held_)) +
         " of " + json_num(recorded_) + " events\n";
  std::vector<CompactEvent> last;
  last.reserve(held_);
  for_each_held([&](const CompactEvent& ce) { last.push_back(ce); });
  const std::size_t begin = last.size() > tail ? last.size() - tail : 0;
  for (std::size_t i = begin; i < last.size(); ++i) {
    const CompactEvent& ce = last[i];
    const EventKindRow& row = event_kind_row(ce.kind);
    out += "  t=" + json_num(static_cast<std::uint64_t>(ce.time));
    out += " n" + json_num(static_cast<std::uint64_t>(ce.node));
    out += "/e" + json_num(static_cast<std::uint64_t>(ce.ep));
    out += " ";
    out += row.name;
    for (std::size_t s = 0; s < 3; ++s) {
      if (row.slot[s] == EventSlot::none) continue;
      out += std::string(" ") + row.slot_name[s] + "=" + json_num(ce.slot[s]);
    }
    out += "\n";
  }
  return out;
}

std::string FlightRecorder::dump(std::string_view reason) {
  drain();
  ++dump_attempts_;
  if (dump_attempts_ > max_dumps_) return "";
  dumping_ = true;
  const std::string path =
      dump_prefix_ + "-" + json_num(dump_attempts_) + ".flight.json";
  const std::string body = render(reason);
  std::string note = digest(reason);
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool ok =
      f != nullptr &&
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f != nullptr) std::fclose(f);
  dumping_ = false;
  note += f == nullptr ? "obs: cannot write flight dump to " + path + "\n"
          : !ok        ? "obs: short write on " + path + "\n"
                       : "  dump: " + path + "\n";
  print_stderr(note);
  return ok ? path : "";
}

std::string FlightRecorder::json() const {
  drain();
  std::string out = "{\"capacity\":" +
                    json_num(static_cast<std::uint64_t>(cap_));
  out += ",\"recorded\":" + json_num(recorded_);
  out += ",\"dropped\":" + json_num(dropped_);
  out += ",\"dump_attempts\":" + json_num(dump_attempts_);
  out += "}";
  return out;
}

}  // namespace pinsim::obs
