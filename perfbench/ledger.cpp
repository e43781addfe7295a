#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/wire.hpp"
#include "net/frame.hpp"

namespace perfbench {

using namespace pinsim;

void busy_wait(std::uint64_t ns) noexcept {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

int Ledger::layer(const std::string& name) {
  if (auto it = index_.find(name); it != index_.end()) return it->second;
  const int id = static_cast<int>(layers_.size());
  layers_.push_back({name, 0, 0, 0});
  index_.emplace(name, id);
  return id;
}

void Ledger::open(int layer, bool keep) {
  int span = -1;
  const std::uint64_t t = now_ns();
  if (keep) {
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->span >= 0) {
        parent = it->span;
        break;
      }
    }
    span = static_cast<int>(spans_.size());
    spans_.push_back({layer, parent, t, t});
  }
  stack_.push_back({layer, span, t, 0});
}

void Ledger::close() {
  const std::uint64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - f.start;
  Layer& l = layers_[static_cast<std::size_t>(f.layer)];
  ++l.calls;
  l.total_ns += dur;
  l.self_ns += dur > f.child ? dur - f.child : 0;
  if (!stack_.empty()) stack_.back().child += dur;
  if (f.span >= 0) spans_[static_cast<std::size_t>(f.span)].end_ns = t;
}

void Ledger::move_self(int from, int to, std::uint64_t ns) {
  Layer& src = layers_[static_cast<std::size_t>(from)];
  ns = std::min(ns, src.self_ns);
  src.self_ns -= ns;
  layers_[static_cast<std::size_t>(to)].self_ns += ns;
  layers_[static_cast<std::size_t>(to)].total_ns += ns;
}

std::string Ledger::json() const {
  std::string out = "{\"traceEvents\":[";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                  i == 0 ? "" : ",",
                  layers_[static_cast<std::size_t>(s.layer)].name.c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent);
    out += buf;
  }
  out += "],\"layers\":[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"calls\":%llu,\"total_ms\":%.6f,"
                  "\"self_ms\":%.6f}",
                  i == 0 ? "" : ",", l.name.c_str(),
                  static_cast<unsigned long long>(l.calls),
                  static_cast<double>(l.total_ns) / 1e6,
                  static_cast<double>(l.self_ns) / 1e6);
    out += buf;
  }
  out += "]}\n";
  return out;
}

// --- dispatch observer ------------------------------------------------------

TimedObserver::TimedObserver(Ledger& ledger, sim::Engine& eng)
    : ledger_(ledger), eng_(eng) {
  eng_.set_dispatch_observer(this);
}

TimedObserver::~TimedObserver() {
  if (eng_.dispatch_observer() == this) eng_.set_dispatch_observer(nullptr);
}

int TimedObserver::layer_for(const sim::TaskTag& tag) {
  if (tag.empty()) return ledger_.layer("untagged");
  const std::string comp = tag.component != nullptr ? tag.component : "";
  const std::string label = tag.label != nullptr ? tag.label : "";
  if (comp == "cpu") {
    if (label == "bottom_half") return ledger_.layer("cpu.bottom_half");
    if (label == "kernel") return ledger_.layer("cpu.kernel");
    return ledger_.layer("cpu.other");
  }
  if (comp == "core") return ledger_.layer("core.timers");
  if (comp == "sim") return ledger_.layer("sim.tasks");
  return ledger_.layer(comp);
}

TimedObserver::Slot& TimedObserver::slot_for(const sim::TaskTag& tag) {
  for (Slot& s : slots_) {
    if (s.component == tag.component && s.label == tag.label) return s;
  }
  const bool bh = tag.component != nullptr && tag.label != nullptr &&
                  std::strcmp(tag.component, "cpu") == 0 &&
                  std::strcmp(tag.label, "bottom_half") == 0;
  const bool inject = inject_ns_ > 0 && tag.component != nullptr &&
                      inject_component_ == tag.component;
  slots_.push_back(
      {tag.component, tag.label, layer_for(tag), bh, inject, 0});
  return slots_.back();
}

void TimedObserver::on_dispatch_begin(const sim::TaskTag& tag,
                                      sim::Time scheduled_at, sim::Time now) {
  Slot& s = slot_for(tag);
  ++s.dispatches;
  if (s.bh) bh_lag_.push_back(static_cast<std::uint32_t>(now - scheduled_at));
  ledger_.open(s.layer);
  if (s.inject) busy_wait(inject_ns_);
}

void TimedObserver::on_dispatch_end(const sim::TaskTag&) { ledger_.close(); }

std::map<std::string, std::uint64_t> TimedObserver::dispatches() const {
  std::map<std::string, std::uint64_t> out;
  for (const Slot& s : slots_) {
    std::string name = s.component != nullptr ? s.component : "untagged";
    if (s.label != nullptr) name += std::string("/") + s.label;
    out[name] += s.dispatches;
  }
  return out;
}

// --- sink fan-out -----------------------------------------------------------

void TimedFanout::add(std::string name, obs::Sink* sink) {
  sinks_.push_back({sink, ledger_.layer("obs." + name), 0});
}

void TimedFanout::inject(const std::string& name, std::uint64_t ns) {
  const int l = ledger_.layer("obs." + name);
  for (Entry& s : sinks_) {
    if (s.layer == l) s.inject_ns = ns;
  }
}

void TimedFanout::on_event(const obs::Event& e) {
  ++events_;
  if ((e.kind == obs::EventKind::kPktTx ||
       e.kind == obs::EventKind::kPktRx) &&
      e.pkt < kPacketTypes) {
    Codec& c = codec_[ledger_.top()];
    ++(e.kind == obs::EventKind::kPktTx ? c.encoded : c.decoded)[e.pkt];
  } else if (e.kind == obs::EventKind::kEagerPost) {
    ++eager_posts_;
    eager_len_ += e.len;
  }
  for (const Entry& s : sinks_) {
    ledger_.open(s.layer);
    if (s.inject_ns > 0) busy_wait(s.inject_ns);
    s.sink->on_event(e);
    ledger_.close();
  }
}

void TimedFanout::finalize() {
  for (const Entry& s : sinks_) s.sink->finalize();
}

// --- codec replay -----------------------------------------------------------

namespace {

core::Packet sample_packet(int type, std::size_t data_bytes) {
  core::Packet p;
  p.header.type = static_cast<core::PacketType>(type);
  std::vector<std::byte> data(data_bytes);
  for (std::size_t i = 0; i < data_bytes; ++i) {
    data[i] = static_cast<std::byte>((i * 131u) >> 3);
  }
  switch (static_cast<core::PacketType>(type)) {
    case core::PacketType::kEager: {
      core::EagerBody b;
      b.match = 7;
      b.msg_len = static_cast<std::uint32_t>(data_bytes);
      b.data = std::move(data);
      p.body = std::move(b);
      break;
    }
    case core::PacketType::kEagerAck: p.body = core::EagerAckBody{}; break;
    case core::PacketType::kRndv: p.body = core::RndvBody{}; break;
    case core::PacketType::kPull: p.body = core::PullBody{}; break;
    case core::PacketType::kPullReply: {
      core::PullReplyBody b;
      b.data = std::move(data);
      p.body = std::move(b);
      break;
    }
    case core::PacketType::kNotify: p.body = core::NotifyBody{}; break;
    case core::PacketType::kNotifyAck: p.body = core::NotifyAckBody{}; break;
    case core::PacketType::kAbort: p.body = core::AbortBody{}; break;
  }
  return p;
}

/// Mean wall nanoseconds of one encode and one decode of `p`.
std::pair<double, double> time_codec(const core::Packet& p) {
  constexpr std::uint64_t kBudgetNs = 4'000'000;
  constexpr int kMinReps = 16;
  std::uint64_t enc = 0, dec = 0;
  int reps = 0;
  const std::uint64_t start = now_ns();
  for (int i = -1; reps < kMinReps || now_ns() - start < kBudgetNs; ++i) {
    const std::uint64_t t0 = now_ns();
    net::Frame f;
    f.payload = core::encode(p);
    const std::uint64_t t1 = now_ns();
    const core::Packet back = core::decode_frame(f);
    const std::uint64_t t2 = now_ns();
    if (back.type() != p.type()) std::abort();
    if (i < 0) continue;  // warm-up: first touch of the buffer pool
    enc += t1 - t0;
    dec += t2 - t1;
    ++reps;
  }
  return {static_cast<double>(enc) / reps, static_cast<double>(dec) / reps};
}

}  // namespace

void replay_codec(Ledger& ledger, const TimedFanout& fanout,
                  std::size_t frame_payload) {
  double enc_ns[TimedFanout::kPacketTypes] = {};
  double dec_ns[TimedFanout::kPacketTypes] = {};
  for (int t = 1; t < TimedFanout::kPacketTypes; ++t) {
    bool used = false;
    for (const auto& [layer, c] : fanout.codec()) {
      used = used || c.encoded[t] != 0 || c.decoded[t] != 0;
    }
    if (!used) continue;
    std::size_t bytes = 0;
    if (t == static_cast<int>(core::PacketType::kPullReply)) {
      bytes = frame_payload;
    } else if (t == static_cast<int>(core::PacketType::kEager)) {
      bytes = std::min(fanout.eager_bytes(), frame_payload);
    }
    std::tie(enc_ns[t], dec_ns[t]) = time_codec(sample_packet(t, bytes));
  }
  const int codec = ledger.layer("core.wire.codec");
  for (const auto& [layer, c] : fanout.codec()) {
    double ns = 0.0;
    for (int t = 1; t < TimedFanout::kPacketTypes; ++t) {
      ns += static_cast<double>(c.encoded[t]) * enc_ns[t] +
            static_cast<double>(c.decoded[t]) * dec_ns[t];
    }
    if (layer < 0) continue;  // outside every span: nothing to carve from
    ledger.move_self(layer, codec, static_cast<std::uint64_t>(ns));
  }
}

}  // namespace perfbench
