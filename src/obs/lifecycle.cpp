#include "obs/lifecycle.hpp"

#include "obs/json.hpp"

namespace pinsim::obs {

void LifecycleRecorder::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kLifeCrash: {
      ++totals_.crashes;
      totals_.reclaimed_pages += e.region;
      auto& w = slots_[slot_key(e)];
      w.crashed_at = e.time;
      w.down = true;
      w.awaiting_completion = false;
      break;
    }
    case EventKind::kLifeRestart: {
      ++totals_.restarts;
      auto& w = slots_[slot_key(e)];
      if (w.down) {
        totals_.restart_delay_ns +=
            static_cast<std::uint64_t>(e.time - w.crashed_at);
      }
      w.down = false;
      w.restarted_at = e.time;
      w.awaiting_completion = true;
      break;
    }
    case EventKind::kLifeLinkDown:
      ++totals_.link_downs;
      break;
    case EventKind::kLifeNicReset:
      ++totals_.nic_resets;
      break;
    case EventKind::kLifePeerDead:
      ++totals_.peer_deaths;
      break;
    case EventKind::kLifeFence:
      ++totals_.fenced_frames;
      break;
    case EventKind::kSendDone:
    case EventKind::kRecvDone: {
      auto it = slots_.find(slot_key(e));
      if (it != slots_.end() && it->second.awaiting_completion &&
          !it->second.down) {
        totals_.recovery_ns +=
            static_cast<std::uint64_t>(e.time - it->second.restarted_at);
        ++totals_.recoveries;
        it->second.awaiting_completion = false;
      }
      break;
    }
    default:
      break;
  }
}

std::string LifecycleRecorder::json() const {
  drain();
  auto field = [](const char* name, std::uint64_t v) {
    return json_str(name) + ":" + json_num(v);
  };
  std::string out = "{";
  out += field("crashes", totals_.crashes);
  out += "," + field("restarts", totals_.restarts);
  out += "," + field("link_downs", totals_.link_downs);
  out += "," + field("nic_resets", totals_.nic_resets);
  out += "," + field("peer_deaths", totals_.peer_deaths);
  out += "," + field("fenced_frames", totals_.fenced_frames);
  out += "," + field("reclaimed_pages", totals_.reclaimed_pages);
  out += "," + field("restart_delay_ns", totals_.restart_delay_ns);
  out += "," + field("recovery_ns", totals_.recovery_ns);
  out += "," + field("recoveries", totals_.recoveries);
  out += "}";
  return out;
}

}  // namespace pinsim::obs
