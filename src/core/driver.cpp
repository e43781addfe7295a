#include "core/driver.hpp"

#include <stdexcept>

#include "core/wire.hpp"
#include "net/watchdog.hpp"
#include "obs/event.hpp"

namespace pinsim::core {

Driver::Driver(sim::Engine& eng, net::Nic& nic, const cpu::CpuModel& cpu,
               ioat::DmaEngine* dma, StackConfig config)
    : eng_(eng), nic_(nic), cpu_(cpu), dma_(dma), config_(config) {
  nic_.set_rx_handler([this](net::Frame&& f) { on_frame(std::move(f)); });
  if (config_.protocol.distribute_interrupts) {
    // Flow steering: the destination endpoint id sits at a fixed offset in
    // the MXoE header (type, src_ep, dst_ep), so the "hardware" can hash on
    // it without a full decode.
    nic_.set_rx_core_selector([this](const net::Frame& f) -> cpu::Core& {
      if (f.payload.size() >= 3) {
        const auto ep_id = static_cast<std::uint8_t>(f.payload[2]);
        if (Endpoint* ep = endpoint(ep_id); ep != nullptr) {
          return ep->process_core();
        }
      }
      return nic_.irq_core();
    });
  }
}

Endpoint& Driver::open_endpoint(mem::AddressSpace& as,
                                cpu::Core& process_core) {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i] == nullptr) {
      endpoints_[i] = std::make_unique<Endpoint>(
          *this, static_cast<std::uint8_t>(i), as, process_core);
      Endpoint& ep = *endpoints_[i];
      SlotLifecycle& sl = slots_[i];
      ep.set_epoch(sl.epoch);
      if (sl.crashed) {
        sl.crashed = false;
        ++sl.restarts;
        if (relay_.active()) {
          obs::Event e;
          e.kind = obs::EventKind::kLifeRestart;
          e.node = node();
          e.ep = static_cast<std::uint8_t>(i);
          e.seq = sl.epoch;
          relay_.emit(e);
        }
      }
      // Crash history survives the endpoint object: the new incarnation's
      // counters start from the slot's running totals.
      Counters& c = ep.counters();
      c.lifecycle_crashes = sl.crashes;
      c.lifecycle_restarts = sl.restarts;
      c.lifecycle_reclaimed_pages = sl.reclaimed_pages;
      return ep;
    }
  }
  throw std::runtime_error("no free endpoint slot");
}

void Driver::close_endpoint(std::uint8_t id) {
  if (id >= endpoints_.size() || endpoints_[id] == nullptr) return;
  endpoints_[id].reset();
  // Bump the incarnation so frames addressed to the dead instance are
  // fenced once the slot reopens. 0 stays reserved for "unknown".
  SlotLifecycle& sl = slots_[id];
  sl.epoch = static_cast<std::uint8_t>(sl.epoch == 255 ? 1 : sl.epoch + 1);
}

void Driver::note_crash(std::uint8_t id, std::uint64_t reclaimed,
                        std::uint64_t pinned_after, std::uint64_t baseline) {
  if (id >= slots_.size()) return;
  SlotLifecycle& sl = slots_[id];
  ++sl.crashes;
  sl.reclaimed_pages += reclaimed;
  sl.crashed = true;
  if (Endpoint* ep = endpoint(id); ep != nullptr) {
    ++ep->counters().lifecycle_crashes;
    ep->counters().lifecycle_reclaimed_pages += reclaimed;
  }
  if (relay_.active()) {
    obs::Event e;
    e.kind = obs::EventKind::kLifeCrash;
    e.node = node();
    e.ep = id;
    e.seq = sl.epoch;         // the incarnation that just died
    e.region = static_cast<std::uint32_t>(reclaimed);  // pages swept back
    e.offset = pinned_after;  // host-wide pinned pages after the sweep
    e.len = baseline;         // expected non-tenant baseline
    relay_.emit(e);
  }
}

std::uint8_t Driver::peer_epoch(net::NodeId node, std::uint8_t ep) const {
  auto it = peer_epochs_.find(peer_key(node, ep));
  return it == peer_epochs_.end() ? 0 : it->second;
}

void Driver::set_bus(obs::Bus* bus) noexcept {
  relay_.set_bus(bus);
  if (watchdog_ != nullptr) watchdog_->set_bus(bus);
}

void Driver::attach_watchdog(net::Watchdog& wd) {
  watchdog_ = &wd;
  wd.set_bus(relay_.bus());
  wd.set_announcement_provider([this] { return announcement_blob(); });
  wd.set_announcement_handler(
      [this](net::NodeId peer, std::span<const std::byte> blob) {
        on_announcement(peer, blob);
      });
  wd.set_peer_status_handler(
      [this](net::NodeId peer, bool alive) { on_peer_status(peer, alive); });
}

std::vector<std::byte> Driver::announcement_blob() const {
  // One byte per slot: the current epoch for open slots, 0 for empty ones —
  // a peer seeing a slot go nonzero -> 0 knows that endpoint closed.
  std::vector<std::byte> blob(kMaxEndpoints);
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    blob[i] = std::byte{endpoints_[i] != nullptr ? slots_[i].epoch
                                                 : std::uint8_t{0}};
  }
  return blob;
}

void Driver::on_peer_epoch_change(net::NodeId node, std::uint8_t ep) {
  for (auto& slot : endpoints_) {
    if (slot != nullptr) slot->on_peer_restarted(node, ep);
  }
}

void Driver::on_announcement(net::NodeId peer,
                             std::span<const std::byte> blob) {
  for (std::size_t s = 0; s < blob.size() && s < kMaxEndpoints; ++s) {
    const auto announced = static_cast<std::uint8_t>(blob[s]);
    const std::uint64_t key = peer_key(peer, static_cast<std::uint8_t>(s));
    auto it = peer_epochs_.find(key);
    const std::uint8_t known = it == peer_epochs_.end() ? 0 : it->second;
    if (announced == 0) {
      // Slot empty over there. If we knew an incarnation, it is gone: fail
      // what is still outstanding to it, once per closure (announcements
      // repeat every beat). Keep the last known epoch so stale frames from
      // the dead incarnation still compare as such.
      if (known != 0 && closed_peer_slots_.insert(key).second) {
        on_peer_epoch_change(peer, static_cast<std::uint8_t>(s));
      }
      continue;
    }
    closed_peer_slots_.erase(key);
    if (known == 0) {
      peer_epochs_.emplace(key, announced);
    } else if (announced != known && epoch_newer(announced, known)) {
      it->second = announced;
      on_peer_epoch_change(peer, static_cast<std::uint8_t>(s));
    }
  }
}

void Driver::on_peer_status(net::NodeId peer, bool alive) {
  if (alive) {
    dead_peers_.erase(peer);
    return;
  }
  dead_peers_.insert(peer);
  for (auto& slot : endpoints_) {
    if (slot == nullptr) continue;
    ++slot->counters().heartbeat_timeouts;
    slot->fail_requests_to(peer, -1, AbortCause::kPeerDead);
  }
}

void Driver::on_frame(net::Frame&& frame) {
  // Watchdog control traffic never enters the MXoE decoder (its first byte
  // is outside the PacketType range and would throw).
  if (watchdog_ != nullptr && net::Watchdog::is_heartbeat(frame)) {
    watchdog_->on_heartbeat(frame);
    return;
  }
  Packet pkt;
  try {
    // Zero-copy decode: bulk data adopts the frame's payload vector; on
    // throw the payload is untouched for the attribution paths below.
    pkt = decode_frame(frame);
  } catch (const WireChecksumError&) {
    // Bit-flipped in flight. The header may itself be corrupted, so the
    // dst_ep lookup for counter attribution is best-effort only — the frame
    // is dropped either way and retransmission recovers.
    if (relay_.active()) {
      obs::Event e;
      e.kind = obs::EventKind::kPktChecksumDrop;
      e.node = node();
      e.peer = frame.src;
      relay_.emit(e);
    }
    if (frame.payload.size() >= 3) {
      const auto ep_id = static_cast<std::uint8_t>(frame.payload[2]);
      if (Endpoint* ep = endpoint(ep_id); ep != nullptr) {
        ++ep->counters().frames_corrupted;
        ++ep->counters().checksum_drops;
      }
    }
    return;
  } catch (const WireFormatError&) {
    if (relay_.active()) {
      obs::Event e;
      e.kind = obs::EventKind::kPktMalformed;
      e.node = node();
      e.peer = frame.src;
      relay_.emit(e);
    }
    if (frame.payload.size() >= 3) {
      const auto ep_id = static_cast<std::uint8_t>(frame.payload[2]);
      if (Endpoint* ep = endpoint(ep_id); ep != nullptr) {
        ++ep->counters().frames_corrupted;
      }
    }
    return;  // malformed frame: dropped, retransmission recovers
  }
  if (relay_.active()) {
    obs::Event e;
    e.kind = obs::EventKind::kPktRx;
    e.node = node();
    e.ep = pkt.header.dst_ep;
    e.peer = frame.src;
    e.peer_ep = pkt.header.src_ep;
    e.pkt = static_cast<std::uint8_t>(pkt.type());
    e.label = packet_type_name(pkt.type());
    relay_.emit(e);
  }
  Endpoint* ep = endpoint(pkt.header.dst_ep);
  if (ep == nullptr) return;  // stale traffic to a closed endpoint
  // Epoch fencing is part of the watchdog/recovery layer: without it the
  // epoch table never fills, dst_epoch stays 0 on the wire, and behaviour is
  // bit-identical to the pre-lifecycle stack.
  if (watchdog_ != nullptr) {
    const PacketHeader& h = pkt.header;
    const auto fence = [&](std::uint8_t epoch) {
      ++ep->counters().fenced_stale_frames;
      if (relay_.active()) {
        obs::Event e;
        e.kind = obs::EventKind::kLifeFence;
        e.node = node();
        e.ep = h.dst_ep;
        e.peer = frame.src;
        e.peer_ep = h.src_ep;
        e.seq = epoch;
        relay_.emit(e);
      }
    };
    // Learn the sender's incarnation first, even from a frame fenced below:
    // when both ends restarted, each side's frames carry the other's old
    // epoch, and only this lets either learn the new one. Fence frames from
    // an incarnation we know died.
    if (h.src_epoch != 0) {
      const std::uint64_t key = peer_key(frame.src, h.src_ep);
      auto it = peer_epochs_.find(key);
      if (it == peer_epochs_.end()) {
        peer_epochs_.emplace(key, h.src_epoch);
      } else if (h.src_epoch != it->second) {
        if (!epoch_newer(h.src_epoch, it->second)) {
          fence(h.src_epoch);
          return;
        }
        it->second = h.src_epoch;
        closed_peer_slots_.erase(key);
        on_peer_epoch_change(frame.src, h.src_ep);
      }
    }
    // A frame addressed to an incarnation this slot no longer is: the sender
    // learned our epoch before a close/restart. Drop it — the data, seq and
    // handle spaces all restarted with the new incarnation.
    if (h.dst_epoch != 0 && h.dst_epoch != slots_[h.dst_ep].epoch) {
      fence(h.dst_epoch);
      return;
    }
  }
  ep->handle_packet(frame.src, std::move(pkt));
}

}  // namespace pinsim::core
