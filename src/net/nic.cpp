#include "net/nic.hpp"

#include <cassert>
#include <utility>

namespace pinsim::net {

Nic::Nic(sim::Engine& eng, Fabric& fabric, cpu::Core& irq_core, Config cfg)
    : eng_(eng), fabric_(fabric), irq_core_(irq_core), cfg_(cfg) {
  node_ = fabric_.attach(this);
}

bool Nic::send(Frame frame) {
  assert(frame.payload.size() <= cfg_.mtu && "frame exceeds MTU");
  frame.src = node_;
  if (tx_queue_.size() >= cfg_.tx_ring) {
    ++stats_.tx_ring_drops;
    return false;
  }
  tx_queue_.push_back(std::move(frame));
  if (!tx_busy_) pump_tx();
  return true;
}

void Nic::pump_tx() {
  if (tx_queue_.empty()) {
    tx_busy_ = false;
    return;
  }
  tx_busy_ = true;
  Frame frame = tx_queue_.pop_front();
  const sim::Time wire = fabric_.serialization_time(frame.wire_bytes());
  ++stats_.tx_frames;
  stats_.tx_bytes += frame.payload.size();
  // The frame leaves the port after its serialization time, then the next
  // queued frame starts clocking out.
  tx_done_ = eng_.schedule_after(
      wire,
      // pinlint: allow(D7: the NIC is host hardware that outlives the
      // engine; reset() cancels the in-flight tx_done_ event)
      [this, f = std::move(frame)]() mutable {
        tx_done_ = {};
        fabric_.transmit(std::move(f));
        pump_tx();
      },
      {"net", "nic_tx"});
}

std::size_t Nic::reset() {
  std::size_t lost = tx_queue_.size();
  tx_queue_.clear();
  if (tx_done_.valid() && eng_.cancel(tx_done_)) {
    ++lost;  // the frame mid-serialization died with the ring
  }
  tx_done_ = {};
  tx_busy_ = false;
  stats_.tx_ring_drops += lost;
  // Queued bottom halves hold frames whose ring slots no longer exist:
  // bump the generation so they drain without reaching the driver.
  stats_.rx_ring_drops += rx_inflight_;
  ++reset_gen_;
  ++resets_;
  obs::Event e;
  e.kind = obs::EventKind::kLifeNicReset;
  e.node = node_;
  e.len = lost;
  fabric_.emit(e);
  return lost;
}

void Nic::deliver(Frame frame) {
  if (rx_inflight_ >= cfg_.rx_ring) {
    // Host too slow to drain the ring: the NIC overwrites, i.e. drops.
    ++stats_.rx_ring_drops;
    return;
  }
  ++rx_inflight_;
  ++stats_.rx_frames;
  stats_.rx_bytes += frame.payload.size();
  // Interrupt: per-frame receive processing charged at bottom-half priority
  // on the steered core (irq core by default), then the driver's handler
  // runs there.
  cpu::Core& core = rx_select_ ? rx_select_(frame) : irq_core_;
  core.submit(cpu::Priority::kBottomHalf, cfg_.rx_frame_overhead,
              // pinlint: allow(D7: the NIC is host hardware that outlives
              // the engine; stale bottom halves from a ring reset are
              // fenced by the generation check below)
              [this, gen = reset_gen_, f = std::move(frame)]() mutable {
                --rx_inflight_;
                // A reset since enqueue wiped this frame's ring slot.
                if (gen != reset_gen_) return;
                if (rx_handler_) rx_handler_(std::move(f));
              });
}

}  // namespace pinsim::net
