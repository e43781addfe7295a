#include "obs/event.hpp"

#include <string>

namespace pinsim::obs {

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kPktTx: return "pkt_tx";
    case EventKind::kPktRx: return "pkt_rx";
    case EventKind::kPktChecksumDrop: return "pkt_checksum_drop";
    case EventKind::kPktMalformed: return "pkt_malformed";
    case EventKind::kEagerPost: return "eager_post";
    case EventKind::kRndvPost: return "rndv_post";
    case EventKind::kSendDone: return "send_done";
    case EventKind::kSendAbort: return "send_abort";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kPullStart: return "pull_start";
    case EventKind::kPullBlockReq: return "pull_block_req";
    case EventKind::kPullRetry: return "pull_retry";
    case EventKind::kRecvDone: return "recv_done";
    case EventKind::kRecvAbort: return "recv_abort";
    case EventKind::kOverlapMissSend: return "overlap_miss_send";
    case EventKind::kOverlapMissRecv: return "overlap_miss_recv";
    case EventKind::kCopyIn: return "copy_in";
    case EventKind::kCopyOut: return "copy_out";
    case EventKind::kDmaCopy: return "dma_copy";
    case EventKind::kPinReset: return "pin_reset";
    case EventKind::kPinStart: return "pin_start";
    case EventKind::kPinPages: return "pin_pages";
    case EventKind::kPinShrink: return "pin_shrink";
    case EventKind::kPinRetry: return "pin_retry";
    case EventKind::kPinRestart: return "pin_restart";
    case EventKind::kPinInvalidate: return "pin_invalidate";
    case EventKind::kPinDone: return "pin_done";
    case EventKind::kPinFail: return "pin_fail";
    case EventKind::kPinShed: return "pin_shed";
    case EventKind::kPinUnpin: return "pin_unpin";
    case EventKind::kPressureDeny: return "pressure_deny";
    case EventKind::kPressureSweep: return "pressure_sweep";
    case EventKind::kPressureMigrate: return "pressure_migrate";
    case EventKind::kPressureCow: return "pressure_cow";
    case EventKind::kFaultDrop: return "fault_drop";
    case EventKind::kFaultCorrupt: return "fault_corrupt";
    case EventKind::kFaultDup: return "fault_dup";
    case EventKind::kFaultReorder: return "fault_reorder";
    case EventKind::kLifeCrash: return "life_crash";
    case EventKind::kLifeRestart: return "life_restart";
    case EventKind::kLifeLinkDown: return "life_link_down";
    case EventKind::kLifeLinkUp: return "life_link_up";
    case EventKind::kLifeNicReset: return "life_nic_reset";
    case EventKind::kLifePeerDead: return "life_peer_dead";
    case EventKind::kLifePeerAlive: return "life_peer_alive";
    case EventKind::kLifeFence: return "life_fence";
    case EventKind::kNetPortQueue: return "net_port_queue";
    case EventKind::kNetPortTx: return "net_port_tx";
    case EventKind::kNetCongestionDrop: return "net_congestion_drop";
  }
  return "unknown";
}

std::string describe(const Event& e) {
  std::string out = "[" + std::to_string(sim::to_usec(e.time)) + "us] " +
                    event_kind_name(e.kind) + " node=" +
                    std::to_string(e.node) + " ep=" + std::to_string(e.ep);
  if (e.peer != 0 || e.peer_ep != 0) {
    out += " peer=" + std::to_string(e.peer) + "." +
           std::to_string(e.peer_ep);
  }
  if (e.region != 0) out += " region=" + std::to_string(e.region);
  if (e.seq != 0) out += " seq=" + std::to_string(e.seq);
  if (e.offset != 0) out += " offset=" + std::to_string(e.offset);
  if (e.len != 0) out += " len=" + std::to_string(e.len);
  if (e.label != nullptr) out += std::string(" \"") + e.label + "\"";
  return out;
}

}  // namespace pinsim::obs
