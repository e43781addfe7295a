#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/time.hpp"

namespace pinsim::core {

/// How the driver manages pinning of user regions. Together with
/// `PinningConfig::overlapped` this spans every configuration evaluated in
/// the paper's Figures 6 and 7.
enum class PinMode {
  /// Pin the whole region synchronously when a communication uses it, unpin
  /// when the region is undeclared right after. With the region cache
  /// disabled this is Figure 6/7's "Pin once per Communication" / "Regular
  /// Pinning" baseline.
  kPerCommunication,

  /// Pin at declaration time and never unpin until undeclare. Figure 6's
  /// "Permanent Pinning" upper bound (unsafe in real life without
  /// invalidation — here the MMU notifier still protects it).
  kPermanent,

  /// The paper's model: declaration does not pin; the driver pins on demand
  /// at first use, keeps pages pinned, and unpins on MMU-notifier
  /// invalidation or memory pressure, repinning transparently later.
  kOnDemand,

  /// §6's long-term idea, after QsNet: no pinning at all — the "NIC"
  /// resolves translations through the page table on every access (which a
  /// heavily modified VM plus an advanced NIC MMU made possible on
  /// Quadrics). Modelled as an idealized upper bound: accesses fault pages
  /// in and never miss.
  kNone,
};

/// Driver-side pinning behaviour.
struct PinningConfig {
  PinMode mode = PinMode::kOnDemand;

  /// §3.3: initiate the communication *before* pinning and pin
  /// asynchronously in address order while the rendezvous round-trip runs.
  /// Accesses to not-yet-pinned pages drop the packet (an overlap miss) and
  /// rely on retransmission.
  bool overlapped = false;

  /// Pages pinned per kernel work quantum during asynchronous pinning; keeps
  /// bottom halves responsive (the simulated core is non-preemptive, while
  /// real get_user_pages in process context is preempted by softirqs — a
  /// small quantum approximates that).
  std::size_t pin_chunk_pages = 16;

  /// §4.3 mitigation under evaluation in the paper: synchronously pin the
  /// first few pages before sending the initiating message so the earliest
  /// packets never miss. 0 disables.
  std::size_t sync_prepin_pages = 0;

  /// §6: "only enabling decoupled/overlapped pinning for blocking
  /// operations". Overlap-aware applications that post nonblocking requests
  /// and compute meanwhile gain nothing from overlapped pinning (the CPU is
  /// busy anyway), so those requests pin synchronously and skip the
  /// overlap machinery's overhead.
  bool overlap_blocking_only = false;

  /// Driver sheds pins (LRU idle region first) when the host exceeds this
  /// many pinned pages (§3.1 "if there are too many pinned pages").
  std::size_t max_pinned_pages = std::numeric_limits<std::size_t>::max();

  /// Transient pin-failure handling. get_user_pages returning -ENOMEM under
  /// memory pressure (or a PhysicalMemory pin quota refusing the chunk) is
  /// retried with exponential backoff instead of failing the region; the
  /// budget counts consecutive chunk attempts that made *zero* progress, so
  /// a slowly advancing frontier never exhausts it but a permanently starved
  /// pin ends in a clean ok=false abort rather than a hang.
  int pin_retry_budget = 16;
  sim::Time pin_retry_backoff = 50 * sim::kMicrosecond;
  sim::Time pin_retry_backoff_max = 5 * sim::kMillisecond;
};

/// User-space region cache behaviour (§3.2).
struct CacheConfig {
  bool enabled = true;
  /// Maximum cached declarations; least recently used idle regions are
  /// undeclared beyond this.
  std::size_t capacity = 64;
};

/// MXoE-protocol tunables.
struct ProtocolConfig {
  /// Messages up to this size are sent eagerly (MXoE spec: 32 kB).
  std::size_t eager_threshold = 32 * 1024;

  /// Data bytes per frame for eager fragments and pull replies (fits a 9000
  /// MTU with headers).
  std::size_t frame_payload = 8192;

  /// Bytes per pull block request (MXoE uses 32 kB blocks).
  std::size_t pull_block = 32 * 1024;

  /// Pull blocks kept outstanding by the receiver.
  std::size_t pull_window = 2;

  /// Base retransmission timeout for control traffic (paper footnote: 1 s
  /// before a lost packet is re-requested pessimistically). Consecutive
  /// timeouts of the same request back off exponentially from this value.
  sim::Time retransmit_timeout = sim::kSecond;

  /// Cap for the exponential retransmit backoff: the per-request timeout
  /// doubles on every retry but never exceeds this.
  sim::Time retransmit_backoff_max = 8 * sim::kSecond;

  /// Retransmit attempts per send request (eager resend / RNDV resend /
  /// passive wait) before the request aborts gracefully with ok=false. A
  /// passive wait during which a PULL arrived is not an attempt.
  int retry_budget = 64;

  /// Consecutive progress-free pull-retry ticks before the receiver aborts
  /// the transfer and tells the sender. Bounds how long a dead sender can
  /// hold receiver state: budget x pull_retry_timeout of silence.
  int pull_stall_budget = 256;

  /// Per-block pull retry period. Overlap misses always drop the *tail* of
  /// a block (pages pin in order), which gap detection cannot see, so the
  /// receiver re-pulls incomplete blocks on this much finer timer — as the
  /// Open-MX pull handler does. This is what bounds the §4.3 degradation to
  /// tens of MB/s instead of one message per second.
  sim::Time pull_retry_timeout = 10 * sim::kMillisecond;

  /// Cost charged to the process core for entering the kernel (ioctl).
  sim::Time syscall_cost = 150;

  /// Use the I/OAT DMA engine for receive-side copies when available.
  bool use_ioat = false;

  /// RSS/MSI-X-style flow steering: each endpoint's receive bottom halves
  /// run on its process's core ("one process per core" with distributed
  /// interrupt load — the paper's regular configuration). Disable to bind
  /// all interrupts to core 0, the §4.3 overload scenario.
  bool distribute_interrupts = true;
};

/// Everything the stack needs to know, grouped.
struct StackConfig {
  PinningConfig pinning;
  CacheConfig cache;
  ProtocolConfig protocol;
};

/// Named presets matching the paper's figure legends.
[[nodiscard]] StackConfig regular_pinning_config();         // Fig 7 "Regular"
[[nodiscard]] StackConfig overlapped_pinning_config();      // Fig 7 "Overlapped"
[[nodiscard]] StackConfig pinning_cache_config();           // Fig 7 "Cache"
[[nodiscard]] StackConfig overlapped_cache_config();        // Fig 7 "Overlapped Cache"
[[nodiscard]] StackConfig permanent_pinning_config();       // Fig 6 upper bound
[[nodiscard]] StackConfig qsnet_ideal_config();             // §6 no-pin bound

}  // namespace pinsim::core
