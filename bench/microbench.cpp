// google-benchmark wall-clock microbenchmarks of the simulator's hot paths.
// These are not paper results; they keep the infrastructure honest (a
// simulated 16 MB PingPong sweep is only useful if the event loop and the
// memory paths are fast enough to run thousands of them).
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/host.hpp"
#include "core/region.hpp"
#include "core/wire.hpp"
#include "mem/address_space.hpp"
#include "mem/physical_memory.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "workloads/imb.hpp"

namespace {

using namespace pinsim;

/// Wheel filings per scheduled event, as a benchmark counter.
void report_filings(benchmark::State& state, const sim::Engine& eng,
                    std::uint64_t schedules) {
  state.counters["filings_per_schedule"] =
      schedules == 0 ? 0.0
                     : static_cast<double>(eng.filings()) /
                           static_cast<double>(schedules);
}

/// Bursts of 0-6 ns delays: every event lands in the live 64 ns window.
/// No workload schedules this close; BM_EngineClusterDelays is the
/// realistic mix.
void BM_EngineScheduleDispatch(benchmark::State& state) {
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      eng.schedule_after(static_cast<sim::Time>(i % 7), [&sink] { ++sink; });
    }
    eng.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 256);
  report_filings(state, eng,
                 static_cast<std::uint64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_EngineScheduleDispatch);

/// A timestamp the engine files at wheel level `lvl` (level 0: the live
/// 64 ns window): it keeps `now`'s bits above the level's 6-bit field and is
/// ahead of `now` in that field. `r` supplies the random bits. When `now`
/// sits in the field's last bucket, no such time exists and the event goes
/// one level up.
sim::Time when_at_level(sim::Time now, int lvl, std::uint64_t r) {
  if (lvl == 0) return now + r % (64 - (now & 63));
  const int shift = 6 * lvl;
  const sim::Time field = (now >> shift) & 63;
  if (field == 63) return when_at_level(now, lvl + 1, r);
  const sim::Time parent = now & ~((sim::Time{1} << (shift + 6)) - 1);
  const sim::Time bucket = field + 1 + (r >> 32) % (63 - field);
  return parent | (bucket << shift) | (r & ((sim::Time{1} << shift) - 1));
}

/// Steady-state hold model with the cluster soak's level mix: 1024 events
/// stay pending, and each dispatch schedules its successor. Of the quick
/// soak's schedules, 53% land at wheel level 1 (the next 64 ns-4 us), 42%
/// at level 2, 4.5% at level 3 and the rest in the live window.
void BM_EngineClusterDelays(benchmark::State& state) {
  struct Hold {
    sim::Engine eng;
    std::vector<int> levels;         // per-schedule level, drawn from the mix
    std::vector<std::uint64_t> bits;  // per-schedule random bits
    std::size_t next = 0;
    std::uint64_t schedules = 0;

    void schedule() {
      const std::size_t i = next++ & (levels.size() - 1);
      ++schedules;
      eng.schedule_at(when_at_level(eng.now(), levels[i], bits[i]),
                      [this] { schedule(); });
    }
  };
  Hold hold;
  sim::Rng rng(7);
  for (int i = 0; i < (1 << 16); ++i) {
    const std::uint64_t pick = rng.next_below(1000);
    hold.levels.push_back(pick < 530 ? 1 : pick < 950 ? 2 : pick < 995 ? 3 : 0);
    hold.bits.push_back(rng.next_u64());
  }
  for (int i = 0; i < 1024; ++i) hold.schedule();
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) hold.eng.step();
  }
  benchmark::DoNotOptimize(hold.eng.processed());
  state.SetItemsProcessed(state.iterations() * 256);
  report_filings(state, hold.eng, hold.schedules);
}
BENCHMARK(BM_EngineClusterDelays);

/// Million-event scheduler torture: the timing-wheel acceptance workload.
/// Bursts of schedules over three horizons (most short like protocol RTOs,
/// some medium like retry backoffs, a few far like soak deadlines), ~30%
/// cancelled before firing, interleaved with bounded run_until windows —
/// the mix the endpoint tables generate at steady state. Throughput is
/// items/s over scheduled events.
void BM_EngineMillionEventTorture(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Rng rng(42);
    std::uint64_t fired = 0;
    std::vector<sim::Engine::EventId> batch;
    constexpr int kTotal = 1'000'000;
    int scheduled = 0;
    while (scheduled < kTotal) {
      batch.clear();
      for (int i = 0; i < 64 && scheduled < kTotal; ++i, ++scheduled) {
        const std::uint64_t pick = rng.next_below(100);
        sim::Time delay;
        if (pick < 70) {
          delay = 1 + static_cast<sim::Time>(rng.next_below(2000));
        } else if (pick < 95) {
          delay = 2000 + static_cast<sim::Time>(rng.next_below(198'000));
        } else {
          delay = static_cast<sim::Time>(rng.next_below(1'000'000'000));
        }
        batch.push_back(eng.schedule_after(delay, [&fired] { ++fired; }));
      }
      for (const auto& id : batch) {
        if (rng.next_below(100) < 30) eng.cancel(id);
      }
      eng.run_until(eng.now() + 5000);
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_EngineMillionEventTorture)->Unit(benchmark::kMillisecond);

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::spawn(eng, [](sim::Engine& e) -> sim::Task<> {
      for (int i = 0; i < 512; ++i) co_await sim::delay(e, 10);
    }(eng));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_CoroutineDelayChain);

void BM_PageFaultAndWrite(benchmark::State& state) {
  mem::PhysicalMemory pm(80000);
  std::vector<std::byte> data(64 * 1024, std::byte{0x5a});
  for (auto _ : state) {
    mem::AddressSpace as(pm);
    const auto addr = as.mmap(64 * 1024);
    as.write(addr, data);
    benchmark::DoNotOptimize(as.resident_pages());
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_PageFaultAndWrite);

void BM_PinUnpinRange(benchmark::State& state) {
  mem::PhysicalMemory pm(80000);
  mem::AddressSpace as(pm);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const auto addr = as.mmap(bytes);
  as.touch(addr, bytes);
  for (auto _ : state) {
    auto frames = as.pin_range(addr, bytes);
    mem::VirtAddr va = addr;
    for (auto f : frames) {
      as.unpin_page(va, f);
      va += mem::kPageSize;
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PinUnpinRange)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_RegionCopyInOut(benchmark::State& state) {
  mem::PhysicalMemory pm(80000);
  mem::AddressSpace as(pm);
  const std::size_t bytes = 256 * 1024;
  const auto addr = as.mmap(bytes);
  core::Region region(1, as, {core::Segment{addr, bytes}});
  std::vector<mem::FrameId> frames;
  for (std::size_t i = 0; i < region.page_count(); ++i) {
    frames.push_back(as.pin_page(region.page_va_at(i)));
  }
  region.commit_pins(frames);
  std::vector<std::byte> buf(8192, std::byte{0x11});
  for (auto _ : state) {
    for (std::size_t off = 0; off + buf.size() <= bytes; off += buf.size()) {
      benchmark::DoNotOptimize(region.copy_in(off, buf));
      benchmark::DoNotOptimize(region.copy_out(off, buf));
    }
  }
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<int64_t>(bytes));
  for (auto& [va, f] : region.take_all_pins()) as.unpin_page(va, f);
}
BENCHMARK(BM_RegionCopyInOut);

/// Arg = payload bytes of a PULL_REPLY: 2 kB is the eager fragment and 8 kB
/// the PULL_REPLY block the cluster and PingPong workloads put on the wire.
/// Arg 0 is a PULL instead, the most frequent fixed-field frame.
void BM_WireEncodeDecode(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  core::Packet p;
  if (bytes == 0) {
    p.body = core::PullBody{3, 7, 123456, 8192, 11};
  } else {
    core::PullReplyBody body;
    body.handle = 7;
    body.offset = 123456;
    body.data.assign(bytes, std::byte{0x42});
    p.body = std::move(body);
  }
  for (auto _ : state) {
    auto wire = core::encode(p);
    auto q = core::decode(wire);
    benchmark::DoNotOptimize(q);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WireEncodeDecode)->Arg(0)->Arg(2048)->Arg(8192);

/// Arg = frame bytes. frame_checksum on the tier this CPU picks: 64 B is the
/// shortest frame that folds, 2 kB and 8 kB the eager and PULL_REPLY
/// payloads.
void BM_FrameChecksum(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::frame_checksum(buf));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FrameChecksum)->Arg(64)->Arg(2048)->Arg(8192);

/// One 8 kB PULL_REPLY through the send and receive paths as the endpoints
/// run them: copy_out of pinned pages into a chunk with header and CRC room,
/// encode in place, decode_frame (adopting the frame), copy_in on the
/// receiver. BM_WireEncodeDecode is the copying encode for comparison.
void BM_PullReplyFrame(benchmark::State& state) {
  constexpr std::size_t kBlock = 8192;
  mem::PhysicalMemory pm(1024);
  mem::AddressSpace as(pm);
  const std::size_t bytes = 256 * 1024;
  const auto src_addr = as.mmap(bytes);
  const auto dst_addr = as.mmap(bytes);
  core::Region src(1, as, {core::Segment{src_addr, bytes}});
  core::Region dst(2, as, {core::Segment{dst_addr, bytes}});
  for (core::Region* r : {&src, &dst}) {
    std::vector<mem::FrameId> frames;
    for (std::size_t i = 0; i < r->page_count(); ++i) {
      frames.push_back(as.pin_page(r->page_va_at(i)));
    }
    r->commit_pins(frames);
  }
  std::size_t off = 0;
  for (auto _ : state) {
    core::PullReplyBody reply;
    reply.handle = 7;
    reply.offset = off;
    reply.data = core::payload_for_overwrite(core::PacketType::kPullReply,
                                             kBlock);
    benchmark::DoNotOptimize(src.copy_out(off, reply.data));
    core::Packet p;
    p.body = std::move(reply);
    net::Frame frame;
    frame.payload = core::encode(std::move(p));
    core::Packet q = core::decode_frame(frame);
    benchmark::DoNotOptimize(
        dst.copy_in(off, std::get<core::PullReplyBody>(q.body).data));
    off = (off + kBlock) % bytes;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kBlock));
  for (core::Region* r : {&src, &dst}) {
    for (auto& [va, f] : r->take_all_pins()) as.unpin_page(va, f);
  }
}
BENCHMARK(BM_PullReplyFrame);

/// Frame pool of a perfbench pingpong_rndv 16 MB IMB cell: 4 rotating send
/// and receive buffers of 16 MB, doubled (65,536 frames, 256 MiB).
constexpr std::size_t kImbCellFrames = 4 * 4 * (16u << 20) / mem::kPageSize;

/// Builds one host with the 16 MB cell's frame pool: the set-up cost every
/// IMB cell pays before it sends a byte. After the first iteration the pool
/// reuses the populated memory the previous host left clean.
void BM_HostConstruct(benchmark::State& state) {
  core::Host::Config hc;
  hc.memory_frames = kImbCellFrames;
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng);
    core::Host host(eng, fabric, hc, core::overlapped_cache_config());
    benchmark::DoNotOptimize(host.memory().free_frames());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kImbCellFrames * mem::kPageSize));
}
BENCHMARK(BM_HostConstruct)->Unit(benchmark::kMillisecond);

/// Rebuilds the 16 MB cell's host after a host whose rank reserved the
/// cell's buffers: the timed construction re-zeroes the frames that rank
/// wrote. Only the second construction is timed.
void BM_HostConstructAfterImbCell(benchmark::State& state) {
  constexpr std::size_t kBytes = 16u << 20;
  core::Host::Config hc;
  hc.memory_frames = kImbCellFrames;
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::Engine eng;
      net::Fabric fabric(eng);
      core::Host host(eng, fabric, hc, core::overlapped_cache_config());
      core::Host::Process& rank = host.spawn_process();
      mpi::Communicator comm({&rank});
      workloads::ImbSuite::Config cfg;
      cfg.buffer_rotation = 4;
      workloads::ImbSuite imb(comm, cfg);
      imb.reserve(kBytes, kBytes);
    }
    {
      sim::Engine eng;
      net::Fabric fabric(eng);
      std::optional<core::Host> host;
      state.ResumeTiming();
      host.emplace(eng, fabric, hc, core::overlapped_cache_config());
      benchmark::DoNotOptimize(host->memory().free_frames());
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kImbCellFrames * mem::kPageSize));
}
BENCHMARK(BM_HostConstructAfterImbCell)->Unit(benchmark::kMillisecond);

/// IMB's buffer set-up for one rank of the 16 MB cell: malloc and fill 4
/// rotating 16 MB send/receive pairs (sends with a pattern, receives with
/// zeros) on a fresh host. Only the reserve is timed.
void BM_ImbReserve(benchmark::State& state) {
  constexpr std::size_t kBytes = 16u << 20;
  core::Host::Config hc;
  hc.memory_frames = kImbCellFrames;
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::Engine eng;
      net::Fabric fabric(eng);
      core::Host host(eng, fabric, hc, core::overlapped_cache_config());
      core::Host::Process& rank = host.spawn_process();
      mpi::Communicator comm({&rank});
      workloads::ImbSuite::Config cfg;
      cfg.buffer_rotation = 4;
      workloads::ImbSuite imb(comm, cfg);
      state.ResumeTiming();
      imb.reserve(kBytes, kBytes);
      benchmark::DoNotOptimize(rank.as.resident_pages());
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * 2 * 4 *
                          static_cast<int64_t>(kBytes));
}
BENCHMARK(BM_ImbReserve)->Unit(benchmark::kMillisecond);

/// With --trace-out=PREFIX, one instrumented simulated 1 MB rendezvous runs
/// after the wall-clock benchmarks so even this bench can emit a Chrome
/// trace and run report (exercising the same rig as the paper figures).
int instrumented_rendezvous(const std::string& prefix) {
  bench::Cluster c(cpu::xeon_e5460(), core::overlapped_pinning_config(), 2,
                   /*with_ioat=*/false);
  bench::ObsRig rig(c, prefix + ".trace.json");
  auto& sender = c.comm->process(0);
  auto& receiver = c.comm->process(1);
  const std::size_t len = 1024 * 1024;
  const auto src = sender.heap.malloc(len);
  const auto dst = receiver.heap.malloc(len);
  sim::spawn(c.eng, [](core::Library& lib, core::EndpointAddr to,
                       mem::VirtAddr buf, std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 500, buf, n);
  }(sender.lib, receiver.addr(), src, len));
  sim::spawn(c.eng, [](core::Library& lib, mem::VirtAddr buf,
                       std::size_t n) -> sim::Task<> {
    (void)co_await lib.recv(500, ~std::uint64_t{0}, buf, n);
  }(receiver.lib, dst, len));
  c.eng.run();
  c.eng.rethrow_task_failures();
  const bool engine_ok = rig.check_engine();
  const int violations = rig.finish();
  rig.write_report(prefix + ".report.json");
  std::printf("trace: %s.trace.json report: %s.report.json%s\n",
              prefix.c_str(), prefix.c_str(),
              violations == 0 ? "" : "  INVARIANT VIOLATIONS");
  std::printf("%s", rig.digest().c_str());
  return violations == 0 && engine_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --trace-out= before google-benchmark sees it (it rejects flags it
  // does not know).
  std::string trace_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_out.empty()) return instrumented_rendezvous(trace_out);
  return 0;
}
