// Soak runner: the five acceptance soaks as stage tables over one runner.
//
//   soak chaos     paper §3.3 drop-and-retransmit: PingPong and Alltoallv
//                  under loss, corruption, duplication and reordering
//   soak pressure  paper §3.1 unpin under pressure, repin on demand: pin
//                  denial, a tight quota, notifier storms, a quota-0 probe
//   soak crash     paper §3.2 MMU-notifier teardown of a dying process:
//                  kill/restart cycles with loss, pressure, flaps, NIC resets
//   soak cluster   all three on 256 tenants in two racks, with switch
//                  congestion and host-wide idle-pin reclaim
//   soak quota     the fault-free cluster stage at rising pin quotas
//
// Every stage runs twice under one seed with the invariant checker and the
// engine self-check attached, and the two JSON run reports must be
// byte-identical. With --trace-out=<P> a quick run traces a third run per
// stage into <P>-s<N>[-<part>].{trace,report}.json plus its flight dumps; a
// full run writes the first run's report there instead. Exits non-zero on
// corruption, an invariant violation, a stalled pump, a failed predicate or
// a determinism mismatch, so `soak <suite> --quick` doubles as a ctest
// entry and an ASan+UBSan target.
#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "mem/pressure.hpp"
#include "net/fault.hpp"
#include "net/watchdog.hpp"
#include "sim/lifecycle.hpp"
#include "sim/task.hpp"

namespace {

using namespace pinsim;
using ull = unsigned long long;

constexpr std::size_t kNoQuota = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kPerHost = 16;  // endpoint id = host * kPerHost + slot
constexpr std::size_t kEndpoints = 16 * kPerHost;  // rack topology
constexpr std::size_t kEager = 2048;
constexpr std::size_t kRendezvous = 64 * 1024;
constexpr sim::Time kSlice = 20 * sim::kMicrosecond;  // pump time step

using Cause = core::AbortCause;

/// A set of abort causes, one bit per cause code (FlightRecorder::Config).
constexpr std::uint32_t causes(std::initializer_list<Cause> cs) {
  std::uint32_t bits = 0;
  for (const Cause c : cs) bits |= 1u << static_cast<unsigned>(c);
  return bits;
}

// What a stage's faults may end a request in; any other cause fails it.
// A killed process fails its own requests; its peers fail theirs on the
// watchdog's verdict or the epoch change, and the pumps cancel the rest.
constexpr std::uint32_t kCrashes = causes({Cause::kCrash, Cause::kPeerDead,
                                           Cause::kPeerRestarted,
                                           Cause::kCancelled});
// Rack hosts' pin quota: 16 tenants share 160 pages, far below their
// cached rendezvous working set, so cross-tenant shedding does real work.
constexpr std::size_t kRackQuota = 160;

std::vector<std::byte> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 2654435761u + salt) >> 13);
  }
  return v;
}

struct Run;

/// One stage of a suite: everything a run needs, declared once.
struct Stage {
  const char* label;
  void (*drive)(Run&);         // the traffic
  const char* part = nullptr;  // trace-tag suffix
  bool joins = false;          // a second run of the previous stage
  int ranks = 2;               // MPI ranks on two hosts; 0: survivor/victim
  std::array<int, 2> rounds{};  // {quick, full}
  bool racks = false;           // 16 hosts in two racks instead of two
  std::size_t queue = 64;       // rack downlink queue, frames
  net::FaultPlan faults{};
  mem::PressurePlan pressure{};
  std::vector<std::size_t> press_hosts{};  // one injector per host listed
  std::size_t quota = kNoQuota;  // pin quota on those hosts, or every rack
  std::vector<std::size_t> victims{};      // hosts whose slot 0 crashes
  std::array<std::size_t, 2> crashes{};    // {quick, full}; 0: no lifecycle
  double flap = 0.0, nic_reset = 0.0;      // per-crash collateral chances
  bool show_report = false;                // print rank 0's report
  std::uint32_t expect = 0;  // abort causes it may end in; others fail it
  double max_amplification = 0.0;  // wire ceiling; 0: reported, not gated
};

/// Sums over the first run of every stage, for the suite predicates.
struct Tally {
  std::uint64_t crashes = 0, reclaimed = 0, posted = 0, arb = 0;
};

/// A request handle and the endpoint that owns it.
struct Req {
  core::RequestPtr h;
  std::size_t owner = 0;
};

/// One exchange on a pump: q[0] and q[1] are the counted send and receive;
/// q[2] and q[3] only have to drain.
struct Flight {
  std::array<Req, 4> q;
  std::size_t size = 0, slot = 0;
  sim::Time posted = 0;
  mem::VirtAddr rcv{}, v_src{}, v_dst{};
  std::uint64_t born = 0;  // victim restarts at post time
  bool counted = true;     // false: half-posted against a dead peer
  std::vector<std::byte> expect;
};

/// One run of one stage: the cluster, its injectors and the results.
struct Run {
  const Stage& st;
  bool quick, loud;  // only the loud run prints its stage lines
  int n = 0;         // rounds or iterations
  std::unique_ptr<bench::Cluster> c{};
  std::unique_ptr<bench::ObsRig> obs{};
  std::vector<std::unique_ptr<mem::PressureInjector>> press{};
  std::unique_ptr<sim::LifecycleInjector> life{};
  std::function<void(std::size_t)> on_restart{};
  int failures = 0;
  std::uint64_t ok = 0, failed = 0, mismatches = 0, canceled = 0, skipped = 0;
  std::uint64_t delivered = 0;  // payload bytes of the exchanges that succeeded
  Tally tally{};
  std::string digest{};  // prepended to the run report

  core::Host::Process& ep(std::size_t e) {
    return c->hosts[e / kPerHost]->process(e % kPerHost);
  }
  bool alive(std::size_t e) {
    return c->hosts[e / kPerHost]->process_alive(e % kPerHost);
  }
};

[[gnu::format(printf, 2, 3)]] void say(const Run& r, const char* fmt, ...) {
  if (!r.loud) return;
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
}

[[gnu::format(printf, 2, 3)]] void fail(int& failures, const char* fmt,
                                        ...) {
  ++failures;
  std::printf("  FAIL: ");
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

core::Counters sum_counters(Run& r) {
  core::Counters t;
  for (auto& h : r.c->hosts) {
    for (std::size_t i = 0; i < h->process_count(); ++i) {
      if (!h->process_alive(i)) continue;
      const core::Counters& c = h->process(i).lib.counters();
      for (const core::CounterRow& row : core::kCounterRows) {
        t.*row.member += c.*row.member;
      }
    }
  }
  return t;
}

/// Fails the run on an abort whose cause the stage does not expect and on
/// an endpoint whose per-cause counters do not sum to its aborts; prints
/// the stage's non-zero causes.
void check_aborts(Run& r) {
  const auto by_cause = [](const core::Counters& c) {
    std::uint64_t n = 0;
    for (const core::AbortCauseRow& row : core::kAbortCauseRows) {
      if (row.counter != nullptr) n += c.*row.counter;
    }
    return n;
  };
  for (auto& h : r.c->hosts) {
    for (std::size_t i = 0; i < h->process_count(); ++i) {
      if (!h->process_alive(i)) continue;
      const core::Counters& c = h->process(i).lib.counters();
      if (by_cause(c) != c.aborts) {
        fail(r.failures, "endpoint %u: causes sum to %llu, aborts=%llu",
             static_cast<unsigned>(h->process(i).ep.id()), ull(by_cause(c)),
             ull(c.aborts));
      }
    }
  }
  const core::Counters t = sum_counters(r);
  std::string seen;
  for (std::size_t k = 1; k < std::size(core::kAbortCauseRows); ++k) {
    const core::AbortCauseRow& row = core::kAbortCauseRows[k];
    if (t.*row.counter == 0) continue;
    seen += std::string(" ") + row.name + "=" +
            std::to_string(t.*row.counter);
    if ((r.st.expect >> k & 1u) == 0) {
      fail(r.failures, "unexpected abort cause %s", row.name);
    }
  }
  say(r, "  aborts:%s\n", seen.empty() ? " none" : seen.c_str());
}

/// Wire amplification: bytes the NICs sent (frames, headers and every
/// retransmission) over the payload bytes of the exchanges that succeeded.
/// Prints it, adds it to the run report and fails a stage over its ceiling.
void check_wire(Run& r) {
  std::uint64_t tx = 0;
  for (auto& h : r.c->hosts) tx += h->nic().stats().tx_bytes;
  const double amp = r.delivered == 0 ? 0.0
                                      : static_cast<double>(tx) /
                                            static_cast<double>(r.delivered);
  say(r, "  wire: amplification=%.3f (tx_bytes=%llu delivered=%llu)\n", amp,
      ull(tx), ull(r.delivered));
  char json[160];
  std::snprintf(json, sizeof json,
                "\"wire\":{\"tx_bytes\":%llu,\"delivered_bytes\":%llu,"
                "\"wire_amplification\":%.6f},",
                ull(tx), ull(r.delivered), amp);
  r.digest += json;
  if (r.st.max_amplification > 0.0 && amp > r.st.max_amplification) {
    fail(r.failures, "wire amplification %.3f over its %.2f ceiling", amp,
         r.st.max_amplification);
  }
}

// --- MPI traffic (chaos, pressure) ------------------------------------------

struct PingPong {
  Run& r;
  std::size_t size;
  mem::VirtAddr src0, echo0, dst1;
  std::vector<std::byte> expect;
};

sim::Task<> pingpong_rank(PingPong& pp, int rank) {
  mpi::Communicator& comm = *pp.r.c->comm;
  for (int i = 0; i < pp.r.n; ++i) {
    if (rank == 0) {
      const auto s = co_await comm.send(0, 1, i, pp.src0, pp.size);
      const auto r = co_await comm.recv(0, 1, 1000 + i, pp.echo0, pp.size);
      if (!s.ok || !r.ok) {
        ++pp.r.failed;  // a failed op must report itself, never pass silently
        continue;
      }
      std::vector<std::byte> got(pp.size);
      comm.process(0).as.read(pp.echo0, got);
      ++(got == pp.expect ? pp.r.ok : pp.r.mismatches);
      pp.r.delivered += 2 * pp.size;  // there and back
    } else {
      const auto r = co_await comm.recv(1, 0, i, pp.dst1, pp.size);
      const auto s = co_await comm.send(1, 0, 1000 + i, pp.dst1, pp.size);
      if (!r.ok || !s.ok) ++pp.r.failed;
    }
  }
}

/// Round-trips patterned eager- and rendezvous-sized buffers and checks the
/// echo of every iteration.
void pingpong(Run& r) {
  auto& p0 = r.c->comm->process(0);
  auto& p1 = r.c->comm->process(1);
  for (const std::size_t size : {2048, 64 * 1024, 512 * 1024}) {
    PingPong pp{r, size, p0.heap.malloc(size), p0.heap.malloc(size),
                p1.heap.malloc(size),
                pattern(size, static_cast<std::uint32_t>(size))};
    p0.as.write(pp.src0, pp.expect);
    mpi::run_ranks(r.c->eng, 2,
                   [&pp](int rank) { return pingpong_rank(pp, rank); });
  }
  if (r.failed != 0) fail(r.failures, "%llu failed op(s)", ull(r.failed));
  const char* verdict =
      r.mismatches + r.failed == 0 ? "bit-exact" : "CORRUPTED/FAILED";
  const auto& fs = r.c->fabric->faults().stats();
  if (r.press.empty()) {
    say(r,
        "  pingpong: frames=%llu drops=%llu burst_drops=%llu corrupt=%llu "
        "dups=%llu reorders=%llu  -> %s\n",
        ull(fs.frames_seen), ull(fs.drops), ull(fs.burst_drops),
        ull(fs.corruptions), ull(fs.duplicates), ull(fs.reorders), verdict);
    return;
  }
  using Stats = mem::PressureInjector::Stats;
  const auto inj = [&r](std::uint64_t Stats::*field) {
    std::uint64_t t = 0;
    for (auto& p : r.press) t += p->stats().*field;
    return ull(t);
  };
  const core::Counters t = sum_counters(r);
  say(r,
      "  injector: attempts=%llu denied=%llu+%llu sweeps=%llu migr=%llu "
      "cow=%llu\n"
      "  endpoint: denied=%llu retries=%llu exhausted=%llu shrinks=%llu "
      "shed=%llu inval=%llu repins=%llu misses=%llu aborts=%llu "
      "proto_rex=%llu pinfail=%llu  -> %s\n",
      inj(&Stats::pin_attempts), inj(&Stats::pins_denied),
      inj(&Stats::burst_denied), inj(&Stats::swept_pages),
      inj(&Stats::migrated_pages), inj(&Stats::cow_breaks),
      ull(t.pins_denied), ull(t.pin_retries), ull(t.pin_retry_exhausted),
      ull(t.pin_chunk_shrinks), ull(t.pressure_unpins),
      ull(t.notifier_invalidations), ull(t.repins), ull(t.overlap_misses),
      ull(t.aborts), ull(t.retry_exhausted), ull(t.pin_failures), verdict);
}

/// All-to-all over four ranks with patterned eager- and rendezvous-sized
/// blocks; every received block must be bit-exact.
void alltoallv(Run& r) {
  constexpr int kRanks = 4;
  // A block's size depends on i + j only: ranks receive in their send
  // layout.
  std::array<std::vector<std::size_t>, kRanks> counts, displs;
  std::array<std::size_t, kRanks> total{};
  for (int i = 0; i < kRanks; ++i) {
    for (int j = 0; j < kRanks; ++j) {
      constexpr std::size_t kSizes[] = {8 * 1024, 40 * 1024, 96 * 1024};
      counts[i].push_back(kSizes[(i + j) % 3]);
      displs[i].push_back(total[i]);
      total[i] += counts[i].back();
    }
  }
  const auto salt = [](int round, int from, int to) {
    return static_cast<std::uint32_t>((round * 64 + from * 8 + to) * 7919);
  };
  mpi::Communicator& comm = *r.c->comm;
  for (int round = 0; round < r.n; ++round) {
    std::array<mem::VirtAddr, kRanks> send{}, recv{};
    for (int i = 0; i < kRanks; ++i) {
      send[i] = comm.process(i).heap.malloc(total[i]);
      recv[i] = comm.process(i).heap.malloc(total[i]);
      for (int j = 0; j < kRanks; ++j) {
        comm.process(i).as.write(send[i] + displs[i][j],
                                 pattern(counts[i][j], salt(round, i, j)));
      }
    }
    mpi::run_ranks(r.c->eng, kRanks, [&](int i) {
      return comm.alltoallv(i, send[i], counts[i], displs[i], recv[i],
                            counts[i], displs[i]);
    });
    for (int i = 0; i < kRanks; ++i) {
      for (int j = 0; j < kRanks; ++j) {
        std::vector<std::byte> got(counts[i][j]);
        comm.process(i).as.read(recv[i] + displs[i][j], got);
        const bool exact = got == pattern(got.size(), salt(round, j, i));
        ++(exact ? r.ok : r.mismatches);
        if (i != j) r.delivered += got.size();  // the diagonal stays local
      }
    }
  }
  const auto& fs = r.c->fabric->faults().stats();
  const core::Counters t = sum_counters(r);
  say(r,
      "  alltoallv: frames=%llu drops=%llu+%llu corrupt=%llu dups=%llu "
      "reorders=%llu | endpoint: checksum_drops=%llu dup_suppressed=%llu "
      "timeouts=%llu retry_exhausted=%llu  -> %s\n",
      ull(fs.frames_seen), ull(fs.drops), ull(fs.burst_drops),
      ull(fs.corruptions), ull(fs.duplicates), ull(fs.reorders),
      ull(t.checksum_drops), ull(t.duplicates_suppressed),
      ull(t.retransmit_timeouts), ull(t.retry_exhausted),
      r.mismatches == 0 ? "bit-exact" : "CORRUPTED");
}

sim::Task<> one_way(mpi::Communicator& comm, int rank, int tag,
                    mem::VirtAddr buf, std::size_t n, core::Status& st) {
  // Not `st = rank == 0 ? co_await ... : co_await ...`: GCC runs both arms
  // of a conditional that holds co_await.
  if (rank == 0) {
    st = co_await comm.send(0, 1, tag, buf, n);
  } else {
    st = co_await comm.recv(1, 0, tag, buf, n);
  }
}

/// Named predicate: a rendezvous transfer into a host whose pin quota is 0
/// ends ok=false on both sides (no hang, no corruption) with the denial in
/// the counters; the same buffers then transfer bit-exact with no quota.
void starvation_probe(Run& r) {
  mpi::Communicator& comm = *r.c->comm;
  const std::size_t n = 512 * 1024;  // rendezvous-sized: must pin to land
  const std::array<mem::VirtAddr, 2> buf{comm.process(0).heap.malloc(n),
                                         comm.process(1).heap.malloc(n)};
  const auto expect = pattern(n, 0x5047);
  comm.process(0).as.write(buf[0], expect);
  std::array<core::Status, 2> st;
  const auto transfer = [&](int tag) {
    mpi::run_ranks(r.c->eng, 2, [&](int i) {
      return one_way(comm, i, tag, buf[i], n, st[i]);
    });
  };
  r.c->hosts[1]->memory().set_pin_quota(0);
  transfer(1);
  const core::Counters& c = comm.process(1).lib.counters();
  if (st[0].ok || st[1].ok) fail(r.failures, "starved transfer succeeded");
  // The receiver's pin job fails and its pull aborts; the ABORT fails the
  // send.
  if (st[0].cause != Cause::kRemoteAbort || st[1].cause != Cause::kPinFailed) {
    fail(r.failures, "starved transfer ended in send %s / recv %s",
         core::abort_cause_name(st[0].cause),
         core::abort_cause_name(st[1].cause));
  }
  if (c.pins_denied == 0 || c.pin_retry_exhausted == 0) {
    fail(r.failures, "starvation not visible in counters");
  }
  say(r,
      "  starved: send ok=%d recv ok=%d denied=%llu retries=%llu "
      "exhausted=%llu aborts=%llu\n",
      st[0].ok, st[1].ok, ull(c.pins_denied), ull(c.pin_retries),
      ull(c.pin_retry_exhausted), ull(c.aborts));

  r.c->hosts[1]->memory().set_pin_quota(kNoQuota);
  st = {};
  transfer(2);
  std::vector<std::byte> got(n);
  comm.process(1).as.read(buf[1], got);
  if (!st[0].ok || !st[1].ok || got != expect) {
    fail(r.failures, "post-starvation retry failed");
    return;
  }
  ++r.ok;
  r.delivered += n;
  say(r, "  recovered: retry bit-exact, failed_resets=%llu\n",
      ull(c.pin_fail_resets));
}

// --- Pumps (crash, cluster) --------------------------------------------------
//
// A coroutine blocked on a request of a killed library would never resume,
// so the pumps post nonblocking requests and step the engine in slices.

/// Drops the handles of killed libraries (a death outlasts a slice, so none
/// survives into a restart); true while a request is pending.
bool pending(Run& r, Flight& f) {
  bool any = false;
  for (Req& q : f.q) {
    if (q.h && !r.alive(q.owner)) q.h.reset();
    any |= q.h && !q.h->completed();
  }
  return any;
}

/// Reclaims requests a dead peer or a loss burst orphaned.
void cancel_stuck(Run& r, Flight& f) {
  for (Req& q : f.q) {
    if (q.h && !q.h->completed() && r.alive(q.owner) &&
        r.ep(q.owner).lib.cancel(*q.h)) {
      ++r.canceled;
    }
  }
}

/// Cancels, newest first, what a post that raced a death declaration left.
void cancel_posted(Run& r, Flight& f) {
  for (auto q = f.q.rbegin(); q != f.q.rend(); ++q) {
    if (q->h && !q->h->completed()) r.ep(q->owner).lib.cancel(*q->h);
  }
}

/// Counts a drained exchange and checks that its payload arrived bit-exact;
/// true when both counted requests succeeded.
bool settle(Run& r, const Flight& f) {
  const bool sok = f.q[0].h && f.q[0].h->status().ok;
  const bool rok = f.q[1].h && f.q[1].h->status().ok;
  ++(sok && rok ? r.ok : r.failed);  // failures are expected, never silent
  if (sok && rok) r.delivered += f.size;
  if (rok && r.alive(f.q[1].owner)) {
    std::vector<std::byte> got(f.size);
    r.ep(f.q[1].owner).as.read(f.rcv, got);
    if (got != f.expect) {
      ++r.mismatches;
      std::printf("  CORRUPT: %zu->%zu size=%zu\n", f.q[0].owner,
                  f.q[1].owner, f.size);
    }
  }
  return sok && rok;
}

/// Survivor (host 0) <-> victim (host 1, slot 0) exchanges, at most four in
/// flight, while the victim is killed and restarted.
void crash_pump(Run& r) {
  sim::Engine& eng = r.c->eng;
  core::Host::Process& surv = r.ep(0);
  const std::size_t victim = kPerHost, bystander = kPerHost + 1;
  {
    // The bystander keeps one region pinned, so the victim host's pinned
    // baseline is nonzero and the per-crash reclaim proof bites.
    const std::size_t n = 256 * 1024;
    const mem::VirtAddr src = r.ep(bystander).heap.malloc(n);
    const mem::VirtAddr dst = surv.heap.malloc(n);
    r.ep(bystander).as.write(src, pattern(n, 0xb57));
    Flight f;
    f.q[1] = {surv.lib.irecv(0xb00, ~0ull, dst, n), 0};
    f.q[0] = {r.ep(bystander).lib.isend(surv.addr(), 0xb00, src, n),
              bystander};
    const sim::Time until = eng.now() + 100 * sim::kMillisecond;
    while (pending(r, f) && eng.now() < until) {
      eng.run_until(eng.now() + kSlice);
    }
    if (pending(r, f) || !f.q[0].h->status().ok || !f.q[1].h->status().ok) {
      fail(r.failures, "bystander warm-up did not complete");
    }
  }
  r.life->start();

  constexpr std::size_t kWindow = 4, kMaxMsg = 96 * 1024;
  std::array<mem::VirtAddr, 2 * kWindow> bufs{};  // slot k: snd 2k, rcv 2k+1
  std::array<bool, kWindow> busy{};
  for (mem::VirtAddr& b : bufs) b = surv.heap.malloc(kMaxMsg);
  const std::size_t target = r.st.crashes[r.quick ? 0 : 1];
  const sim::Time deadline = eng.now() + 5 * sim::kSecond;
  std::list<Flight> flights;
  for (std::uint32_t cycle = 0;;) {
    const bool done = r.life->stats().crashes >= target && r.life->quiescent();
    if (done && flights.empty()) break;
    if (eng.now() > deadline) {
      fail(r.failures, "pump stalled (%zu flight(s) stuck)", flights.size());
      break;
    }
    eng.run_until(eng.now() + kSlice);
    const bool up = r.alive(victim);
    for (auto it = flights.begin(); it != flights.end();) {
      if (pending(r, *it)) {
        if (eng.now() - it->posted > 3 * sim::kMillisecond) {
          cancel_stuck(r, *it);
          it->posted = eng.now();  // re-arm instead of spamming cancels
        }
        ++it;
        continue;
      }
      settle(r, *it);
      if (up && r.life->stats().restarts == it->born) {
        r.ep(victim).heap.free(it->v_src);
        r.ep(victim).heap.free(it->v_dst);
      }
      busy[it->slot] = false;
      it = flights.erase(it);
    }
    if (done || !up || flights.size() >= kWindow) continue;
    // A watchdog already declared one side dead: a post would fail fast.
    if (r.c->hosts[0]->driver().peer_dead(r.c->hosts[1]->nic().node_id()) ||
        r.c->hosts[1]->driver().peer_dead(r.c->hosts[0]->nic().node_id())) {
      ++r.skipped;
      continue;
    }
    const auto slot = std::find(busy.begin(), busy.end(), false);
    if (slot == busy.end()) continue;
    *slot = true;
    core::Host::Process& vict = r.ep(victim);
    Flight f;
    f.size = cycle % 2 == 0 ? kEager : kMaxMsg;
    f.posted = eng.now();
    f.slot = static_cast<std::size_t>(slot - busy.begin());
    f.rcv = bufs[2 * f.slot + 1];
    f.born = r.life->stats().restarts;
    f.expect = pattern(f.size, cycle * 2 + 1);
    const std::uint64_t to_vict = 0x0100'0000'0000ull | cycle;
    const std::uint64_t to_surv = 0x0200'0000'0000ull | cycle;
    try {
      f.v_dst = vict.heap.malloc(f.size);
      f.v_src = vict.heap.malloc(f.size);
      vict.as.write(f.v_src, f.expect);
      f.q[3] = {vict.lib.irecv(to_vict, ~0ull, f.v_dst, f.size), victim};
      f.q[2] = {vict.lib.isend(surv.addr(), to_surv, f.v_src, f.size), victim};
      surv.as.write(bufs[2 * f.slot], pattern(f.size, cycle * 2));
      f.q[1] = {surv.lib.irecv(to_surv, ~0ull, f.rcv, f.size), 0};
      f.q[0] = {surv.lib.isend(vict.addr(), to_vict, bufs[2 * f.slot], f.size),
                0};
    } catch (const core::PeerDeadError&) {
      ++r.skipped;  // raced a death declaration: drains like any flight
      cancel_posted(r, f);
    }
    flights.push_back(std::move(f));
    ++cycle;
  }

  const auto& life = r.life->stats();
  const auto& wd = r.c->hosts[0]->watchdog()->stats();
  std::uint64_t fenced = surv.lib.counters().fenced_stale_frames;
  if (r.alive(victim)) {
    const core::Counters& vc = r.ep(victim).lib.counters();
    fenced += vc.fenced_stale_frames;
    if (vc.lifecycle_crashes != life.crashes ||
        vc.lifecycle_restarts != life.restarts) {
      fail(r.failures, "slot lifecycle counters diverge from the injector");
    }
  }
  r.tally.crashes = life.crashes;
  r.tally.reclaimed = r.obs->lifecycle.totals().reclaimed_pages;
  say(r,
      "  lifecycle: crashes=%llu restarts=%llu flaps=%llu nic_resets=%llu "
      "reclaimed_pages=%llu\n"
      "  watchdog:  deaths=%llu revivals=%llu beats=%llu/%llu  fenced=%llu "
      "hb_timeouts=%llu\n"
      "  traffic:   ok_pairs=%llu failed=%llu dead_windows=%llu "
      "canceled=%llu  -> %s\n",
      ull(life.crashes), ull(life.restarts), ull(life.flaps),
      ull(life.nic_resets), ull(r.tally.reclaimed), ull(wd.deaths),
      ull(wd.revivals), ull(wd.beats_heard), ull(wd.beats_sent), ull(fenced),
      ull(surv.lib.counters().heartbeat_timeouts), ull(r.ok), ull(r.failed),
      ull(r.skipped), ull(r.canceled),
      r.mismatches == 0 ? "bit-exact" : "CORRUPTED");
}

double jain_index(const std::vector<std::uint64_t>& xs) {
  double sum = 0.0, sq = 0.0;
  for (const std::uint64_t x : xs) {
    const double v = static_cast<double>(x);
    sum += v;
    sq += v * v;
  }
  if (sq == 0.0) return 1.0;  // nobody got anything: trivially fair
  return (sum * sum) / (static_cast<double>(xs.size()) * sq);
}

/// Round pump over 256 tenants: each round posts one message per sender,
/// XOR-paired across hosts (uniform) or 240 senders into endpoint 0
/// (incast), and drains it before the next.
void round_pump(Run& r, bool incast) {
  sim::Engine& eng = r.c->eng;
  std::vector<std::array<mem::VirtAddr, 2>> bufs(kEndpoints);  // snd, rcv
  const auto carve = [&r, &bufs](std::size_t e) {
    bufs[e][0] = r.ep(e).heap.malloc(kRendezvous);
    bufs[e][1] = r.ep(e).heap.malloc(kRendezvous);
  };
  for (std::size_t e = 0; e < kEndpoints; ++e) carve(e);
  std::vector<mem::VirtAddr> hub;  // one landing buffer per incast sender
  for (std::size_t s = kPerHost; incast && s < kEndpoints; ++s) {
    hub.push_back(r.ep(0).heap.malloc(kEager));
  }
  r.on_restart = carve;  // a killed process's address space died with it
  if (r.life) r.life->start();

  std::vector<std::vector<sim::Time>> lat(kEndpoints);
  std::vector<std::uint64_t> ok_by(kEndpoints, 0);
  std::vector<Flight> flights;
  flights.reserve(kEndpoints);
  for (int rd = 0; rd < r.n && r.failures == 0; ++rd) {
    flights.clear();
    const auto post = [&](std::size_t se, std::size_t re, std::size_t size,
                          mem::VirtAddr rcv) {
      Flight f;
      f.size = size;
      f.posted = eng.now();
      f.rcv = rcv;
      f.expect = pattern(size, static_cast<std::uint32_t>(rd) * 65536u +
                                   static_cast<std::uint32_t>(se));
      const std::uint64_t match = (static_cast<std::uint64_t>(rd) << 32) | se;
      try {
        r.ep(se).as.write(bufs[se][0], f.expect);
        f.q[1] = {r.ep(re).lib.irecv(match, ~0ull, rcv, size), re};
        f.q[0] = {r.ep(se).lib.isend(r.ep(re).addr(), match, bufs[se][0], size),
                  se};
        ++r.tally.posted;
      } catch (const core::PeerDeadError&) {
        // The library holds a half-posted request until it completes.
        ++r.skipped;
        f.counted = false;
        cancel_posted(r, f);
        if (!f.q[1].h) return;
      }
      flights.push_back(std::move(f));
    };
    // Intra-rack (^1, ^3) and cross-rack (^8, ^11) host pairs; the slot is
    // kept, so every endpoint sends and receives one message a round.
    constexpr std::size_t kMasks[4] = {1, 8, 3, 11};
    const std::size_t mask = kMasks[static_cast<std::size_t>(rd) % 4];
    for (std::size_t e = incast ? kPerHost : 0; e < kEndpoints; ++e) {
      const std::size_t p = (e / kPerHost ^ mask) * kPerHost + e % kPerHost;
      if (incast) {
        post(e, 0, kEager, hub[e - kPerHost]);
      } else if (!r.alive(e) || !r.alive(p)) {
        ++r.skipped;
      } else {
        const bool big = (static_cast<std::size_t>(rd) + e) % 8 == 0;
        post(e, p, big ? kRendezvous : kEager, bufs[p][1]);
      }
    }
    sim::Time stuck_at = eng.now() + 25 * sim::kMillisecond;
    for (int passes = 0;;) {
      bool busy = false;
      for (Flight& f : flights) busy |= pending(r, f);
      if (!busy) break;
      if (eng.now() > stuck_at) {
        if (++passes > 2) {
          fail(r.failures, "pump stalled in round %d", rd);
          break;
        }
        for (Flight& f : flights) cancel_stuck(r, f);
        stuck_at = eng.now() + 25 * sim::kMillisecond;
      }
      eng.run_until(eng.now() + kSlice);
    }
    for (const Flight& f : flights) {
      if (r.failures == 0 && f.counted && settle(r, f)) {
        // The exchange's own latency: post until both sides completed.
        const sim::Time done = std::max(f.q[0].h->completed_at(),
                                        f.q[1].h->completed_at());
        ++ok_by[f.q[0].owner];
        lat[f.q[0].owner].push_back(done - f.posted);
      }
    }
  }
  // Both victims end the stage alive, so the report's endpoint sections
  // match across the determinism pair.
  const std::size_t target = r.st.crashes[r.quick ? 0 : 1];
  const sim::Time until = eng.now() + sim::kSecond;
  while (r.life && eng.now() < until &&
         !(r.life->stats().crashes >= target && r.life->quiescent())) {
    eng.run_until(eng.now() + kSlice);
  }
  r.on_restart = nullptr;  // it refers to `bufs`, which dies with this frame

  // Per-tenant fairness digest, simulation-derived like the whole report.
  std::vector<std::uint64_t> denied(kEndpoints, 0);
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    if (r.alive(e)) denied[e] = r.ep(e).lib.counters().pins_denied;
  }
  sim::Time p99_min = 0, p99_max = 0;
  for (auto& l : lat) {
    if (l.size() < 8) continue;  // too few samples to rank
    std::sort(l.begin(), l.end());
    const sim::Time p = l[(99 * (l.size() - 1)) / 100];
    if (p99_min == 0 || p < p99_min) p99_min = p;
    p99_max = std::max(p99_max, p);
  }
  const core::Counters t = sum_counters(r);
  const double jain_ok = jain_index(ok_by);
  const double spread = p99_min > 0 ? static_cast<double>(p99_max) /
                                          static_cast<double>(p99_min)
                                    : 1.0;
  r.tally.arb = t.tenant_arb_requests;
  const std::uint64_t congestion = r.c->topo->congestion_dropped();
  const std::uint64_t fault = r.c->topo->fault_dropped();
  char digest[512];
  std::snprintf(
      digest, sizeof digest,
      "\"tenant_fairness\":{\"tenants\":%zu,\"jain_ok_pairs\":%.6f,"
      "\"jain_pin_denials\":%.6f,\"p99_spread_ratio\":%.6f,"
      "\"arb_requests\":%llu,\"arb_grants\":%llu,\"arb_sheds\":%llu,"
      "\"fault_dropped\":%llu,\"congestion_dropped\":%llu},",
      kEndpoints, jain_ok, jain_index(denied), spread, ull(r.tally.arb),
      ull(t.tenant_arb_grants), ull(t.tenant_sheds_suffered), ull(fault),
      ull(congestion));
  r.digest = digest;
  say(r,
      "  traffic: posted=%llu ok=%llu failed=%llu canceled=%llu "
      "dead_skips=%llu -> %s\n"
      "  fabric:  congestion_dropped=%llu fault_dropped=%llu "
      "uplink_stranded=%llu\n"
      "  tenants: arb_requests=%llu grants=%llu sheds=%llu "
      "jain_ok=%.4f p99_spread=%.2fx\n",
      ull(r.tally.posted), ull(r.ok), ull(r.failed), ull(r.canceled),
      ull(r.skipped), r.mismatches == 0 ? "bit-exact" : "CORRUPTED",
      ull(congestion), ull(fault), ull(r.c->topo->uplink_stranded()),
      ull(r.tally.arb),
      ull(t.tenant_arb_grants), ull(t.tenant_sheds_suffered), jain_ok,
      spread);
}

void uniform(Run& r) {
  round_pump(r, false);
}

/// Named predicate: incast overflows a switch queue, and with no injected
/// faults every drop is congestion.
void incast(Run& r) {
  round_pump(r, true);
  if (r.c->topo->congestion_dropped() == 0 || r.c->topo->fault_dropped()) {
    fail(r.failures, "incast without congestion, or with fault drops");
  }
}

// --- Suites -----------------------------------------------------------------

/// Named suite predicate: a Tally field summed over every stage's first run
/// reaches a floor, {quick, full}.
struct Floor {
  const char* what;
  std::uint64_t Tally::*field;
  std::array<std::uint64_t, 2> min;
};

struct Suite {
  const char* name;
  const char* title;
  const char* reproduces;
  core::StackConfig stack;
  std::uint64_t seed = 0, step = 0;  // stage i runs under seed + i * step
  std::vector<Stage> stages;
  std::vector<Floor> floors{};
  const char* passed = "";  // may print the first floor's count
  bool monotone = false;  // no stage may fail more exchanges than an earlier
};

std::vector<Stage> chaos_stages() {
  const net::FaultPlan mixed{
      .loss = 0.05, .corrupt = 0.02, .duplicate = 0.02, .reorder = 0.05};
  net::FaultPlan bursty = mixed;  // Gilbert-Elliott: exit 0.25, loss 1.0
  bursty.loss = 0.01;
  bursty.burst_enter = 0.02;
  const std::array<std::pair<const char*, net::FaultPlan>, 4> plans{{
      {"clean", {}},
      {"loss 2%", {.loss = 0.02}},
      {"loss 5% + corrupt/dup/reorder", mixed},
      {"bursty (Gilbert-Elliott) + corrupt/dup/reorder", bursty},
  }};
  std::vector<Stage> out;
  for (const auto& [label, plan] : plans) {
    out.push_back({.label = label, .drive = pingpong, .part = "pingpong",
                   .rounds = {3, 8}, .faults = plan});
    // Rank 0's report once, from the first stage that corrupts frames.
    out.push_back({.label = label, .drive = alltoallv, .part = "alltoallv",
                   .joins = true, .ranks = 4, .rounds = {2, 5},
                   .faults = plan, .show_report = label == plans[2].first});
  }
  return out;
}

std::vector<Stage> pressure_stages() {
  const auto stage = [](const char* label, mem::PressurePlan plan,
                        std::size_t quota = kNoQuota) {
    return Stage{.label = label, .drive = pingpong, .part = "pingpong",
                 .rounds = {3, 8}, .pressure = plan, .press_hosts = {0, 1},
                 .quota = quota, .show_report = quota != kNoQuota};
  };
  return {
      stage("clean", {}),
      stage("pin failures 10%", {.pin_fail = 0.10}),
      stage("bursty (Gilbert-Elliott) denial episodes",
            {.pin_fail = 0.05, .burst_enter = 0.02}),
      // 512 kB messages span 128 pages: 160 cannot hold the cached send and
      // the active receive region, so each iteration sheds and shrinks.
      stage("tight quota (160 pages) + pin failures 5%", {.pin_fail = 0.05},
            160),
      stage("notifier storms (sweep/migrate/cow) + pin failures 2%",
            {.pin_fail = 0.02, .sweep = 0.8, .sweep_pages = 16,
             .migrate = 0.5, .cow = 0.4}),
      {.label = "starvation probe (receiver quota 0)",
       .drive = starvation_probe, .part = "probe",
       .expect = causes({Cause::kPinFailed, Cause::kRemoteAbort})},
  };
}

std::vector<Stage> crash_stages() {
  const auto stage = [](const char* label, double loss, bool pressed,
                        double flap, double nic_reset) {
    return Stage{.label = label, .drive = crash_pump, .ranks = 0,
                 .faults = {.loss = loss}, .pressure = {.pin_fail = 0.05},
                 .press_hosts = pressed ? std::vector<std::size_t>{1}
                                        : std::vector<std::size_t>{},
                 .victims = {1}, .crashes = {30, 100}, .flap = flap,
                 .nic_reset = nic_reset, .expect = kCrashes};
  };
  return {stage("crash/restart only", 0.0, false, 0.0, 0.0),
          stage("crashes + 2% frame loss", 0.02, false, 0.0, 0.0),
          stage("crashes + 1% loss + pin pressure", 0.01, true, 0.0, 0.0),
          stage("crashes + loss + pressure + flaps + NIC resets", 0.01, true,
                0.35, 0.25)};
}

/// Wire ceiling of the fault-free uniform stage (1.007 quick and full): a
/// return of uplinks that polarize (1.13), of wasted re-pulls or of lockstep
/// retransmissions fails it.
constexpr double kUniformMaxAmplification = 1.05;

std::vector<Stage> cluster_stages() {
  return {
      // Wire ceilings sit just above the measured amplification (quick and
      // full).
      {.label = "uniform pairwise, intra+cross rack (256 endpoints)",
       .drive = uniform, .rounds = {50, 1200}, .racks = true,
       .quota = kRackQuota, .max_amplification = kUniformMaxAmplification},
      // A shallow hub downlink queue, so 240-into-1 must overflow it.
      {.label = "incast: 240 tenants into one hub (256 endpoints)",
       .drive = incast, .rounds = {50, 500}, .racks = true, .queue = 16,
       .quota = kRackQuota, .max_amplification = 2.0},
      {.label = "composed: 1% loss + pressure + crash/restart (256 endpoints)",
       .drive = uniform, .rounds = {40, 500}, .racks = true,
       .faults = {.loss = 0.01}, .pressure = {.pin_fail = 0.03},
       .press_hosts = {1}, .quota = kRackQuota, .victims = {1, 9},
       .crashes = {8, 40},
       // Lost frames (and the peer's ABORT for them), injected pin
       // failures, and pulls from a sender killed mid-transfer.
       .expect = kCrashes | causes({Cause::kRetryBudget, Cause::kRemoteAbort,
                                    Cause::kPinFailed, Cause::kPullStall}),
       .max_amplification = 1.15},
  };
}

/// The uniform stage at rising quotas, from the rack default up to 280. Each
/// round a host holds 2 rendezvous sends and 2 receives of 16 pages, a
/// 64-page working set every point here sits well above: each must complete
/// every exchange, and a larger quota may never fail more.
std::vector<Stage> quota_stages() {
  const std::array<std::pair<std::size_t, const char*>, 4> sweep{{
      {kRackQuota, "uniform at quota 160 (256 endpoints)"},
      {256, "uniform at quota 256 (256 endpoints)"},
      {264, "uniform at quota 264 (256 endpoints)"},
      {280, "uniform at quota 280 (256 endpoints)"},
  }};
  std::vector<Stage> out;
  for (const auto& [quota, label] : sweep) {
    out.push_back({.label = label, .drive = uniform, .rounds = {50, 1200},
                   .racks = true, .quota = quota,
                   .max_amplification = kUniformMaxAmplification});
  }
  return out;
}

std::vector<Suite> suites() {
  // Short timers: the paper's 1 s pessimistic timeouts would stretch a stage
  // of injected faults to hours of simulated time.
  core::StackConfig lossy = core::overlapped_cache_config();
  lossy.protocol.retransmit_timeout = 300 * sim::kMicrosecond;
  lossy.protocol.retransmit_backoff_max = 10 * sim::kMillisecond;
  lossy.protocol.pull_retry_timeout = 300 * sim::kMicrosecond;
  core::StackConfig pressure = lossy;
  pressure.pinning.pin_retry_backoff = 30 * sim::kMicrosecond;
  pressure.pinning.pin_retry_backoff_max = 2 * sim::kMillisecond;
  pressure.pinning.pin_retry_budget = 32;
  // A send into a dead peer resolves inside one victim downtime window.
  core::StackConfig lifecycle = pressure;
  lifecycle.protocol.retransmit_backoff_max = 2 * sim::kMillisecond;
  lifecycle.protocol.retry_budget = 12;
  lifecycle.pinning.pin_retry_backoff_max = sim::kMillisecond;
  lifecycle.pinning.pin_retry_budget = 16;
  // Abandoned pulls must abort inside one pump stall window: 24 ticks of
  // 300 us is about 7 ms of silence.
  core::StackConfig racks = lifecycle;
  racks.protocol.pull_stall_budget = 24;
  return {
      {.name = "chaos",
       .title = "Chaos soak: MXoE retransmission hardening under injected "
                "faults",
       .reproduces = "paper §3.3 drop-and-retransmit recovery, generalized "
                     "to loss, bursty loss, corruption, duplication and "
                     "reordering",
       .stack = lossy,
       .stages = chaos_stages(), .passed = "\nall stages bit-exact\n"},
      // Seeded so that pressure injector i gets seed 0x9e550e + i.
      {.name = "pressure",
       .title = "Pressure soak: graceful degradation under memory-subsystem "
                "chaos",
       .reproduces = "paper §3.1 unpin-under-pressure / repin-on-demand, "
                     "generalized to pin denial, quotas and notifier storms",
       .stack = pressure,
       .seed = 0x9e550eu ^ 0x9e55u, .stages = pressure_stages(),
       .passed = "\nall stages bit-exact, starvation handled gracefully\n"},
      {.name = "crash",
       .title = "Crash soak: kill/restart lifecycle faults with pin-state "
                "recovery",
       .reproduces = "paper §3.2 MMU-notifier teardown as the recovery path "
                     "for a dying process, plus watchdog liveness and epoch "
                     "fencing",
       .stack = lifecycle, .seed = 0xc4a5'11fe, .step = 0x9e3779b9u,
       .stages = crash_stages(),
       .floors = {{"crash cycles", &Tally::crashes, {100, 100}},
                  {"reclaimed pages", &Tally::reclaimed, {1, 1}}},
       .passed = "\n%llu crash cycles: reports byte-identical, every pinned "
                 "page reclaimed, no invariant violations\n"},
      {.name = "cluster",
       .title = "Cluster soak: rack-scale multi-tenant fabric with "
                "host-wide idle-pin reclaim",
       .reproduces = "paper §5 scaled out: N nodes behind shared switch "
                     "ports, a quota-denied pin job reclaiming idle pins "
                     "from every tenant process on its host",
       .stack = racks, .seed = 0xc1a5'7e25, .step = 0x9e3779b9u,
       .stages = cluster_stages(),
       .floors = {{"messages posted", &Tally::posted, {30'000, 500'000}},
                  {"cross-tenant reclaim requests", &Tally::arb, {1, 1}}},
       .passed = "\n%llu messages across 256 endpoints: reports "
                 "byte-identical, congestion and fault loss attributed "
                 "separately, idle pins reclaimed across tenants\n"},
      {.name = "quota",
       .title = "Quota sweep: the fault-free cluster stage at rising pin "
                "quotas",
       .reproduces = "paper §3.1 idle pins are revocable: any waiting pin "
                     "job reclaims idle regions, at quotas well above a "
                     "host's working set",
       .stack = racks, .seed = 0xc1a5'7e25, .stages = quota_stages(),
       .floors = {{"messages posted", &Tally::posted, {30'000, 500'000}}},
       .passed = "\n%llu messages: every quota completes every exchange\n",
       .monotone = true},
  };
}

// --- Runner -----------------------------------------------------------------

struct Result {
  int failures = 0;
  std::uint64_t failed = 0;  // exchanges that ended ok=false
  std::string report;  // byte-compared across the determinism pair
  Tally tally;
};

/// Builds the stage's cluster and injectors, drives its traffic, and checks
/// the engine, the invariants and the payloads. The run's flight dumps are
/// named `<name>-<k>.flight.json`; a traced run also writes
/// `<name>.trace.json` and `<name>.report.json`.
Result run_stage(const Suite& su, const Stage& st, const bench::Options& opt,
                 std::uint64_t seed, const std::string& name, bool traced,
                 bool loud) {
  Run r{.st = st, .quick = opt.quick, .loud = loud,
        .n = st.rounds[opt.quick ? 0 : 1]};
  if (st.racks) {
    const net::Topology::Config tc{.link = {.seed = seed ^ 0x70b0u},
                                   .downlink_queue_frames = st.queue};
    r.c = std::make_unique<bench::Cluster>(*opt.cpu, su.stack, tc,
                                           kEndpoints / kPerHost,
                                           /*cores=*/kPerHost + 1,
                                           /*memory_frames=*/4096);
    for (auto& h : r.c->hosts) {
      h->enable_pin_arbitration();
      h->memory().set_pin_quota(st.quota);
      for (std::size_t p = 0; p < kPerHost; ++p) h->spawn_process();
    }
  } else {
    r.c = std::make_unique<bench::Cluster>(*opt.cpu, su.stack, st.ranks,
                                           /*with_ioat=*/false);
    if (st.ranks == 0) {  // survivor; victim and bystander
      for (const std::size_t h : {0, 1, 1}) r.c->hosts[h]->spawn_process();
    }
  }
  // Heartbeats between each victim host and the host before it, set up
  // before the rig so the bus reaches them too.
  for (const std::size_t v : st.victims) {
    for (const std::size_t h : {v - 1, v}) {
      net::Watchdog& w =
          r.c->hosts[h]->enable_watchdog({.seed = (seed ^ 0x4deadu) + h});
      w.add_peer(r.c->hosts[h == v ? v - 1 : v]->nic().node_id());
      w.start();
    }
  }
  r.obs = std::make_unique<bench::ObsRig>(
      *r.c, traced ? name + ".trace.json" : "", name, st.expect);
  r.c->fabric->faults().set_plan(st.faults);
  for (std::size_t i = 0; i < st.press_hosts.size(); ++i) {
    core::Host& h = *r.c->hosts[st.press_hosts[i]];
    auto& inj = *r.press.emplace_back(
        std::make_unique<mem::PressureInjector>((seed ^ 0x9e55u) + i));
    inj.set_plan(st.pressure);
    inj.set_bus(&r.obs->bus);
    h.memory().set_pressure(&inj);
    if (st.quota != kNoQuota) h.memory().set_pin_quota(st.quota);
    if (!st.pressure.storms()) continue;
    for (std::size_t p = 0; p < h.process_count(); ++p) {
      inj.watch(&h.process(p).as);
    }
    inj.start_storm(r.c->eng);
  }
  const std::size_t target = st.crashes[opt.quick ? 0 : 1];
  if (target != 0) {
    // Downtime exceeds one pump slice, so every death window is observed.
    r.life = std::make_unique<sim::LifecycleInjector>(
        r.c->eng,
        sim::LifecycleInjector::Plan{
            .seed = seed, .victims = st.victims.size(),
            .uptime_min = 150 * sim::kMicrosecond,
            .uptime_max = 500 * sim::kMicrosecond,
            .downtime_min = 60 * sim::kMicrosecond,
            .downtime_max = 200 * sim::kMicrosecond,
            .ports = st.flap > 0.0 || st.nic_reset > 0.0 ? 2u : 0u,
            .flap_prob = st.flap, .flap_min = 30 * sim::kMicrosecond,
            .flap_max = 120 * sim::kMicrosecond,
            .nic_reset_prob = st.nic_reset, .max_crashes = target});
    r.life->set_hooks({
        .crash =
            [&r](std::size_t v) {
              r.c->hosts[r.st.victims[v]]->kill_process(0);
            },
        .restart =
            [&r](std::size_t v) {
              r.c->hosts[r.st.victims[v]]->restart_process(0);
              if (r.on_restart) r.on_restart(r.st.victims[v] * kPerHost);
            },
        .link =
            [&r](std::size_t port, bool up) {
              r.c->fabric->set_port_up(static_cast<net::NodeId>(port), up);
            },
        .nic_reset =
            [&r](std::size_t port) { r.c->hosts[port]->nic().reset(); },
    });
  }

  st.drive(r);
  check_aborts(r);
  check_wire(r);
  if (st.show_report && loud && r.mismatches + r.failed == 0) {
    std::printf("\n--- run report, rank 0 (stage: %s) ---\n%s\n", st.label,
                core::format_report(r.c->comm->process(0), *r.c->hosts[0])
                    .c_str());
  }

  if (!r.obs->check_engine()) fail(r.failures, "engine self-check");
  if (r.life && (r.life->stats().crashes != target ||
                 r.life->stats().restarts != target)) {
    fail(r.failures, "lifecycle schedule incomplete");
  }
  if (r.ok == 0) fail(r.failures, "no exchange ever completed");
  if (r.mismatches != 0) {
    fail(r.failures, "%llu corrupted payload(s)", ull(r.mismatches));
  }
  for (auto& inj : r.press) inj->set_bus(nullptr);
  if (const int v = r.obs->finish(); v != 0) {
    fail(r.failures, "%d invariant violation(s)", v);
  }
  Result res{r.failures, r.failed, r.obs->json_report(), r.tally};
  res.report.insert(1, r.digest);
  if (traced) bench::write_text(name + ".report.json", res.report);
  for (auto& h : r.c->hosts) h->memory().set_pressure(nullptr);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: soak <chaos|pressure|crash|cluster|quota> [options]";
  const std::string name = argc > 1 ? argv[1] : "";
  const std::vector<Suite> all = suites();
  const auto su = std::find_if(all.begin(), all.end(), [&](const Suite& s) {
    return name == s.name;
  });
  if (su == all.end()) {
    // Exits 0 on --help, 2 on an unknown argument such as a bad suite name.
    (void)bench::Options::parse(argc, argv, kUsage);
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }
  const auto opt = bench::Options::parse(argc - 1, argv + 1, kUsage);
  bench::print_header(su->title, su->reproduces);

  int failures = 0;
  Tally total;
  int sidx = -1;
  std::uint64_t fewest_failed = std::numeric_limits<std::uint64_t>::max();
  for (const Stage& st : su->stages) {
    if (!st.joins) {
      std::printf("stage: %s\n", st.label);
      ++sidx;
    }
    const std::uint64_t seed =
        su->seed + static_cast<std::uint64_t>(sidx) * su->step;
    std::string out = opt.trace_out.empty() ? su->name : opt.trace_out;
    out += "-s" + std::to_string(sidx);
    if (st.part != nullptr) out += std::string("-") + st.part;
    // Determinism pair: one seed, untraced (wall-clock metrics are trace
    // only), reports byte-identical.
    const Result a = run_stage(*su, st, opt, seed, out + "-a", false, true);
    const Result b = run_stage(*su, st, opt, seed, out + "-b", false, false);
    if (a.report != b.report) fail(failures, "determinism mismatch");
    if (su->monotone && a.failed > fewest_failed) {
      fail(failures, "%llu failed exchanges, more than an earlier stage's %llu",
           ull(a.failed), ull(fewest_failed));
    }
    fewest_failed = std::min(fewest_failed, a.failed);
    failures += a.failures + b.failures;
    total.crashes += a.tally.crashes;
    total.reclaimed += a.tally.reclaimed;
    total.posted += a.tally.posted;
    total.arb += a.tally.arb;
    if (opt.trace_out.empty()) continue;
    if (opt.quick) {
      failures += run_stage(*su, st, opt, seed, out, true, false).failures;
    } else {
      // A full-length trace would be gigabytes: keep run a's report.
      bench::write_text(out + ".report.json", a.report);
    }
  }
  for (const Floor& f : su->floors) {
    const std::uint64_t min = f.min[opt.quick ? 0 : 1];
    if (total.*f.field < min) {
      fail(failures, "only %llu %s (want >= %llu)", ull(total.*f.field),
           f.what, ull(min));
    }
  }
  if (failures != 0) {
    std::printf("\nFAIL: %d failure(s)\n", failures);
    return 1;
  }
  const auto count = su->floors.empty() ? 0 : total.*su->floors[0].field;
  std::printf(su->passed, ull(count));
  return 0;
}
