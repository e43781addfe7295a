#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "mpi/communicator.hpp"
#include "sim/time.hpp"

namespace pinsim::workloads {

/// Intel MPI Benchmarks-style kernels — the workloads behind the paper's
/// Figures 6-7 (PingPong) and Table 2 (SendRecv, Allgatherv, Broadcast,
/// Reduce, Allreduce, Reduce_scatter, Exchange).
///
/// IMB semantics: buffers are allocated once at the largest size and reused
/// every iteration (which is what makes registration caches shine); the
/// reported time is the average per iteration after a warmup pass.
class ImbSuite {
 public:
  struct Config {
    int iterations = 10;
    int warmup = 1;
    /// When > 1, rotate through this many distinct buffers instead of
    /// reusing one — the "application cannot benefit from the pinning
    /// cache" scenario of §4.2 where only overlap helps.
    std::size_t buffer_rotation = 1;
  };

  struct Result {
    std::string benchmark;
    std::size_t bytes = 0;       // message size parameter
    double avg_usec = 0.0;       // per iteration
    double mib_per_sec = 0.0;    // payload throughput (PingPong convention)
  };

  ImbSuite(mpi::Communicator& comm, Config cfg);
  ImbSuite(mpi::Communicator& comm) : ImbSuite(comm, Config()) {}
  ~ImbSuite();

  ImbSuite(const ImbSuite&) = delete;
  ImbSuite& operator=(const ImbSuite&) = delete;

  /// Rank 0 <-> rank 1 round trips; throughput = bytes / (t_roundtrip / 2).
  Result pingpong(std::size_t bytes);

  /// Ring: every rank sends right and receives from left simultaneously.
  Result sendrecv(std::size_t bytes);

  /// Every rank exchanges with both neighbours (isend x2 + recv x2).
  Result exchange(std::size_t bytes);

  Result allgatherv(std::size_t bytes);
  Result bcast(std::size_t bytes);
  Result reduce(std::size_t bytes);
  Result allreduce(std::size_t bytes);
  Result reduce_scatter(std::size_t bytes);

  /// Runs `name` ("PingPong", "SendRecv", "Allgatherv", "Bcast", "Reduce",
  /// "Allreduce", "Reduce_scatter", "Exchange"); throws on unknown names.
  Result run(const std::string& name, std::size_t bytes);

  [[nodiscard]] static const std::vector<std::string>& benchmark_names();

  /// Ensures each rank has send/recv buffers of at least `send_cap` /
  /// `recv_cap` bytes, one pair per rotation slot. Every benchmark calls it
  /// before measuring.
  void reserve(std::size_t send_cap, std::size_t recv_cap);

 private:
  /// Per-rank persistent buffers (IMB allocates once at max size).
  struct Buffers {
    std::vector<mem::VirtAddr> send;  // one per rotation slot
    std::vector<mem::VirtAddr> recv;
    std::size_t capacity = 0;
  };

  [[nodiscard]] mem::VirtAddr sbuf(int rank, int iter) const;
  [[nodiscard]] mem::VirtAddr rbuf(int rank, int iter) const;

  /// Runs `iter_body(rank, iter)` cfg.warmup + cfg.iterations times with a
  /// leading barrier, timing only the measured iterations.
  Result measure(const std::string& name, std::size_t bytes,
                 const std::function<sim::Task<>(int, int)>& iter_body,
                 double throughput_factor);

  mpi::Communicator& comm_;
  Config cfg_;
  std::vector<Buffers> bufs_;  // per rank
};

}  // namespace pinsim::workloads
