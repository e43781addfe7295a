#include "baseline/pipelined.hpp"

#include <stdexcept>
#include <vector>

namespace pinsim::baseline {

namespace {

/// Classic registration pipeline: at most `depth` chunks in flight, so the
/// pin of chunk k+1 overlaps the wire time of chunk k — and nothing more.
/// (MPICH-GM kept the pipeline shallow; that is what the paper's §5
/// contrasts with driver-level overlap.) `post(match, addr, n)` issues one
/// chunk; the first chunk that fails names the cause.
template <typename Post>
sim::Task<core::Status> pipeline(Post post, std::uint64_t match_base,
                                 mem::VirtAddr buf, std::size_t len,
                                 std::size_t chunk, std::size_t depth) {
  std::vector<core::RequestPtr> inflight;
  core::Status overall{true, false, len};
  std::uint64_t m = match_base;
  std::size_t off = 0;
  std::size_t drain = 0;
  while (off < len || drain < inflight.size()) {
    while (off < len && inflight.size() - drain < depth) {
      const std::size_t n = std::min(chunk, len - off);
      inflight.push_back(post(m++, buf + off, n));
      off += n;
    }
    co_await inflight[drain]->wait();
    const core::Status& st = inflight[drain]->status();
    if (!st.ok && overall.ok) {
      overall.ok = false;
      overall.cause = st.cause;
    }
    ++drain;
  }
  co_return overall;
}

}  // namespace

sim::Task<core::Status> chunked_send(core::Library& lib,
                                     core::EndpointAddr dest,
                                     std::uint64_t match_base,
                                     mem::VirtAddr buf, std::size_t len,
                                     std::size_t chunk) {
  if (chunk == 0) throw std::invalid_argument("zero chunk size");
  const auto post = [&lib, dest](std::uint64_t m, mem::VirtAddr a,
                                 std::size_t n) {
    return lib.isend(dest, m, a, n);
  };
  return pipeline(post, match_base, buf, len, chunk, /*depth=*/2);
}

sim::Task<core::Status> chunked_recv(core::Library& lib,
                                     std::uint64_t match_base,
                                     mem::VirtAddr buf, std::size_t len,
                                     std::size_t chunk) {
  if (chunk == 0) throw std::invalid_argument("zero chunk size");
  const auto post = [&lib](std::uint64_t m, mem::VirtAddr a, std::size_t n) {
    return lib.irecv(m, ~std::uint64_t{0}, a, n);
  };
  return pipeline(post, match_base, buf, len, chunk, /*depth=*/2);
}

}  // namespace pinsim::baseline
