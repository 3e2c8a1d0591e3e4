// Host-side launch geometry shared by the kernel API and the thread pool.
//
// ParallelForChunks (kernel.h) decides how a simulated grid is cut into host
// chunks, and ThreadPool (thread_pool.h) decides when a chunked job is too
// small to be worth a worker rendezvous. Both cutovers are functions of the
// same quantities, so they live here: keeping them in one place guarantees
// the inline thresholds cannot drift apart (a grid that kernel.h hands to
// the pool is always big enough that the pool would not have inlined it for
// being degenerate, and vice versa).
//
// None of this affects simulated time: chunking is pure host-side execution
// strategy, charged before any chunk runs.
#ifndef GPUSIM_LAUNCH_CONFIG_H_
#define GPUSIM_LAUNCH_CONFIG_H_

#include <algorithm>
#include <cstddef>
#include <limits>

namespace gpusim {

/// Number of simulated threads per block used by ParallelForChunks.
inline constexpr size_t kDefaultBlockSize = 256;

/// Smallest host-side chunk, in simulated threads: one chunk covers many
/// simulated blocks to amortize host scheduling.
inline constexpr size_t kMinChunkThreads = kDefaultBlockSize * 16;

/// Grids of at most this many simulated threads run inline on the calling
/// thread, skipping the thread pool (and its chunking arithmetic) entirely.
/// Equals the minimum host-side chunk, so the cutover is exactly the point
/// where the grid would have produced a single chunk anyway.
inline constexpr size_t kInlineGridThreshold = kMinChunkThreads;

/// Host chunk size (in simulated threads) for an n-thread grid on a pool of
/// `pool_threads` workers: roughly eight chunks per worker for load balance,
/// never below kMinChunkThreads.
constexpr size_t HostChunkThreads(size_t n, unsigned pool_threads) {
  return std::max<size_t>(
      kMinChunkThreads, n / (static_cast<size_t>(pool_threads) * 8 + 1));
}

/// Number of host chunks an n-thread grid yields at the given chunk size.
constexpr size_t NumHostChunks(size_t n, size_t chunk) {
  return (n + chunk - 1) / chunk;
}

/// Pool-level cutover: jobs with at most this many chunks run inline on the
/// submitting thread because a rendezvous with the workers costs more than
/// the chunks themselves. With no workers at all everything is inline.
constexpr size_t PoolInlineChunkThreshold(unsigned pool_threads) {
  return pool_threads <= 1 ? std::numeric_limits<size_t>::max()
                           : std::max<size_t>(1, pool_threads / 4);
}

}  // namespace gpusim

#endif  // GPUSIM_LAUNCH_CONFIG_H_
