// Kernel launch API of the simulated device.
//
// Three launch shapes cover the algorithms in this repository:
//  * ParallelFor       — a grid of independent threads, f(i) per global
//                        index.
//  * ParallelForChunks — the same grid, charged identically, but the body
//                        runs once per host chunk as f(begin, end). A kernel
//                        keeps chunk-private state in host memory (the
//                        analogue of a block's shared memory) and touches
//                        shared atomics once per chunk instead of once per
//                        simulated thread: privatized group-by, segmented
//                        combines, ticketed compactions.
//  * LaunchBlocks      — a grid of cooperative thread *blocks*; the body runs
//                        once per block and may loop over the block's
//                        threads, modelling shared-memory algorithms (tile
//                        reduce, block scan, histogram) whose intra-block
//                        execution is sequentialized, which preserves
//                        semantics.
//
// Every shape charges the owning stream with the declared KernelStats before
// any host code runs, and nothing else: the stats are the only input to the
// cost model. How the host executes a grid (inline, chunked, privatized) can
// change wall-clock time but never simulated time. Grids are distributed over
// the device's host thread pool.
#ifndef GPUSIM_KERNEL_H_
#define GPUSIM_KERNEL_H_

#include <algorithm>
#include <cstddef>

#include "gpusim/launch_config.h"
#include "gpusim/stream.h"

namespace gpusim {

/// Launches the grid ParallelFor(stream, n, stats, ...) launches, with the
/// same charge, but calls body(begin, end) once per host chunk; the chunks
/// partition [0, n) exactly once. Chunks run concurrently, so the body may
/// keep private state for its own range but must combine into shared state
/// with atomics. Chunk boundaries are a host execution detail: results must
/// not depend on them beyond the order of atomic tickets.
template <typename Body>
void ParallelForChunks(Stream& stream, size_t n, KernelStats stats,
                       Body&& body) {
  stats.ops = std::max<uint64_t>(stats.ops, n);  // at least one op per thread
  stream.ChargeKernel(stats);
  if (n == 0) return;
  if (n <= kInlineGridThreshold) {
    // Small-grid fast path: the pool dispatch would cost more host time than
    // the loop itself. Simulated time is unaffected (charged above).
    body(size_t{0}, n);
    return;
  }
  // Use coarse host-side chunks: each chunk covers many simulated blocks to
  // amortize scheduling on the host (geometry shared with the pool via
  // launch_config.h).
  const size_t chunk =
      HostChunkThreads(n, stream.device().pool().num_threads());
  const size_t num_chunks = NumHostChunks(n, chunk);
  stream.device().pool().ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    body(begin, std::min(begin + chunk, n));
  });
}

/// Launches `n` independent simulated threads; body(i) for i in [0, n).
/// The body must be safe to run concurrently for distinct i.
template <typename Body>
void ParallelFor(Stream& stream, size_t n, KernelStats stats, Body&& body) {
  ParallelForChunks(stream, n, stats, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

/// Context passed to a block kernel body.
struct BlockContext {
  size_t block_id = 0;
  size_t num_blocks = 0;
  size_t block_size = 0;
};

/// Launches `num_blocks` cooperative blocks; body(ctx) once per block.
template <typename Body>
void LaunchBlocks(Stream& stream, size_t num_blocks, size_t block_size,
                  KernelStats stats, Body&& body) {
  stats.ops = std::max<uint64_t>(stats.ops, num_blocks * block_size);
  stream.ChargeKernel(stats);
  if (num_blocks == 0) return;
  stream.device().pool().ParallelFor(num_blocks, [&](size_t b) {
    BlockContext ctx;
    ctx.block_id = b;
    ctx.num_blocks = num_blocks;
    ctx.block_size = block_size;
    body(ctx);
  });
}

}  // namespace gpusim

#endif  // GPUSIM_KERNEL_H_
