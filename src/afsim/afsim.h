// Umbrella header for the ArrayFire-like library simulation.
//
// Module note. An `array` is a handle onto a lazy expression graph
// (node.h); element-wise operators only build nodes (ops.cc). eval.cc
// materializes a tree as ONE charged kernel, "af::jit_fused", whose stats
// (bytes of each distinct leaf, bytes written, n x tree size ops) are the
// only thing the cost model sees. On the host the tree is compiled once per
// eval into typed tile ops over int64/double register lanes (with a 32-bit
// lane for values known to fit) and run kJitTile elements at a time on each
// pool chunk: bit-identical to evaluating the tree element by element, at
// the speed of a typed loop.
//
// where() (algorithm.cc) charges the flag kernel, the exclusive scan's
// kernels and scratch arrays, the two 4-byte copies of the last position and
// flag, and the scatter kernel, in that order, as the canonical compaction
// does; the host executes them as one chunked count / prefix / write pass
// (gpusim::detail::ChunkedCompaction). The ArrayFire backend's nested-loops
// join still issues one where(right == key) per build row: that per-row
// realization is the paper's "partial support" finding, and only its host
// cost changed.
#ifndef AFSIM_AFSIM_H_
#define AFSIM_AFSIM_H_

#include "afsim/array.h"
#include "afsim/node.h"

#endif  // AFSIM_AFSIM_H_
