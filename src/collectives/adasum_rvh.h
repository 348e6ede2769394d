// AdasumRVH — the paper's Algorithm 1.
//
// A recursive-vector-halving allreduce modified to host the (non-
// elementwise) Adasum operator. Each reduce-scatter level:
//   1. exchanges vector halves with the neighbor at distance d, so the
//      "left" rank ends up holding slices of the left subgroup's logical
//      vector (a) and the right subgroup's (b);
//   2. computes PARTIAL dot products v = [a·b, a·a, b·b] on the local slice
//      (per layer when a boundary table is supplied, §3.6);
//   3. allreduces v across the 2d-rank group so every member has the full
//      dot products (Algorithm 1 line 17 — the extra communication step the
//      elementwise MPI user-op could not express);
//   4. applies x' = a(1 - v1/2v2) + b(1 - v1/2v3) locally.
// After the recursion bottoms out, a mirrored allgather reassembles the
// combined vector on all ranks.
//
// Algorithm 1 needs a power-of-two group; any other group size first folds
// each extra member into a core member with a pairwise Adasum
// (rvh_executor.h). The dispatcher's kAuto still sends non-power-of-two
// worlds to a gather-based tree (allreduce.h).
#pragma once

#include <span>

#include "comm/world.h"
#include "tensor/fusion.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place Adasum allreduce of `count` elements of `dtype` at `data`.
// `slices` — layer boundaries in elements over the full payload; pass empty
// to treat the payload as a single layer. `tag_base` namespaces this
// collective's messages so several collectives can share a Comm. `group`
// restricts the reduction to a subset of world ranks (all of whom must call
// with the same group; empty = all ranks) — the hierarchical allreduce uses
// this for its cross-node phase. `compression` selects the wire codec for
// the halving exchange and allgather transfers (DESIGN.md §13); kAuto
// follows the World, and the dot-triple allreduce always travels exact.
void adasum_rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                          DType dtype,
                          std::span<const TensorSlice> slices = {},
                          int tag_base = 0, std::span<const int> group = {},
                          const CompressionOptions& compression = {});

// Tensor convenience overload (in place).
void adasum_rvh_allreduce(Comm& comm, Tensor& tensor,
                          std::span<const TensorSlice> slices = {},
                          int tag_base = 0, std::span<const int> group = {},
                          const CompressionOptions& compression = {});

}  // namespace adasum
