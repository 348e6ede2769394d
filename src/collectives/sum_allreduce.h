// Elementwise sum/average allreduces — the synchronous-SGD baselines.
//
// Two schedules are provided:
//  * ring: the classic bandwidth-optimal ring, works for any world size. It
//    is the ring reduce-scatter (p-1 steps) followed by the ring allgather
//    (p-1 steps) of primitives.h, the same pair the hierarchical allreduce
//    runs inside each node;
//  * rvh: recursive vector halving + doubling, latency-and-bandwidth optimal
//    on hypercubes (Chan et al.); other sizes fold their extra ranks into the
//    power-of-two core.
// Both produce the identical elementwise sum; tests assert so.
#pragma once

#include <cstddef>
#include <span>

#include "comm/world.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place ring sum-allreduce over the whole world: ring_reduce_scatter_sum
// on tag_base, then ring_allgather on tag_base + p. `compression` selects the
// wire codec (DESIGN.md §13; kAuto follows the World): reduce-scatter
// segments ship as fresh blobs, while the allgather forwards each owner's
// blob VERBATIM hop to hop so every rank decodes the same stream and
// replicas stay bit-identical.
void ring_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                        DType dtype, int tag_base = 0,
                        const CompressionOptions& compression = {});

// In-place recursive-vector-halving sum-allreduce. `group` restricts the
// reduction to a subset of world ranks (empty = the whole world; all members
// must call with the same group) — the hierarchical allreduce runs its
// cross-node sum phase this way. Any group size (a non-power-of-two group
// folds). Runs on the RVH executor shared with AdasumRVH (rvh_executor.h),
// so its compressed unwind forwards owner sub-blobs exactly like the Adasum
// RVH (see compressed.h).
void rvh_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                       DType dtype, int tag_base = 0,
                       std::span<const int> group = {},
                       const CompressionOptions& compression = {});

void ring_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base = 0,
                        const CompressionOptions& compression = {});
void rvh_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base = 0,
                       const CompressionOptions& compression = {});

}  // namespace adasum
