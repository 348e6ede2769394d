// Unified allreduce entry point — the hvd.allreduce(…, op=…) analogue.
//
// Dispatches on ReduceOp and AllreduceAlgo:
//   Sum/Average + auto  → RVH when the world is a power of two, ring else.
//   Adasum      + auto  → AdasumRVH (Algorithm 1) at every world size, the
//                          same path as kRvh.
//   … + kRvh            → RVH / AdasumRVH at any world size (a
//                          non-power-of-two world folds its extra ranks
//                          into the power-of-two core, rvh_executor.h).
//   … + kRing           → ring sum / linear (chain-order) Adasum.
//   … + kHierarchical   → §4.2.2 hierarchy with options.ranks_per_node.
// Average is sum scaled by 1/p after the reduction.
#pragma once

#include "collectives/ops.h"
#include "comm/world.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place allreduce of `tensor` across all ranks of `comm`.
void allreduce(Comm& comm, Tensor& tensor, const AllreduceOptions& options,
               int tag_base = 0);

// Convenience: allreduce several tensors as one fused payload with automatic
// per-tensor layer boundaries (§4.4.3 tensor fusion + §3.6 per-layer
// Adasum). Tensors must share a dtype. Results are written back in place.
void allreduce_fused(Comm& comm, const std::vector<Tensor*>& tensors,
                     const AllreduceOptions& options, int tag_base = 0);

// Same, but staging through a caller-held FusionBuffer so repeated rounds
// over the same layer layout reuse the fused backing store and boundary
// table instead of reallocating them every call.
void allreduce_fused(Comm& comm, const std::vector<Tensor*>& tensors,
                     const AllreduceOptions& options, FusionBuffer& buffer,
                     int tag_base = 0);

}  // namespace adasum
