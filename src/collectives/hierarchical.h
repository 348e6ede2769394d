// Hierarchical Adasum allreduce (paper §4.2.2), topology-aware.
//
// When HOROVOD_HIERARCHICAL_ALLREDUCE is set, Horovod reduces in three
// phases: (1) an NCCL reduce-scatter among the GPUs inside each node, (2) a
// cross-node AdasumRVH on each GPU's shard (GPU j of every node forms one
// cross-node group), and (3) an NCCL allgather inside the node. The local
// phase averages the node's gradients — the node acts as one logical Adasum
// worker with a larger effective microbatch — and the Adasum operator is
// applied only across nodes, matching Horovod's semantics.
//
// Group formation is no longer fixed-arity. The world splits into nodes of
// `ranks_per_node` consecutive ranks with a possibly RAGGED last node (world
// need not be a multiple), and the cross-node phase handles ANY node count:
// each shard's cross phase is one RVH call on its cross group, and the RVH
// executor folds a non-power-of-two group — the extra nodes pre-combine
// pairwise into the power-of-two core before the recursion and receive the
// result afterwards (rvh_executor.h). The local phases of a ragged node use
// shard-aligned chunk boundaries (the `bounds` of the primitives.h rings) so
// every node partitions the payload on the same world-wide
// `ranks_per_node`-way shard grid and the per-shard cross groups reduce
// matching element ranges;
// a ragged rank simply owns several shards and runs their cross collectives
// back to back (the groups are channel-disjoint, so they cannot interfere).
// Callers that derive the arity from modeled link speed pass
// `Topology::group_size_by_link_speed`, which collapses the grouping to flat
// when the local fabric is no faster than the network.
//
// Note on dot-product scope: the cross-node Adasum computes its dot products
// within each shard (further split by any layer boundaries that intersect
// the shard), not across the whole vector — shard boundaries effectively act
// as additional layer boundaries. This mirrors the shipped Horovod behavior,
// where the MPI Adasum op sees only the buffer each GPU owns after the local
// reduce-scatter.
#pragma once

#include <span>

#include "comm/world.h"
#include "tensor/fusion.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place hierarchical allreduce. `ranks_per_node` consecutive ranks form a
// node; any world size works (the last node may be ragged and the node count
// need not be a power of two — see the header comment). When `use_adasum` is
// false the cross-node phase is a plain sum-RVH (the baseline hierarchical
// allreduce of §5.1.1); the local phase averages either way only when
// `use_adasum` is true (sum mode matches plain sum). `compression` applies
// to the CROSS-NODE phase only — that is the slow inter-node wire the codec
// exists for; the intra-node reduce-scatter and allgather model fast local
// links and stay exact (DESIGN.md §13), and so do the fold transfers of a
// non-power-of-two node count (rvh_executor.h).
void hierarchical_allreduce(Comm& comm, std::byte* data, std::size_t count,
                            DType dtype, int ranks_per_node, bool use_adasum,
                            std::span<const TensorSlice> slices = {},
                            int tag_base = 0,
                            const CompressionOptions& compression = {});

void hierarchical_allreduce(Comm& comm, Tensor& tensor, int ranks_per_node,
                            bool use_adasum,
                            std::span<const TensorSlice> slices = {},
                            int tag_base = 0,
                            const CompressionOptions& compression = {});

}  // namespace adasum
