// Collective primitives below allreduce: broadcast, and the ring
// reduce-scatter and ring allgather — the one ring schedule of the library.
//
// The ring pair is the bandwidth-optimal allreduce: ring_allreduce_sum
// (sum_allreduce.h) is a reduce-scatter followed by an allgather, and the
// hierarchical allreduce (§4.2.2) runs the same pair inside each node around
// its cross-node Adasum (NCCL reduce-scatter, cross-node Adasum, NCCL
// allgather). Chunk c of a count-n payload over a p-rank group covers
// [n*c/p, n*(c+1)/p) unless the caller passes explicit bounds, and after the
// reduce-scatter group-local rank j owns the fully reduced chunk (j+1) % p.
//
// Both ring phases take the same optional arguments:
//  * group — any distinct world ranks, in ring order; empty = the whole
//    world. Every member calls with the same group.
//  * bounds — an ascending table of group-size + 1 element offsets
//    (bounds.front() == 0, bounds.back() == count); chunk c covers
//    [bounds[c], bounds[c+1]). Empty = chunk_range. The hierarchical
//    allreduce keeps a RAGGED node's local phase on the world-wide shard
//    grid this way, so its cross-node groups reduce matching ranges.
//  * compression — the wire codec (DESIGN.md §13; kAuto follows the World).
//    The reduce-scatter ships each partial sum as a fresh blob and
//    decode-adds the incoming one; the allgather requantizes the owned chunk
//    once and forwards every owner's blob VERBATIM hop to hop, so every rank
//    decodes the same bytes and replicas stay bit-identical.
// Step s of a phase runs on tag_base + s, and each step's segment streams in
// comm.pipeline() chunks (DESIGN.md §12): the reduce-scatter adds each chunk
// as it lands, at bits identical to the monolithic transfer.
#pragma once

#include <cstddef>
#include <span>

#include "comm/world.h"
#include "tensor/tensor.h"

namespace adasum {

// Element range of chunk `c` of a `count`-element payload split `p` ways.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};
ChunkRange chunk_range(std::size_t count, int p, int c);

// The chunk index rank j owns after a ring reduce-scatter over p ranks.
inline int owned_chunk_after_reduce_scatter(int local_rank, int p) {
  return p > 1 ? (local_rank + 1) % p : 0;
}

// Broadcast `data` from `group[root_index]` to every rank in `group`
// (binomial tree). All group members call with the same arguments; non-root
// ranks receive into `data`.
void broadcast(Comm& comm, std::byte* data, std::size_t bytes,
               std::span<const int> group, int root_index, int tag_base = 0);

// Ring reduce-scatter (elementwise sum): after the call, the owned chunk of
// each rank holds the group-wide sum; other chunks hold partial garbage.
void ring_reduce_scatter_sum(Comm& comm, std::byte* data, std::size_t count,
                             DType dtype, std::span<const int> group = {},
                             int tag_base = 0,
                             std::span<const std::size_t> bounds = {},
                             const CompressionOptions& compression = {});

// Ring allgather: each rank contributes its owned chunk (per
// owned_chunk_after_reduce_scatter) and receives all others, each directly
// at its final offset.
void ring_allgather(Comm& comm, std::byte* data, std::size_t count,
                    DType dtype, std::span<const int> group = {},
                    int tag_base = 0, std::span<const std::size_t> bounds = {},
                    const CompressionOptions& compression = {});

// Tensor conveniences.
void broadcast(Comm& comm, Tensor& tensor, std::span<const int> group,
               int root_index, int tag_base = 0);

}  // namespace adasum
