#include "collectives/hierarchical.h"

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/adasum_rvh.h"
#include "collectives/primitives.h"
#include "collectives/sum_allreduce.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

// The node-local phases model fast local links and stay exact whatever the
// World's wire default (hierarchical.h).
const CompressionOptions kExact{.mode = CompressionMode::kNone};

// The world splits on a uniform S = ranks_per_node shard grid. A node of
// size s < S (the ragged last node) runs its local ring phases over s
// SHARD-ALIGNED chunks: chunk c covers shards [S*c/s, S*(c+1)/s), so every
// node — whatever its size — reduces whole shards and the per-shard
// cross-node groups operate on identical element ranges. For s == S this
// degenerates to one shard per chunk, i.e. the classic chunk_range split.
int first_shard_of_chunk(int S, int s, int c) { return S * c / s; }

// The local chunk index that contains shard k in a node of size s (inverse
// of first_shard_of_chunk): the largest c with S*c/s <= k.
int chunk_of_shard(int S, int s, int k) { return (s * (k + 1) - 1) / S; }

// Group-local owner of shard k inside a node of size s: the ring leaves
// chunk c with local rank (c-1+s) % s (owned_chunk_after_reduce_scatter run
// backwards). For a full node this is the familiar (k-1+S) % S.
int local_owner_of_shard(int S, int s, int k) {
  return (chunk_of_shard(S, s, k) - 1 + s) % s;
}

}  // namespace

void hierarchical_allreduce(Comm& comm, std::byte* data, std::size_t count,
                            DType dtype, int ranks_per_node, bool use_adasum,
                            std::span<const TensorSlice> slices,
                            int tag_base,
                            const CompressionOptions& compression) {
  const int world = comm.size();
  ADASUM_CHECK_GE(ranks_per_node, 1);
  if (world == 1 || count == 0) return;
  // S: the world-wide shard grid every node's local phase aligns to.
  const int S = std::min(ranks_per_node, world);
  const int num_nodes = (world + S - 1) / S;

  const int rank = comm.rank();
  const int node = rank / S;
  const int local = rank % S;
  const int node_base = node * S;
  const int s = std::min(S, world - node_base);  // my node's size
  const std::size_t elem = dtype_size(dtype);

  // The phases below are collectives that declare their own epochs; this
  // outer epoch is observational only (declaring the traffic here too would
  // double-count the nested schedules).
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(),
                             "hierarchical_allreduce");

  // Per-call scratch lives in thread_local vectors whose capacity persists
  // across calls, so warm steady-state iterations allocate nothing (the
  // chaos/scaleout alloc gates pin this).
  thread_local std::vector<int> node_group;
  thread_local std::vector<std::size_t> bounds;
  thread_local std::vector<int> cross_group;
  thread_local std::vector<TensorSlice> rebased;

  // ---- Phase 1: local ring reduce-scatter over the node's ranks ----------
  // Chunk boundaries are shard-aligned (see first_shard_of_chunk); for a
  // full node they equal the plain chunk_range split, making this
  // bit-identical to the uniform schedule. After s-1 steps, local rank j
  // owns the fully summed chunk (j+1) % s.
  node_group.resize(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i)
    node_group[static_cast<std::size_t>(i)] = node_base + i;
  bounds.resize(static_cast<std::size_t>(s) + 1);
  for (int c = 0; c <= s; ++c)
    bounds[static_cast<std::size_t>(c)] =
        chunk_range(count, S, first_shard_of_chunk(S, s, c)).begin;
  ring_reduce_scatter_sum(comm, data, count, dtype, node_group, tag_base,
                          bounds, kExact);

  const int owned_chunk = owned_chunk_after_reduce_scatter(local, s);
  const std::size_t cb = bounds[static_cast<std::size_t>(owned_chunk)];
  const std::size_t ce = bounds[static_cast<std::size_t>(owned_chunk) + 1];

  if (use_adasum && s > 1 && ce > cb) {
    // The node acts as one logical worker: average the local sum so the
    // cross-node Adasum sees the node's mean gradient. A ragged node
    // averages over its own size.
    kernels::scale_bytes(1.0 / s, data + cb * elem, ce - cb, dtype);
  }

  // ---- Phase 2: cross-node reduction, one collective per owned shard -----
  // Each shard runs one RVH over its cross group, whatever the node count:
  // the RVH executor folds a non-power-of-two group itself (exact fold
  // transfers, see hierarchical.h). A full-node rank owns exactly one shard;
  // a ragged rank owns several and runs their cross collectives back to
  // back. The groups of distinct shards never share a (src, dst) channel —
  // every group has at most one ragged member, and a full node's
  // shard->owner map is injective — so the collectives cannot interfere
  // even though they share a tag namespace.
  if (num_nodes > 1) {
    const int k_begin = first_shard_of_chunk(S, s, owned_chunk);
    const int k_end = first_shard_of_chunk(S, s, owned_chunk + 1);
    for (int k = k_begin; k < k_end; ++k) {
      const ChunkRange shard = chunk_range(count, S, k);
      if (shard.size() == 0) continue;  // consistent: depends only on k
      cross_group.clear();
      for (int n = 0; n < num_nodes; ++n) {
        const int sn = std::min(S, world - n * S);
        cross_group.push_back(n * S + local_owner_of_shard(S, sn, k));
      }
      if (use_adasum) {
        // Rebase the layer table onto the shard. Rebased entries carry empty
        // names (only offsets matter downstream, and empty strings keep the
        // warm path allocation-free).
        const TensorSlice whole{"all", 0, count};
        const std::span<const TensorSlice> layers =
            slices.empty() ? std::span<const TensorSlice>{&whole, 1} : slices;
        rebased.clear();
        for (const TensorSlice& sl : layers) {
          const std::size_t lo = std::max(sl.offset, shard.begin);
          const std::size_t hi = std::min(sl.offset + sl.count, shard.end);
          if (hi > lo)
            rebased.push_back(
                TensorSlice{std::string(), lo - shard.begin, hi - lo});
        }
        adasum_rvh_allreduce(comm, data + shard.begin * elem, shard.size(),
                             dtype, rebased, tag_base + 1000, cross_group,
                             compression);
      } else {
        rvh_allreduce_sum(comm, data + shard.begin * elem, shard.size(),
                          dtype, tag_base + 2000, cross_group, compression);
      }
    }
  }

  // ---- Phase 3: local ring allgather --------------------------------------
  ring_allgather(comm, data, count, dtype, node_group, tag_base + 3000,
                 bounds, kExact);
}

void hierarchical_allreduce(Comm& comm, Tensor& tensor, int ranks_per_node,
                            bool use_adasum,
                            std::span<const TensorSlice> slices,
                            int tag_base,
                            const CompressionOptions& compression) {
  hierarchical_allreduce(comm, tensor.data(), tensor.size(), tensor.dtype(),
                         ranks_per_node, use_adasum, slices, tag_base,
                         compression);
}

}  // namespace adasum
