// Analytic α–β cost model for collective schedules (substitution for
// cluster wall-clock measurements; see DESIGN.md §1).
//
// Every collective implemented in src/collectives has a deterministic
// communication schedule: a sequence of rounds, each moving a known number
// of bytes over a known link class plus a known amount of local reduction
// arithmetic. The model prices each round with the classic α–β formula
// (Chan et al. 2007, the paper's [10]) — cost = α + bytes/B — and sums
// rounds, choosing the intra-node or inter-node link by neighbor distance
// under node-major rank placement.
//
// This is what generates the latency curves of Fig. 4 and the epoch/step
// times of Tables 2 and 4: the *shape* of those results depends only on the
// schedule structure, which the model reproduces exactly.
//
// Every transfer is priced at its fp32 bytes: the wire codec's compressed
// sizes (DESIGN.md §13) are not modelled yet (ROADMAP item 9), so a pick
// made with ADASUM_COMPRESS set is the pick for an uncompressed wire.
#pragma once

#include <cstddef>

#include "comm/topology.h"

namespace adasum {

// Local arithmetic throughputs for the reduction kernels, in bytes/s
// processed. Defaults approximate a V100 running the Horovod CUDA kernels;
// the benches also offer a CPU-calibrated preset measured at startup.
struct ComputeParams {
  double sum_Bps = 80e9;      // y += x streams 2 reads + 1 write
  double dot_Bps = 100e9;     // fused dot-triple pass, 2 reads
  double combine_Bps = 80e9;  // scaled sum, 2 reads + 1 write
};

class CostModel {
 public:
  explicit CostModel(Topology topology, ComputeParams compute = {});

  const Topology& topology() const { return topology_; }

  // Pipeline chunk size used by the *_pipelined predictions (the
  // ADASUM_CHUNK_BYTES analogue). 0 — the default — prices transfers as one
  // monolithic message, which makes the pipelined models degenerate exactly
  // to their monolithic counterparts.
  void set_chunk_bytes(double chunk_bytes) { chunk_bytes_ = chunk_bytes; }
  double chunk_bytes() const { return chunk_bytes_; }

  // --- whole-world (flat) collectives over p = total_gpus ranks ----------

  // Ring sum-allreduce (the NCCL-style baseline): 2(p-1) pipeline steps of
  // n/p bytes each, bottlenecked by the slowest link in the ring.
  double ring_allreduce_sum(double bytes) const;

  // NCCL baseline for Fig. 4: ring schedule plus kernel-launch overhead.
  double nccl_allreduce_sum(double bytes) const;

  // Recursive-vector-halving (reduce-scatter + allgather) sum-allreduce.
  // Non-power-of-two rank counts are priced as the power-of-two core plus
  // the pairwise fold the RVH executor runs (rvh_executor.h): extras ship
  // their payload in, the core recurses, results ship back. The
  // rvh_/*adasum*/ predictions below fold the same way.
  double rvh_allreduce_sum(double bytes) const;

  // Paper Algorithm 1: RVH data movement + per-level dot-product triple
  // allreduce (3*num_layers doubles, recursive doubling) + dot/combine
  // arithmetic instead of plain sums.
  double rvh_allreduce_adasum(double bytes, int num_layers) const;

  // Chunk-pipelined Algorithm 1 (DESIGN.md §12): the halving exchange
  // travels as a chunk stream and the dot-triple pass runs as chunks land,
  // so a level costs max(wire, dot + first-chunk) instead of wire + dot —
  // but every chunk pays its own α. Both Adasum RVH predictions run one
  // pricing walk, so with chunk_bytes()==0 this equals rvh_allreduce_adasum
  // exactly.
  double rvh_allreduce_adasum_pipelined(double bytes, int num_layers) const;

  // Ring-order Adasum (§4.2.3): ring data movement, but each of the p-1
  // reduce steps must complete a serial dot-triple + combine on the full
  // slice before forwarding, and needs a per-step scalar exchange. This is
  // the variant the paper found slower than AdasumRVH.
  double ring_allreduce_adasum(double bytes, int num_layers) const;

  // --- hierarchical allreduce (§4.2.2) ------------------------------------
  // Local reduce-scatter over the node's GPUs, cross-node (sum or Adasum)
  // RVH on the 1/gpus_per_node shard, local allgather.
  double hierarchical_allreduce_sum(double bytes) const;
  double hierarchical_allreduce_adasum(double bytes, int num_layers) const;

 private:
  const LinkParams& link_for_distance(int distance) const {
    return distance < topology_.gpus_per_node ? topology_.intra
                                              : topology_.inter;
  }
  // The one Algorithm 1 pricing walk behind rvh_allreduce_adasum (chunk 0)
  // and rvh_allreduce_adasum_pipelined (chunk_bytes()).
  double rvh_adasum_walk(double bytes, int num_layers, double chunk) const;
  // Cost of a recursive-doubling allreduce of `bytes` within a group whose
  // members are at distances 1,2,...,2^(rounds-1) apart.
  double recursive_doubling_cost(int rounds, double bytes,
                                 int base_distance) const;
  Topology topology_;
  ComputeParams compute_;
  double chunk_bytes_ = 0.0;  // 0 = monolithic transfers
};

}  // namespace adasum
