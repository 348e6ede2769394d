#include "comm/autotune.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/check.h"

namespace adasum {
namespace {

// Collapse a candidate grid to a sorted, deduped vector; an empty grid means
// "just the degenerate 0". Sorting makes the lexicographic tie-break below
// independent of the order the caller listed candidates in.
std::vector<std::size_t> normalized_grid(std::span<const std::size_t> grid) {
  std::vector<std::size_t> g(grid.begin(), grid.end());
  if (g.empty()) g.push_back(0);
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  return g;
}

// Communication time of one allreduce of `bytes` under `model`.
double comm_time(const CostModel& model, TunedAlgo algo, double bytes,
                 const AutotuneRequest& request) {
  switch (algo) {
    case TunedAlgo::kRing:
      return request.adasum
                 ? model.ring_allreduce_adasum(bytes, request.num_layers)
                 : model.ring_allreduce_sum(bytes);
    case TunedAlgo::kRvh:
      return request.adasum ? model.rvh_allreduce_adasum_pipelined(
                                  bytes, request.num_layers)
                            : model.rvh_allreduce_sum(bytes);
    case TunedAlgo::kHierarchical:
      return request.adasum ? model.hierarchical_allreduce_adasum(
                                  bytes, request.num_layers)
                            : model.hierarchical_allreduce_sum(bytes);
  }
  ADASUM_CHECK_MSG(false, "unreachable: unknown TunedAlgo");
  return 0.0;
}

}  // namespace

const char* to_string(TunedAlgo algo) {
  switch (algo) {
    case TunedAlgo::kRing:
      return "ring";
    case TunedAlgo::kRvh:
      return "rvh";
    case TunedAlgo::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

double predict_allreduce_s(const Topology& topology, TunedAlgo algo,
                           int ranks_per_node, std::size_t chunk_bytes,
                           std::size_t bucket_bytes,
                           const AutotuneRequest& request,
                           ComputeParams compute) {
  ADASUM_CHECK_GE(request.payload_bytes, 0.0);
  // kHierarchical regroups the same ranks at the candidate arity; the link
  // classes are the topology's own. The flat algorithms price as given.
  Topology t = topology;
  if (algo == TunedAlgo::kHierarchical) {
    ADASUM_CHECK_GE(ranks_per_node, 1);
    const int total = topology.total_gpus();
    const int rpn = std::min(ranks_per_node, total);
    t = Topology::cluster((total + rpn - 1) / rpn, rpn, topology.intra,
                          topology.inter);
  }
  CostModel model(t, compute);
  model.set_chunk_bytes(static_cast<double>(chunk_bytes));

  const double payload = request.payload_bytes;
  if (payload <= 0.0) return 0.0;

  // Bucketed-overlap pipeline (DESIGN.md §14): the backward pass produces
  // gradients in n = ceil(payload/bucket) buckets; bucket i's communication
  // overlaps bucket i+1's compute. With per-bucket compute c and per-bucket
  // communication m the step's critical path is
  //     c + max((n-1)c, (n-1)m) + m
  // — fill, steady state paced by the slower side, drain. n == 1 (bucketing
  // off) degenerates to compute + comm with zero overlap, which is exactly
  // why bucketing only pays when overlap_compute_s > 0: otherwise each extra
  // bucket just adds per-message α.
  double n = 1.0;
  if (bucket_bytes > 0 &&
      static_cast<double>(bucket_bytes) < payload)
    n = std::ceil(payload / static_cast<double>(bucket_bytes));
  const double c = request.overlap_compute_s / n;
  const double m = comm_time(model, algo, payload / n, request);
  return c + std::max((n - 1.0) * c, (n - 1.0) * m) + m;
}

TunedConfig autotune_allreduce(const Topology& topology,
                               const AutotuneRequest& request,
                               ComputeParams compute) {
  const std::vector<std::size_t> chunks = normalized_grid(request.chunk_grid);
  const std::vector<std::size_t> buckets =
      normalized_grid(request.bucket_grid);

  constexpr TunedAlgo kAlgos[] = {TunedAlgo::kRing, TunedAlgo::kRvh,
                                  TunedAlgo::kHierarchical};
  bool have = false;
  TunedConfig best;
  for (const TunedAlgo algo : kAlgos) {
    // Hierarchical grouping only exists when the topology actually has a
    // multi-rank node AND the link-speed rule keeps it (a uniform fabric
    // collapses grouping to flat, where kHierarchical == kRvh plus phase
    // overhead — pricing it would be redundant).
    int rpn = 1;
    if (algo == TunedAlgo::kHierarchical) {
      rpn = topology.group_size_by_link_speed(topology.total_gpus());
      if (rpn <= 1) continue;
    }
    for (const std::size_t chunk : chunks) {
      for (const std::size_t bucket : buckets) {
        const double predicted = predict_allreduce_s(
            topology, algo, rpn, chunk, bucket, request, compute);
        // Strict < plus sorted grids and fixed algo order makes the pick
        // deterministic and grid-order independent: ties keep the earlier
        // (algo, chunk, bucket) — the lexicographically smaller candidate.
        if (!have || predicted < best.predicted_s) {
          have = true;
          best = TunedConfig{algo, rpn, chunk, bucket, predicted};
        }
      }
    }
  }
  ADASUM_CHECK_MSG(have, "autotune: no candidate configurations");
  return best;
}

}  // namespace adasum
