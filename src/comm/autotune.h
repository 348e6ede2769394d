// Cost-model autotuner: pick the allreduce configuration for a payload on a
// topology (DESIGN.md §14).
//
// The paper's experiments hand-pick the collective per platform — AdasumRVH
// on IB clusters, hierarchical on DGX-2 pods, smaller chunk sizes on
// high-latency TCP. This module mechanizes that choice: it prices every
// candidate (algorithm, ranks-per-node grouping, pipeline chunk size, fusion
// bucket size) with the α–β CostModel and returns the arg-min. The planner
// is PURE — topology and grids in, config out, no I/O and no dependence on
// live Comm state — so it is exactly reproducible and unit-testable against
// hand-computed closed forms. Validation against *measured* step time lives
// above this layer (autotune_test.cpp, bench_scaleout), where a wire-delay
// fault model makes simulated execution topology-shaped; the accepted
// tolerance there is the 1.2x of ISSUE/EXPERIMENTS.md.
//
// Layering note: src/comm cannot see src/collectives, so the planner speaks
// its own TunedAlgo enum; the optimizer maps it onto AllreduceAlgo one to
// one (kRvh runs at any world size: the RVH executor folds a
// non-power-of-two world itself).
#pragma once

#include <cstddef>
#include <span>

#include "comm/cost_model.h"
#include "comm/topology.h"

namespace adasum {

enum class TunedAlgo {
  kRing = 0,
  kRvh = 1,
  kHierarchical = 2,
};

const char* to_string(TunedAlgo algo);

struct TunedConfig {
  TunedAlgo algo = TunedAlgo::kRvh;
  // Grouping arity for kHierarchical (1 for the flat algorithms).
  int ranks_per_node = 1;
  // Pipeline chunk size (World::set_pipeline); 0 = monolithic transfers.
  std::size_t chunk_bytes = 0;
  // Gradient fusion bucket size (DistributedOptions::bucket_bytes); 0 = one
  // fused bucket for the whole payload.
  std::size_t bucket_bytes = 0;
  // The model's step-time prediction for this config, seconds.
  double predicted_s = 0.0;
};

struct AutotuneRequest {
  double payload_bytes = 0.0;
  int num_layers = 1;
  bool adasum = true;
  // Backward-pass compute available to overlap with bucketed communication;
  // 0 means nothing overlaps and bucketing can only lose (per-bucket α tax),
  // so the planner then always returns bucket_bytes = 0.
  double overlap_compute_s = 0.0;
  // Candidate grids. Empty spans mean {0} (monolithic / single bucket).
  // Order is irrelevant and duplicates are fine: the planner sorts and
  // dedupes internally, so the pick is grid-order independent.
  std::span<const std::size_t> chunk_grid;
  std::span<const std::size_t> bucket_grid;
};

// Model prediction for ONE candidate, exposed so tests and benches can
// cross-check the planner against closed forms. `ranks_per_node` is only
// meaningful for kHierarchical (regrouping the topology's ranks); the flat
// algorithms price on the topology as given.
double predict_allreduce_s(const Topology& topology, TunedAlgo algo,
                           int ranks_per_node, std::size_t chunk_bytes,
                           std::size_t bucket_bytes,
                           const AutotuneRequest& request,
                           ComputeParams compute = {});

// The planner: prices every (algo, chunk, bucket) candidate — hierarchical
// at the topology's gpus_per_node grouping, ring/RVH flat — and returns the
// minimum. Ties break deterministically toward the lexicographically
// smaller (algo enum value, ranks_per_node, chunk_bytes, bucket_bytes), so
// the pick is a pure function of (topology, request).
TunedConfig autotune_allreduce(const Topology& topology,
                               const AutotuneRequest& request,
                               ComputeParams compute = {});

// True when ADASUM_AUTOTUNE is set to on/1/true (the optimizer's gate).
bool autotune_enabled_from_env();

}  // namespace adasum
