// PartitionedDistributedOptimizer — the executable §4.3 data path.
//
// partitioned.h provides the accounting (partition balance, memory,
// modeled update time); this class runs the actual mechanism on the
// simulated cluster. Ranks are laid out node-major (`ranks_per_node`
// consecutive ranks per node) and every rank holds a full model replica and
// computes full gradients, but OWNS only a layer-aligned shard of the
// optimizer state:
//
//   1. each rank sends its gradients for shard s to s's owner inside the
//      node, which sums them (the node-local reduce of §4.3);
//   2. the owner runs the inner optimizer step for its shard only — the
//      only place that shard's optimizer state exists (Marian-style
//      partitioning, memory savings = state/num_local_ranks);
//   3. the owner Adasum-reduces its shard's effective gradient with the
//      same-shard owners of other nodes (cross-node AdasumRVH on the
//      owner subgroup, per-layer boundaries preserved by layer alignment;
//      any node count, the RVH executor folds a non-power-of-two one). As
//      in DistributedOptimizer, the effective gradient is computed in the
//      shard's parameters against a persistent round-start snapshot, and
//      adding the snapshot back restores the weights;
//   4. the owner broadcasts the updated shard parameters inside the node.
//
// Semantics note: the node's gradients are summed (not averaged) before the
// shard step, so the node acts as one logical Adasum worker whose microbatch
// is the union of its ranks' microbatches.
#pragma once

#include <memory>

#include "comm/world.h"
#include "optim/optimizer.h"
#include "optim/partitioned.h"
#include "tensor/fusion.h"

namespace adasum::optim {

class PartitionedDistributedOptimizer {
 public:
  struct Options {
    int ranks_per_node = 1;
    // Factory for the inner optimizer over a shard's parameters. Called once
    // on every rank with the locally-owned shard.
    OptimizerKind optimizer = OptimizerKind::kAdam;
    bool layerwise = true;
  };

  PartitionedDistributedOptimizer(Comm& comm,
                                  std::vector<nn::Parameter*> params,
                                  Options options);

  // One training step: consumes the gradients in `params` (zeroed on exit),
  // updates every parameter on every rank.
  void step(double lr);

  const Partition& partition() const { return partition_; }
  // Bytes of optimizer state allocated on THIS rank (the §4.3 savings).
  std::size_t local_state_bytes() const { return inner_->state_bytes(); }
  long rounds() const { return rounds_; }

 private:
  std::size_t my_shard() const {
    return static_cast<std::size_t>(comm_.rank() % options_.ranks_per_node);
  }

  Comm& comm_;
  std::vector<nn::Parameter*> params_;
  Options options_;
  Partition partition_;
  // The inner optimizer sees ONLY the owned shard's parameters.
  std::vector<nn::Parameter*> shard_params_;
  std::unique_ptr<Optimizer> inner_;
  // The owned shard's parameter values: the cross-node payload, packed from
  // and unpacked into in place (const and mutable views of the same tensors).
  std::vector<Tensor*> shard_values_;
  std::vector<const Tensor*> pack_views_;
  // Snapshot of the owned shard before its step, refreshed in place on every
  // step that runs the cross-node phase (allocated only when one can run).
  std::vector<Tensor> round_start_;
  FusionBuffer fusion_;  // reused cross-node fusion staging
  long rounds_ = 0;
};

}  // namespace adasum::optim
