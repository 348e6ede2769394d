#include "optim/partitioned_optimizer.h"

#include <cstring>

#include "base/check.h"
#include "collectives/adasum_rvh.h"
#include "collectives/primitives.h"
#include "tensor/kernels.h"

namespace adasum::optim {

PartitionedDistributedOptimizer::PartitionedDistributedOptimizer(
    Comm& comm, std::vector<nn::Parameter*> params, Options options)
    : comm_(comm), params_(std::move(params)), options_(options) {
  ADASUM_CHECK_GE(options_.ranks_per_node, 1);
  ADASUM_CHECK_EQ(comm_.size() % options_.ranks_per_node, 0);
  // The partition is a pure function of the (identical) parameter layout, so
  // every rank derives the same assignment.
  partition_ = layer_aligned_partition(params_, options_.ranks_per_node);
  for (std::size_t idx : partition_.shards[my_shard()])
    shard_params_.push_back(params_[idx]);
  // Optimizer state exists only for the owned shard — the §4.3 memory win.
  if (shard_params_.empty()) {
    inner_ = std::make_unique<Sgd>(std::vector<nn::Parameter*>{});
  } else {
    inner_ = make_optimizer(options_.optimizer, shard_params_);
  }
}

void PartitionedDistributedOptimizer::step(double lr) {
  const int local_size = options_.ranks_per_node;
  const int rank = comm_.rank();
  const int node_base = (rank / local_size) * local_size;
  const int local = rank % local_size;
  const int tag_base = static_cast<int>(rounds_ % 64) * 65536;

  // ---- 1. node-local reduce of each shard's gradients to its owner -------
  for (int shard = 0; shard < local_size; ++shard) {
    const int owner = node_base + shard;
    for (std::size_t idx :
         partition_.shards[static_cast<std::size_t>(shard)]) {
      nn::Parameter* p = params_[idx];
      if (rank == owner) {
        for (int j = 0; j < local_size; ++j) {
          if (node_base + j == rank) continue;
          const std::vector<float> theirs = comm_.recv<float>(
              node_base + j, tag_base + static_cast<int>(idx));
          ADASUM_CHECK_EQ(theirs.size(), p->grad.size());
          kernels::add(std::span<const float>(theirs),
                       p->grad.span<float>());
        }
      } else {
        comm_.send<float>(owner, p->grad.span<float>(),
                          tag_base + static_cast<int>(idx));
      }
    }
  }

  // ---- 2. shard-local optimizer step (owner only) --------------------------
  std::vector<Tensor> round_start;
  round_start.reserve(shard_params_.size());
  for (const nn::Parameter* p : shard_params_)
    round_start.push_back(p->value.clone());
  if (!shard_params_.empty()) inner_->step(lr);

  // ---- 3. cross-node Adasum on the shard's effective gradient --------------
  const int num_nodes = comm_.size() / local_size;
  if (num_nodes > 1 && !shard_params_.empty()) {
    std::vector<int> owners;
    for (int n = 0; n < num_nodes; ++n)
      owners.push_back(n * local_size + local);
    // Fuse the shard's effective gradients with per-layer boundaries.
    std::vector<Tensor> eff;
    std::vector<const Tensor*> ptrs;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < shard_params_.size(); ++i) {
      Tensor delta = shard_params_[i]->value.clone();
      kernels::axpy(-1.0, round_start[i].span<float>(), delta.span<float>());
      eff.push_back(std::move(delta));
    }
    for (std::size_t i = 0; i < eff.size(); ++i) {
      ptrs.push_back(&eff[i]);
      names.push_back(shard_params_[i]->name);
    }
    FusedTensor& fused = fusion_.pack(ptrs, &names);
    adasum_rvh_allreduce(comm_, fused.flat.data(), fused.flat.size(),
                         fused.flat.dtype(),
                         options_.layerwise
                             ? std::span<const TensorSlice>(fused.slices)
                             : std::span<const TensorSlice>{},
                         tag_base + 16384, owners);
    std::vector<Tensor*> mut;
    for (Tensor& t : eff) mut.push_back(&t);
    fusion_.unpack(mut);
    for (std::size_t i = 0; i < shard_params_.size(); ++i) {
      std::memcpy(shard_params_[i]->value.data(), round_start[i].data(),
                  round_start[i].nbytes());
      kernels::add(eff[i].span<float>(),
                   shard_params_[i]->value.span<float>());
    }
  }

  // ---- 4. node-local broadcast of each updated shard ----------------------
  std::vector<int> node_group;
  for (int j = 0; j < local_size; ++j) node_group.push_back(node_base + j);
  for (int shard = 0; shard < local_size; ++shard) {
    for (std::size_t idx :
         partition_.shards[static_cast<std::size_t>(shard)]) {
      broadcast(comm_, params_[idx]->value, node_group, shard,
                tag_base + 32768 + static_cast<int>(idx));
    }
  }

  for (nn::Parameter* p : params_) p->grad.fill(0.0);
  ++rounds_;
}

}  // namespace adasum::optim
