#include "optim/distributed_optimizer.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "base/check.h"
#include "base/runtime_config.h"
#include "comm/buffer_pool.h"
#include "tensor/kernels.h"

namespace adasum::optim {

DistributedOptimizer::DistributedOptimizer(Comm& comm,
                                           std::unique_ptr<Optimizer> inner,
                                           DistributedOptions options)
    : comm_(comm), inner_(std::move(inner)), options_(options) {
  ADASUM_CHECK_GE(options_.local_steps, 1);
  if (RuntimeConfig::from_env().autotune) options_.autotune = true;
}

DistributedOptimizer::~DistributedOptimizer() = default;

void DistributedOptimizer::resolve_autotune() {
  tuned_resolved_ = true;
  const auto& params = inner_->params();
  AutotuneRequest req;
  for (const nn::Parameter* p : params)
    req.payload_bytes += static_cast<double>(p->value.nbytes());
  req.num_layers =
      options_.layerwise ? std::max<int>(1, static_cast<int>(params.size()))
                         : 1;
  req.adasum = options_.op == ReduceOp::kAdasum;
  // The optimizer tunes the ALGORITHM for the world as configured: the
  // pipeline chunk is World-level state it does not own and the fusion
  // bucket is caller policy, so both enter as the single current value and
  // the pick's chunk/bucket merely echo them (see TunedConfig docs).
  const std::size_t chunk[1] = {comm_.pipeline().chunk_bytes_for(1)};
  const std::size_t bucket[1] = {options_.bucket_bytes};
  req.chunk_grid = chunk;
  req.bucket_grid = bucket;
  // The cluster to plan for: ADASUM_TOPOLOGY, else one rank per node.
  const std::string_view spec = RuntimeConfig::from_env().topology;
  const std::optional<Topology> topo = Topology::parse(spec);
  if (!topo && !spec.empty())
    warn_bad_setting("ADASUM_TOPOLOGY", spec,
                     "<nodes>x<gpus>[:<intra>/<inter>] or a Topology preset",
                     "one rank per node");
  tuned_ = autotune_allreduce(
      topo.value_or(Topology::cluster(comm_.size(), 1, links::infiniband100(),
                                      links::infiniband100())),
      req);
  if (options_.algo != AllreduceAlgo::kAuto) return;  // explicit choice wins
  switch (tuned_.algo) {
    case TunedAlgo::kRing:
      options_.algo = AllreduceAlgo::kRing;
      options_.ranks_per_node = 1;
      break;
    case TunedAlgo::kRvh:
      options_.algo = AllreduceAlgo::kRvh;
      options_.ranks_per_node = 1;
      break;
    case TunedAlgo::kHierarchical:
      options_.algo = AllreduceAlgo::kHierarchical;
      options_.ranks_per_node = std::min(tuned_.ranks_per_node, comm_.size());
      break;
  }
}

bool DistributedOptimizer::step(double lr) {
  const auto& params = inner_->params();
  ADASUM_CHECK(!params.empty());
  if (options_.autotune && !tuned_resolved_) resolve_autotune();

  if (options_.op == ReduceOp::kSum || options_.op == ReduceOp::kAverage) {
    // Synchronous SGD: gradients accumulate across local steps; on the
    // communication step they are reduced and the optimizer runs once.
    if (++micro_step_ < options_.local_steps) return false;
    micro_step_ = 0;
    if (communicate_gradients() == ReduceOutcome::kSkipped) {
      // Recovery exhausted: no agreed-on gradient exists, so applying the
      // local one would diverge the replicas. Documented skip-step.
      ++skipped_rounds_;
    } else {
      inner_->step(lr);
    }
    inner_->zero_grad();
    ++rounds_;
    return true;
  }

  // Adasum mode (Figure 3): optimizer first, allreduce the effective
  // gradient after.
  if (micro_step_ == 0) {
    // Snapshot the round start. The snapshot and the payload tensors are
    // sized on the first round; warm rounds refresh the snapshot in place.
    bool same = round_start_.size() == params.size();
    for (std::size_t i = 0; same && i < params.size(); ++i)
      same = round_start_[i].nbytes() == params[i]->value.nbytes();
    if (!same) {
      const bool fp16 = options_.compression == GradientCompression::kFp16;
      round_start_.clear();
      eff_.clear();
      eff_fp16_.clear();
      payload_views_.clear();
      for (const nn::Parameter* p : params) {
        round_start_.emplace_back(p->value.shape());
        eff_.emplace_back(p->value.shape());
        if (fp16) eff_fp16_.emplace_back(p->value.shape(), DType::kFloat16);
      }
      for (Tensor& t : fp16 ? eff_fp16_ : eff_) payload_views_.push_back(&t);
    }
    for (std::size_t i = 0; i < params.size(); ++i)
      std::memcpy(round_start_[i].data(), params[i]->value.data(),
                  params[i]->value.nbytes());
  }
  inner_->step(lr);
  inner_->zero_grad();
  if (++micro_step_ < options_.local_steps) return false;
  micro_step_ = 0;
  communicate_effective_gradient();
  ++rounds_;
  return true;
}

CommEngine& DistributedOptimizer::engine() {
  if (!engine_)
    engine_ = std::make_unique<CommEngine>(
        comm_, std::max<std::size_t>(buckets_.size(), 64));
  return *engine_;
}

void DistributedOptimizer::ensure_buckets(
    const std::vector<Tensor*>& tensors) {
  bool same = bucket_signature_.size() == tensors.size();
  for (std::size_t i = 0; same && i < tensors.size(); ++i)
    same = bucket_signature_[i] == tensors[i]->nbytes();
  if (same && !buckets_.empty()) return;
  // A layout change mid-round would orphan in-flight buckets.
  ADASUM_CHECK_EQ(next_unlaunched_, std::size_t{0});
  ADASUM_CHECK_EQ(round_index_, -1);
  bucket_signature_.assign(tensors.size(), 0);
  for (std::size_t i = 0; i < tensors.size(); ++i)
    bucket_signature_[i] = tensors[i]->nbytes();
  buckets_.clear();
  // Greedy packing in parameter order (the Horovod fusion-threshold rule):
  // a bucket closes once adding the next tensor would push it over
  // bucket_bytes; an oversized tensor forms its own bucket. bucket_bytes==0
  // keeps one bucket for the whole model — the seed layout.
  std::size_t first = 0, bytes = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::size_t nb = tensors[i]->nbytes();
    if (i > first && options_.bucket_bytes > 0 &&
        bytes + nb > options_.bucket_bytes) {
      Bucket bk;
      bk.first = first;
      bk.last = i;
      buckets_.push_back(std::move(bk));
      first = i;
      bytes = 0;
    }
    bytes += nb;
  }
  Bucket tail;
  tail.first = first;
  tail.last = tensors.size();
  buckets_.push_back(std::move(tail));
  for (Bucket& bk : buckets_) {
    bk.opts.algo = options_.algo;
    bk.opts.ranks_per_node = options_.ranks_per_node;
    bk.opts.compression = options_.wire_compression;
    bk.opts.slices.clear();
    bk.launched = false;
  }
  grad_ready_.assign(tensors.size(), 0);
  pack_views_.reserve(tensors.size());
  unpack_views_.reserve(tensors.size());
  // reduce_bucketed queues every bucket before joining, so the engine ring
  // must hold a whole round. Safe to swap here: the CHECKs above proved the
  // engine is idle.
  if (options_.background && engine_ && engine_->capacity() < buckets_.size())
    engine_.reset();
}

int DistributedOptimizer::acquire_round_index() {
  if (round_index_ < 0) round_index_ = tag_round_++ % 64;
  return round_index_;
}

int DistributedOptimizer::bucket_tag_base(int round_index,
                                          std::size_t bucket) const {
  // Each (round, bucket) gets its own tag namespace out of the same 64
  // slots the seed cycled through per round, so engines of different ranks
  // can be on different buckets concurrently without cross-talk, and each
  // bucket lands in a distinct recovery-tag slot. With one bucket this is
  // exactly the seed's (tag_round_ % 64) * 65536.
  const std::size_t slot =
      (static_cast<std::size_t>(round_index) * buckets_.size() + bucket) % 64;
  return static_cast<int>(slot) * 65536;
}

void DistributedOptimizer::launch_bucket(std::size_t b,
                                         const std::vector<Tensor*>& tensors,
                                         ReduceOp op, int round_index) {
  Bucket& bk = buckets_[b];
  ADASUM_CHECK(!bk.launched);
  pack_views_.assign(tensors.begin() + static_cast<std::ptrdiff_t>(bk.first),
                     tensors.begin() + static_cast<std::ptrdiff_t>(bk.last));
  FusedTensor& fused = bk.fusion.pack(pack_views_);
  bk.opts.op = op;
  // The slice table depends only on the layout, which ensure_buckets pinned;
  // copy it once per layout instead of once per round (steady state must
  // not allocate).
  if (options_.layerwise && bk.opts.slices.size() != fused.slices.size())
    bk.opts.slices = fused.slices;
  const int tag_base = bucket_tag_base(round_index, b);
  if (options_.background) {
    bk.ticket = engine().submit_allreduce(fused.flat, bk.opts, tag_base);
  } else {
    bk.inline_result = resilient_allreduce(comm_, fused.flat, bk.opts,
                                           tag_base);
  }
  bk.launched = true;
}

ReduceOutcome DistributedOptimizer::reduce_bucketed(
    std::vector<Tensor*>& tensors, ReduceOp op) {
  ensure_buckets(tensors);
  const int round = acquire_round_index();
  // Launch whatever notify_grad_ready has not already sent. In background
  // mode the engine executes strictly in order, so queueing everything up
  // front is safe and lets the joins below overlap the later buckets.
  for (std::size_t b = next_unlaunched_; b < buckets_.size(); ++b)
    launch_bucket(b, tensors, op, round);
  ReduceOutcome worst = ReduceOutcome::kOk;
  bool any_degraded = false;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bk = buckets_[b];
    const ResilientResult res =
        options_.background ? engine().wait(bk.ticket) : bk.inline_result;
    if (res.outcome == ReduceOutcome::kDegraded) {
      any_degraded = true;
      if (worst == ReduceOutcome::kOk) worst = ReduceOutcome::kDegraded;
    } else if (res.outcome == ReduceOutcome::kSkipped) {
      // One skipped bucket poisons the round: the caller must treat the
      // whole update as skipped, or replicas would diverge per bucket. The
      // outcome is uniform across survivors (PR 2 protocol), so every rank
      // takes the same branch.
      worst = ReduceOutcome::kSkipped;
    }
    unpack_views_.assign(
        tensors.begin() + static_cast<std::ptrdiff_t>(bk.first),
        tensors.begin() + static_cast<std::ptrdiff_t>(bk.last));
    bk.fusion.unpack(unpack_views_);
    bk.launched = false;
  }
  if (any_degraded) ++degraded_rounds_;
  next_unlaunched_ = 0;
  round_index_ = -1;
  std::fill(grad_ready_.begin(), grad_ready_.end(), char{0});
  return worst;
}

void DistributedOptimizer::notify_grad_ready(std::size_t param_index) {
  if (!options_.background) return;
  if (options_.op != ReduceOp::kSum && options_.op != ReduceOp::kAverage)
    return;
  // Only the communicating microstep reduces; earlier microsteps are still
  // accumulating, so their "ready" gradients are not final.
  if (micro_step_ != options_.local_steps - 1) return;
  const auto& params = inner_->params();
  ADASUM_CHECK_LT(param_index, params.size());
  std::vector<Tensor*>& grads = grad_views();
  ensure_buckets(grads);
  grad_ready_[param_index] = 1;
  const int round = acquire_round_index();
  // Buckets launch in order the moment every tensor in them is ready —
  // communication overlaps the rest of backprop; step() only joins.
  while (next_unlaunched_ < buckets_.size()) {
    const Bucket& bk = buckets_[next_unlaunched_];
    bool ready = true;
    for (std::size_t i = bk.first; ready && i < bk.last; ++i)
      ready = grad_ready_[i] != 0;
    if (!ready) break;
    launch_bucket(next_unlaunched_, grads, options_.op, round);
    ++next_unlaunched_;
  }
}

std::vector<Tensor*>& DistributedOptimizer::grad_views() {
  const auto& params = inner_->params();
  if (grads_view_.size() != params.size()) {
    grads_view_.clear();
    for (nn::Parameter* p : params) grads_view_.push_back(&p->grad);
  }
  return grads_view_;
}

ReduceOutcome DistributedOptimizer::communicate_gradients() {
  return reduce_bucketed(grad_views(), options_.op);
}

bool DistributedOptimizer::round_overflowed_globally(bool local_overflow) {
  if (comm_.fault_tolerant()) {
    // The wire allreduce below would hang on a dead rank; the liveness-aware
    // vote is the same OR over exactly the ranks still participating.
    return comm_.vote_failure(local_overflow);
  }
  std::vector<int> everyone(static_cast<std::size_t>(comm_.size()));
  for (int r = 0; r < comm_.size(); ++r)
    everyone[static_cast<std::size_t>(r)] = r;
  const std::vector<double> overflow_sum = comm_.allreduce_sum_doubles(
      std::vector<double>{local_overflow ? 1.0 : 0.0}, everyone,
      /*tag=*/(tag_round_ % 64) * 65536 + 60000);
  return overflow_sum[0] > 0.0;
}

void DistributedOptimizer::communicate_effective_gradient() {
  const auto& params = inner_->params();
  const bool fp16 = options_.compression == GradientCompression::kFp16;
  // Resolve the wire codec the collectives will apply; the error-feedback
  // snap below must mirror it exactly.
  CompressionOptions wirec = options_.wire_compression;
  if (wirec.mode == CompressionMode::kAuto) wirec = comm_.compression();
  const bool snap = wirec.active() && options_.error_feedback && !fp16;
  // Error feedback through the wire codec: compensate with last round's
  // residual, snap the effective gradient through the codec, and bank what
  // the snap dropped. The snap is the codec the collectives apply on the
  // wire, which then re-quantizes grid-point values and adds no error
  // beyond what the residual already captured. The snap is tensor-local, so
  // running it bucket by bucket gives the same bits as one pass.
  // Pooled scratch sized once for the largest layer and leased before the
  // first launch: warm rounds lease the same blocks back from the pool, so
  // the steady state allocates nothing.
  std::optional<PooledBuffer> roundtrip, blob;
  if (snap) {
    std::size_t max_elems = 0;
    for (const Tensor& t : eff_) max_elems = std::max(max_elems, t.size());
    if (!error_feedback_) {
      std::vector<std::size_t> sizes;
      for (const Tensor& t : eff_) sizes.push_back(t.size());
      error_feedback_ = std::make_unique<ErrorFeedback>(std::move(sizes));
    }
    roundtrip.emplace(comm_.pool(), max_elems * sizeof(float));
    blob.emplace(comm_.pool(), compressed_wire_bytes(max_elems, wirec));
  }

  ensure_buckets(payload_views_);
  const double scale = scaler_.scale();
  bool local_overflow = false;
  // The pipeline: compute bucket b's deltas, launch it, move on — the engine
  // reduces bucket b while this thread computes bucket b+1 (Figure 3's
  // compute/communication overlap, applied to the local-SGD delta).
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (std::size_t i = buckets_[b].first; i < buckets_[b].last; ++i) {
      // effective_gradient = current - round_start (Figure 3).
      std::memcpy(eff_[i].data(), params[i]->value.data(), eff_[i].nbytes());
      const std::span<float> values = eff_[i].span<float>();
      kernels::axpy(-1.0, round_start_[i].span<float>(), values);
      if (snap) {
        error_feedback_->compensate(i, values);
        const std::span<float> transmitted =
            roundtrip->as<float>(values.size());
        compress_f32(values, wirec, blob->data(), transmitted);
        error_feedback_->record(i, values, transmitted);
        std::memcpy(values.data(), transmitted.data(), values.size_bytes());
      }
      if (fp16) {
        // Scale into fp16 (§4.4.1).
        cast_to_fp16_scaled(eff_[i], scale, eff_fp16_[i]);
        if (tensor_overflowed(eff_fp16_[i])) local_overflow = true;
      }
    }
    if (!fp16) {
      launch_bucket(b, payload_views_, ReduceOp::kAdasum,
                    acquire_round_index());
      ++next_unlaunched_;
    }
  }
  // Overflow on any rank skips the round on all. The vote runs on this
  // thread BEFORE any bucket launches, so the owner performs no comm while
  // engine ops are in flight, and before acquire_round_index, whose tag
  // namespace the vote's tag is derived from.
  bool skipped = false;
  if (fp16) {
    const bool overflowed = round_overflowed_globally(local_overflow);
    skipped = !scaler_.update(overflowed) || overflowed;
  }
  // Joins every bucket in order and unpacks (launching them first in fp16
  // rounds). A skipped reduction leaves no agreed-on effective gradient.
  if (skipped || reduce_bucketed(payload_views_, ReduceOp::kAdasum) ==
                     ReduceOutcome::kSkipped) {
    // Every rank reverts to the round start, consistently everywhere.
    for (std::size_t i = 0; i < params.size(); ++i)
      std::memcpy(params[i]->value.data(), round_start_[i].data(),
                  round_start_[i].nbytes());
    ++skipped_rounds_;
    return;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (fp16) cast_from_fp16_scaled(eff_fp16_[i], scale, eff_[i]);
    // w = round_start + reduced_effective_gradient.
    std::memcpy(params[i]->value.data(), round_start_[i].data(),
                round_start_[i].nbytes());
    kernels::add(eff_[i].span<float>(), params[i]->value.span<float>());
  }
}

}  // namespace adasum::optim
