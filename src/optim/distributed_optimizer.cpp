#include "optim/distributed_optimizer.h"

#include <algorithm>
#include <cstring>

#include "base/check.h"
#include "comm/buffer_pool.h"
#include "tensor/kernels.h"

namespace adasum::optim {

DistributedOptimizer::DistributedOptimizer(Comm& comm,
                                           std::unique_ptr<Optimizer> inner,
                                           DistributedOptions options)
    : comm_(comm), inner_(std::move(inner)), options_(options) {
  ADASUM_CHECK_GE(options_.local_steps, 1);
  if (autotune_enabled_from_env()) options_.autotune = true;
}

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
  const Topology topo = Topology::from_env().value_or(Topology::cluster(
      comm_.size(), 1, links::infiniband100(), links::infiniband100()));
  tuned_ = autotune_allreduce(topo, req);
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
    // Snapshot the round start. Warm rounds refresh the existing snapshot
    // tensors in place (same values as a fresh clone, no allocation).
    bool reuse = round_start_.size() == params.size();
    for (std::size_t i = 0; reuse && i < params.size(); ++i)
      reuse = round_start_[i].nbytes() == params[i]->value.nbytes();
    if (reuse) {
      for (std::size_t i = 0; i < params.size(); ++i)
        std::memcpy(round_start_[i].data(), params[i]->value.data(),
                    params[i]->value.nbytes());
    } else {
      round_start_.clear();
      round_start_.reserve(params.size());
      for (const nn::Parameter* p : params)
        round_start_.push_back(p->value.clone());
    }
  }
  inner_->step(lr);
  inner_->zero_grad();
  if (++micro_step_ < options_.local_steps) return false;
  micro_step_ = 0;
  communicate_effective_gradient();
  ++rounds_;
  return true;
}

ReduceOutcome DistributedOptimizer::reduce_tensors(
    std::vector<Tensor*>& tensors, ReduceOp op) {
  if (bucketed()) return reduce_bucketed(tensors, op);
  AllreduceOptions opts;
  opts.op = op;
  opts.algo = options_.algo;
  opts.ranks_per_node = options_.ranks_per_node;
  opts.compression = options_.wire_compression;
  // tag namespace per round so back-to-back rounds cannot cross-talk.
  const int tag_base = (tag_round_++ % 64) * 65536;
  // Pack through the persistent FusionBuffer: one fuse per round (the old
  // non-layerwise path fused twice to restore the table), and warm rounds
  // reuse the fused backing store outright. An empty slice table already
  // means "treat the payload as one layer", so the non-layerwise case just
  // leaves opts.slices empty — the boundary table stays intact for unpack.
  std::vector<const Tensor*> views(tensors.begin(), tensors.end());
  FusedTensor& fused = fusion_.pack(views);
  if (options_.layerwise) opts.slices = fused.slices;
  // resilient_allreduce is a plain allreduce when the world is not
  // fault-tolerant; otherwise peer failures degrade the group instead of
  // crashing the round.
  const ResilientResult res =
      resilient_allreduce(comm_, fused.flat, opts, tag_base);
  if (res.outcome == ReduceOutcome::kDegraded) ++degraded_rounds_;
  fusion_.unpack(tensors);
  return res.outcome;
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
  if (grads_view_.size() != params.size()) {
    grads_view_.clear();
    grads_view_.reserve(params.size());
    for (nn::Parameter* p : inner_->params())
      grads_view_.push_back(&p->grad);
  }
  ensure_buckets(grads_view_);
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
    launch_bucket(next_unlaunched_, grads_view_, options_.op, round);
    ++next_unlaunched_;
  }
}

ReduceOutcome DistributedOptimizer::communicate_gradients() {
  if (grads_view_.size() != inner_->params().size()) {
    grads_view_.clear();
    grads_view_.reserve(inner_->params().size());
    for (nn::Parameter* p : inner_->params())
      grads_view_.push_back(&p->grad);
  }
  return reduce_tensors(grads_view_, options_.op);
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

void DistributedOptimizer::revert_to_round_start() {
  const auto& params = inner_->params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), round_start_[i].data(),
                round_start_[i].nbytes());
  }
}

void DistributedOptimizer::communicate_effective_gradient_overlapped() {
  const auto& params = inner_->params();
  // Persistent deltas: first round allocates, warm rounds only compute.
  bool reuse = eff_.size() == params.size();
  for (std::size_t i = 0; reuse && i < params.size(); ++i)
    reuse = eff_[i].nbytes() == params[i]->value.nbytes();
  if (!reuse) {
    eff_.clear();
    eff_views_.clear();
    eff_.reserve(params.size());
    eff_views_.reserve(params.size());
    for (const nn::Parameter* p : params) eff_.push_back(p->value.clone());
    for (Tensor& t : eff_) eff_views_.push_back(&t);
  }
  ensure_buckets(eff_views_);
  const int round = acquire_round_index();
  // The pipeline: compute bucket b's deltas, submit, move on — the engine
  // reduces bucket b while this thread computes bucket b+1 (Figure 3's
  // compute/communication overlap, applied to the local-SGD delta).
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bk = buckets_[b];
    for (std::size_t i = bk.first; i < bk.last; ++i) {
      std::memcpy(eff_[i].data(), params[i]->value.data(),
                  params[i]->value.nbytes());
      kernels::axpy(-1.0, round_start_[i].span<float>(),
                    eff_[i].span<float>());
    }
    launch_bucket(b, eff_views_, ReduceOp::kAdasum, round);
    ++next_unlaunched_;
  }
  // Joins every bucket in order and unpacks; launches nothing new.
  if (reduce_bucketed(eff_views_, ReduceOp::kAdasum) ==
      ReduceOutcome::kSkipped) {
    revert_to_round_start();
    ++skipped_rounds_;
    return;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), round_start_[i].data(),
                round_start_[i].nbytes());
    kernels::add(eff_[i].span<float>(), params[i]->value.span<float>());
  }
}

void DistributedOptimizer::communicate_effective_gradient() {
  // Resolve the wire codec the collectives will apply; the error-feedback
  // pre-pass below must mirror it exactly.
  CompressionOptions wirec = options_.wire_compression;
  if (wirec.mode == CompressionMode::kAuto) wirec = comm_.compression();
  const bool wire_ef = wirec.active() && options_.error_feedback &&
                       options_.compression == GradientCompression::kNone;
  if (options_.background &&
      options_.compression == GradientCompression::kNone && !wire_ef) {
    // Wire compression without error feedback still flows through here: the
    // collectives compress transfers on the engine thread transparently.
    communicate_effective_gradient_overlapped();
    return;
  }
  const auto& params = inner_->params();
  // effective_gradient = current - round_start (Figure 3).
  std::vector<Tensor> eff;
  eff.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor delta = params[i]->value.clone();
    kernels::axpy(-1.0, round_start_[i].span<float>(), delta.span<float>());
    eff.push_back(std::move(delta));
  }

  if (options_.compression == GradientCompression::kFp16) {
    // Scale into fp16 (§4.4.1). Overflow on any rank skips the round on all.
    // The vote runs on this thread BEFORE anything reaches the engine, so
    // the single-threaded vote protocol is undisturbed by background mode.
    const double scale = scaler_.scale();
    std::vector<Tensor> compressed;
    compressed.reserve(eff.size());
    bool local_overflow = false;
    for (const Tensor& t : eff) {
      Tensor h = cast_to_fp16_scaled(t, scale);
      if (tensor_overflowed(h)) local_overflow = true;
      compressed.push_back(std::move(h));
    }
    const bool overflowed = round_overflowed_globally(local_overflow);
    if (!scaler_.update(overflowed) || overflowed) {
      // Revert to the round start: the round is skipped consistently
      // everywhere (all ranks saw the same summed flag).
      revert_to_round_start();
      ++skipped_rounds_;
      return;
    }
    std::vector<Tensor*> ptrs;
    ptrs.reserve(compressed.size());
    for (Tensor& t : compressed) ptrs.push_back(&t);
    if (reduce_tensors(ptrs, ReduceOp::kAdasum) == ReduceOutcome::kSkipped) {
      revert_to_round_start();
      ++skipped_rounds_;
      return;
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Tensor reduced = cast_from_fp16_scaled(compressed[i], scale);
      // w = round_start + reduced_effective_gradient.
      std::memcpy(params[i]->value.data(), round_start_[i].data(),
                  round_start_[i].nbytes());
      kernels::add(reduced.span<float>(), params[i]->value.span<float>());
    }
    return;
  }

  if (options_.compression == GradientCompression::kInt8 || wire_ef) {
    if (!error_feedback_) {
      std::vector<std::size_t> sizes;
      for (const Tensor& t : eff) sizes.push_back(t.size());
      error_feedback_ = std::make_unique<ErrorFeedback>(std::move(sizes));
    }
    std::size_t max_elems = 0;
    for (const Tensor& t : eff) max_elems = std::max(max_elems, t.size());
    // Error feedback through the wire codec: compensate with last round's
    // residual, snap the effective gradient through the codec, and bank what
    // the snap dropped. Under wire_ef the snap is the codec the collectives
    // apply on the wire, which then re-quantizes grid-point values and adds
    // no error beyond what the residual already captured. kInt8 snaps
    // through the per-tensor int8 of tensor/quantize.h, bit for bit
    // (CompressCodec.OneBlockRtnMatchesPerTensorOracle), while the
    // collectives keep their own wire options.
    const CompressionOptions snap =
        options_.compression == GradientCompression::kInt8
            ? per_tensor_int8(max_elems)
            : wirec;
    // Pooled scratch sized once for the largest layer: warm rounds lease the
    // same blocks back from the pool, so the steady state allocates nothing
    // (the bench gate counts allocations across whole compressed steps).
    PooledBuffer roundtrip_buf(comm_.pool(), max_elems * sizeof(float));
    PooledBuffer blob(comm_.pool(), compressed_wire_bytes(max_elems, snap));
    for (std::size_t i = 0; i < eff.size(); ++i) {
      auto values = eff[i].span<float>();
      error_feedback_->compensate(i, values);
      const std::span<float> transmitted =
          roundtrip_buf.as<float>(values.size());
      compress_f32(values, snap, blob.data(), transmitted);
      error_feedback_->record(i, values, transmitted);
      std::memcpy(values.data(), transmitted.data(),
                  values.size() * sizeof(float));
    }
  }

  std::vector<Tensor*> ptrs;
  ptrs.reserve(eff.size());
  for (Tensor& t : eff) ptrs.push_back(&t);
  if (reduce_tensors(ptrs, ReduceOp::kAdasum) == ReduceOutcome::kSkipped) {
    // No agreed-on effective gradient: every rank reverts to the round
    // start, exactly like an fp16 overflow skip.
    revert_to_round_start();
    ++skipped_rounds_;
    return;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), round_start_[i].data(),
                round_start_[i].nbytes());
    kernels::add(eff[i].span<float>(), params[i]->value.span<float>());
  }
}

}  // namespace adasum::optim
