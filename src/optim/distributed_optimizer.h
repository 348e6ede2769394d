// DistributedOptimizer — the hvd.DistributedOptimizer(opt, op=…) analogue.
//
// Two integration modes, matching the paper exactly:
//
//  * op=Sum/Average (synchronous SGD): gradients are allreduced BEFORE the
//    inner optimizer consumes them. With local_steps > 1 the gradients
//    accumulate locally and the (reduce + step) happens once per round —
//    plain gradient accumulation (§2.2).
//
//  * op=Adasum: the inner optimizer steps LOCALLY on each microbatch, and the
//    communication operates on the EFFECTIVE GRADIENT w_now − w_round_start
//    AFTER the optimizer (Figure 3 — "the Adasum operation should be
//    performed after the optimizer update … the logic of optimizers should
//    only apply to the smaller minibatches per node"). With local_steps > 1
//    this is the TF local-SGD variant of §5.2: many local steps, then the
//    delta from the model state since the prior allreduce is reduced.
//
// The effective gradient is fused per layer (§4.4.3) so Adasum applies per
// layer (§3.6). Optional fp16 compression with dynamic scaling (§4.4.1):
// payloads are scaled into fp16, reduced, and unscaled; a round that
// overflows on any rank is skipped on all ranks (model reverts to the round
// start) and the scale backs off.
//
// An Adasum round computes the effective gradient in the parameters
// themselves: w -= w_round_start, reduce w (or its fp16 cast), then
// w += w_round_start. Inside a communicating step() the parameter values
// therefore hold the effective gradient, not weights; they are weights again
// when step() returns, including after a skipped round. A step() that throws
// (World::run rethrows and aborts the world) leaves them undefined.
//
// Both modes reduce through one bucket pipeline (DESIGN.md §12): the payload
// is packed into persistent fusion buckets, each reduced as one fused
// allreduce. `background` only picks who executes a bucket — the CommEngine
// thread or the calling thread — never which code runs, so a fixed layout
// gives the same bits either way.
#pragma once

#include <memory>

#include "collectives/allreduce.h"
#include "collectives/comm_engine.h"
#include "collectives/resilient.h"
#include "comm/autotune.h"
#include "comm/world.h"
#include "optim/optimizer.h"
#include "tensor/compress/compress.h"
#include "tensor/scaling.h"

namespace adasum::optim {

// Payload precision for the Adasum effective gradients:
//   kNone — fp32 payloads;
//   kFp16 — dynamic loss scaling into binary16 (§4.4.1), overflow rounds are
//           skipped consistently on every rank.
// Lossy compression of the transfers (the §6 axis) is `wire_compression`.
enum class GradientCompression { kNone, kFp16 };

struct DistributedOptions {
  ReduceOp op = ReduceOp::kAdasum;
  AllreduceAlgo algo = AllreduceAlgo::kAuto;
  int ranks_per_node = 1;   // for AllreduceAlgo::kHierarchical
  int local_steps = 1;      // microbatches per communication round
  bool layerwise = true;    // per-layer Adasum boundaries (§3.6)
  GradientCompression compression = GradientCompression::kNone;
  // Wire codec for the allreduce transfers (DESIGN.md §13): blockwise
  // int8/int4/sign applied inside the collectives to transferred payloads
  // only — reductions still run on decompressed fp32. kAuto (the default)
  // defers to the World's ADASUM_COMPRESS configuration. An fp16 payload
  // (compression == kFp16) crosses the wire uncompressed.
  CompressionOptions wire_compression{};
  // Error feedback for the wire codec in Adasum mode: each round adds back
  // the previous round's quantization residual, then snaps the effective
  // gradient through a local codec roundtrip so the banked residual is
  // exactly what the wire drops. This is what keeps the biased compressors
  // convergent (Seide et al., the paper's [33]); bench_compress gates
  // convergence parity with it on. No effect unless wire compression is
  // active; Sum/Average rounds compress the wire but carry no residual.
  bool error_feedback = true;
  // Horovod-style tensor fusion buckets (§4, Figure 3): parameters are
  // packed into buckets of about this many bytes, each reduced as its own
  // fused allreduce. 0 (the default) is one bucket — one fused buffer for
  // the whole model. Bucketing changes Adasum's segment boundaries, so
  // results are bit-identical across bucket LAYOUTS only for plain sums; a
  // fixed layout is bit-identical whether reduced inline or on the engine.
  std::size_t bucket_bytes = 0;
  // Run the bucket allreduces on a background CommEngine thread so
  // communication overlaps gradient/delta computation. Off: every bucket is
  // reduced inline on the calling thread, at the same point of the round.
  bool background = false;
  // Cost-model autotuning (DESIGN.md §14): at the first step(), price the
  // model's payload on the ADASUM_TOPOLOGY topology (uniform single-rank
  // nodes when unset) and resolve algo/ranks_per_node from the arg-min —
  // only when algo is kAuto, so an explicit algorithm choice always wins.
  // ADASUM_AUTOTUNE=on (base/runtime_config.h) force-enables this flag at
  // construction. The full pick is exposed via tuned() for tests/benches.
  bool autotune = false;
};

class DistributedOptimizer {
 public:
  DistributedOptimizer(Comm& comm, std::unique_ptr<Optimizer> inner,
                       DistributedOptions options);
  ~DistributedOptimizer();

  // One microbatch step: consumes the gradients currently in the parameters
  // (zeroing them when appropriate) and, every `local_steps` calls, performs
  // the communication round. Returns true if a round was communicated.
  bool step(double lr);

  // Incremental gradient availability (the Horovod hook of Figure 3):
  // backprop calls this as each parameter's gradient becomes final, and any
  // bucket whose parameters are all ready is packed and submitted to the
  // background engine immediately — communication overlaps the rest of
  // backprop, and step() only joins. Effective only with background mode in
  // Sum/Average op on a communicating microstep; otherwise a no-op, so
  // callers may invoke it unconditionally.
  void notify_grad_ready(std::size_t param_index);

  // Number of communication rounds performed.
  long rounds() const { return rounds_; }
  // Rounds skipped: fp16 overflow, plus (in fault-tolerant mode) rounds
  // whose reduction exhausted its recovery attempts. A skipped round leaves
  // the model exactly at its round-start state on every rank.
  long skipped_rounds() const { return skipped_rounds_; }
  // Rounds completed over a shrunken survivor group (fault-tolerant mode).
  long degraded_rounds() const { return degraded_rounds_; }
  Optimizer& inner() { return *inner_; }
  const DynamicScaler& scaler() const { return scaler_; }
  // The autotuner's pick, available after the first step() when
  // options.autotune was set (nullptr otherwise). chunk_bytes in the pick is
  // advisory — the pipeline chunk is World-level configuration the optimizer
  // does not own; algo/ranks_per_node are what this layer applies.
  const TunedConfig* tuned() const {
    return tuned_resolved_ ? &tuned_ : nullptr;
  }

 private:
  // One fusion bucket: a contiguous range of parameter indices reduced as a
  // single fused allreduce. The FusionBuffer and AllreduceOptions are
  // per-bucket and persistent so warm rounds re-stage in place and the
  // engine can hold a stable options pointer while the op is in flight.
  struct Bucket {
    std::size_t first = 0, last = 0;  // [first, last) tensor indices
    FusionBuffer fusion;
    AllreduceOptions opts;
    CommEngine::Ticket ticket = 0;
    ResilientResult inline_result;  // result when reduced on this thread
    bool launched = false;
  };

  ReduceOutcome communicate_gradients(); // Sum/Average path
  // Adasum path (Figure 3): per bucket, computes the deltas in place in the
  // parameters (with the error-feedback snap) and launches the bucket, so
  // the engine reduces bucket b while this thread computes bucket b+1; fp16
  // casts every bucket and holds the overflow vote before the first launch.
  // Five passes over the payload per round: the snapshot in step(), the
  // delta, the pack, the unpack and the add that restores the weights.
  void communicate_effective_gradient();
  // Pointers at the params' grads, rebuilt only when the params change.
  std::vector<Tensor*>& grad_views();
  // (Re)builds buckets_ for the byte layout of `tensors`; no-op when the
  // layout is unchanged from the previous round.
  void ensure_buckets(const std::vector<Tensor*>& tensors);
  // Tag namespace of the current round, allocated on first use so buckets
  // submitted from notify_grad_ready and from step() agree.
  int acquire_round_index();
  int bucket_tag_base(int round_index, std::size_t bucket) const;
  // Packs bucket `b` from `tensors` and starts its allreduce — on the
  // engine in background mode, inline otherwise.
  void launch_bucket(std::size_t b, const std::vector<Tensor*>& tensors,
                     ReduceOp op, int round_index);
  // Launches every bucket not launched yet, joins them all in order,
  // unpacks, and aggregates the worst outcome. On a fault-tolerant world the
  // reduction degrades instead of throwing; the outcome says whether the
  // caller must treat the round as skipped.
  ReduceOutcome reduce_bucketed(std::vector<Tensor*>& tensors, ReduceOp op);
  CommEngine& engine();
  // Shares the per-rank overflow flag; true -> skip the round everywhere.
  // Fault-tolerant worlds agree through the liveness-aware vote (a dead rank
  // would deadlock the plain allreduce); others keep the wire allreduce.
  bool round_overflowed_globally(bool local_overflow);
  // First-step autotune resolution (options_.autotune): prices the payload
  // on the env topology and rewrites options_.algo / ranks_per_node.
  void resolve_autotune();

  Comm& comm_;
  std::unique_ptr<Optimizer> inner_;
  DistributedOptions options_;
  std::vector<Tensor> round_start_;  // parameter snapshot (Adasum mode)
  int micro_step_ = 0;
  long rounds_ = 0;
  long skipped_rounds_ = 0;
  long degraded_rounds_ = 0;
  DynamicScaler scaler_;
  std::unique_ptr<ErrorFeedback> error_feedback_;  // wire error feedback
  int tag_round_ = 0;
  TunedConfig tuned_{};          // autotuner pick (valid when resolved)
  bool tuned_resolved_ = false;

  // Bucket pipeline state. The scratch vectors are members so warm rounds
  // allocate nothing — the allocation gates count steady-state allocations
  // across the whole step.
  std::vector<Bucket> buckets_;
  std::vector<std::size_t> bucket_signature_;  // per-tensor nbytes of layout
  // Adasum payload, sized with round_start_: with kFp16, the deltas' scaled
  // fp16 casts; pointers at whichever is reduced — the fp16 casts, or the
  // parameter values themselves, which hold the fp32 deltas during a round.
  std::vector<Tensor> eff_fp16_;
  std::vector<Tensor*> payload_views_;
  std::vector<int> everyone_;  // the overflow vote's group, built once
  std::vector<Tensor*> grads_view_;   // pointers at the params' grads
  std::vector<const Tensor*> pack_views_;  // launch_bucket pack scratch
  std::vector<Tensor*> unpack_views_;      // reduce_bucketed unpack scratch
  std::vector<char> grad_ready_;      // notify_grad_ready marks, per tensor
  std::size_t next_unlaunched_ = 0;   // first bucket not yet launched
  int round_index_ = -1;              // in-flight round's tag index, -1=none
  // Declared last so destruction drains the worker while the buckets (whose
  // tensors/options in-flight ops point at) are still alive.
  std::unique_ptr<CommEngine> engine_;
};

}  // namespace adasum::optim
