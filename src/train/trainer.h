// Data-parallel training driver over the simulated MPI world.
//
// Each rank (thread) constructs a bit-identical model replica from the same
// seed, consumes its shard of the dataset, and steps through a
// DistributedOptimizer — so the run computes exactly what the corresponding
// Horovod job would, just in one address space. Rank 0 evaluates the model
// after each epoch and the world agrees on early stopping via a tiny
// allreduce (every rank holds an identical model after each communication
// round, so evaluating once is enough).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "comm/world.h"
#include "data/dataset.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "optim/distributed_optimizer.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"

namespace adasum::train {

using ModelFactory =
    std::function<std::unique_ptr<nn::Sequential>(Rng& rng)>;

struct TrainConfig {
  int world_size = 4;
  std::size_t microbatch = 32;   // examples per rank per step
  int epochs = 2;
  optim::OptimizerKind optimizer = optim::OptimizerKind::kMomentum;
  optim::DistributedOptions dist;          // op / algo / local_steps / fp16
  const optim::LrSchedule* schedule = nullptr;  // required
  std::uint64_t seed = 1234;
  // Stop as soon as eval accuracy reaches this (if set).
  std::optional<double> target_accuracy;
  std::size_t eval_examples = 512;  // evaluated from eval_dataset each epoch
  std::size_t eval_batch = 64;
  bool record_train_loss = true;
  // Warm start: when non-empty, loaded into the model after construction
  // (flat layout of train::params_to_flat). Used for multi-phase training
  // (BERT phase 1 -> phase 2).
  Tensor initial_params;
  // Fault tolerance (DESIGN.md §9): bounded receives, degraded reductions
  // over survivors, and evaluator failover to the lowest alive rank. An
  // optional injector adds seeded faults on top.
  bool fault_tolerant = false;
  FaultToleranceOptions fault_tolerance;
  std::shared_ptr<FaultInjector> fault_injector;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;       // mean over the epoch's microbatches
  double eval_accuracy = 0.0;
  double eval_loss = 0.0;
  long steps_so_far = 0;         // optimizer microbatch steps (per rank)
  long rounds_so_far = 0;        // communication rounds
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  bool reached_target = false;
  int epochs_to_target = -1;     // first epoch index (1-based) at target
  double best_accuracy = 0.0;
  double final_accuracy = 0.0;
  long total_rounds = 0;
  // CommStats::bytes_sent summed over every rank for the whole run.
  std::uint64_t bytes_sent = 0;
  // Fault-tolerant runs: ranks killed by the injector, and the evaluator's
  // count of degraded / skipped communication rounds.
  std::vector<int> dead_ranks;
  long degraded_rounds = 0;
  long skipped_rounds = 0;
  // Final model parameters (the evaluating rank's replica, flat layout) for
  // phase chaining.
  Tensor final_params;
};

// Evaluate `model` on the first `max_examples` of `dataset`.
struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
};
EvalResult evaluate(nn::Sequential& model, const data::Dataset& dataset,
                    std::size_t max_examples, std::size_t batch);

// Run data-parallel training. `train` and `eval` must outlive the call.
TrainResult train_data_parallel(const ModelFactory& factory,
                                const data::Dataset& train_set,
                                const data::Dataset& eval_set,
                                const TrainConfig& config);

}  // namespace adasum::train
