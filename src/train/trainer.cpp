#include "train/trainer.h"

#include <cmath>
#include <numeric>

#include "base/check.h"
#include "base/logging.h"
#include "train/hessian.h"

namespace adasum::train {

EvalResult evaluate(nn::Sequential& model, const data::Dataset& dataset,
                    std::size_t max_examples, std::size_t batch) {
  const std::size_t n = std::min(max_examples, dataset.size());
  ADASUM_CHECK_GT(n, 0u);
  EvalResult result;
  std::size_t done = 0;
  double loss_sum = 0.0, acc_sum = 0.0;
  std::size_t batches = 0;
  while (done < n) {
    const std::size_t take = std::min(batch, n - done);
    std::vector<std::size_t> indices(take);
    std::iota(indices.begin(), indices.end(), done);
    const data::Batch b = data::make_batch(dataset, indices);
    const Tensor logits = model.forward(b.inputs, /*train=*/false);
    const nn::LossResult lr = nn::softmax_cross_entropy(logits, b.labels);
    loss_sum += lr.loss;
    acc_sum += nn::accuracy(logits, b.labels);
    ++batches;
    done += take;
  }
  result.loss = loss_sum / static_cast<double>(batches);
  result.accuracy = acc_sum / static_cast<double>(batches);
  return result;
}

TrainResult train_data_parallel(const ModelFactory& factory,
                                const data::Dataset& train_set,
                                const data::Dataset& eval_set,
                                const TrainConfig& config) {
  ADASUM_CHECK(config.schedule != nullptr);
  ADASUM_CHECK_GE(config.world_size, 1);

  World world(config.world_size);
  if (config.fault_tolerant)
    world.enable_fault_tolerance(config.fault_tolerance);
  if (config.fault_injector != nullptr)
    world.set_fault_injector(config.fault_injector);
  TrainResult result;
  std::mutex result_mutex;

  world.run([&](Comm& comm) {
    // Identical replica on every rank: same seed stream.
    Rng model_rng(config.seed);
    std::unique_ptr<nn::Sequential> model = factory(model_rng);
    auto params = model->parameters();
    if (!config.initial_params.empty())
      flat_to_params(config.initial_params, params);
    optim::DistributedOptimizer dopt(
        comm, optim::make_optimizer(config.optimizer, params), config.dist);

    data::DataLoader loader(train_set, config.microbatch, comm.rank(),
                            comm.size(), config.seed ^ 0xDA7A10AD);
    const std::size_t steps_per_epoch = loader.batches_per_epoch();
    ADASUM_CHECK_GT(steps_per_epoch, 0u);

    const std::vector<int> everyone = [&] {
      std::vector<int> v(static_cast<std::size_t>(comm.size()));
      std::iota(v.begin(), v.end(), 0);
      return v;
    }();

    long step = 0;
    bool stop = false;
    for (int epoch = 0; epoch < config.epochs && !stop; ++epoch) {
      double loss_sum = 0.0;
      for (std::size_t s = 0; s < steps_per_epoch; ++s, ++step) {
        const data::Batch batch =
            loader.batch(static_cast<std::size_t>(epoch), s);
        const Tensor logits = model->forward(batch.inputs, /*train=*/true);
        const nn::LossResult lr =
            nn::softmax_cross_entropy(logits, batch.labels);
        loss_sum += lr.loss;
        model->backward(lr.grad);
        dopt.step(config.schedule->lr(step));
      }

      // One rank evaluates (models are identical after each round) and the
      // verdict is shared through a sum-allreduce. Without fault tolerance
      // that rank is 0; with it, the lowest ALIVE rank — evaluator failover
      // — and the sync itself degrades over survivors instead of hanging on
      // a corpse. The fourth slot counts evaluators so the survivors can
      // tell "evaluator's verdict arrived" from "it died mid-epoch".
      const int evaluator = comm.fault_tolerant() ? comm.lowest_alive() : 0;
      double eval_acc = 0.0, eval_loss = 0.0, stop_flag = 0.0;
      bool synced = true;
      if (comm.rank() == evaluator) {
        const EvalResult ev =
            evaluate(*model, eval_set, config.eval_examples, config.eval_batch);
        eval_acc = ev.accuracy;
        eval_loss = ev.loss;
        if (config.target_accuracy && ev.accuracy >= *config.target_accuracy)
          stop_flag = 1.0;
      }
      if (!comm.fault_tolerant()) {
        const std::vector<double> shared = comm.allreduce_sum_doubles(
            std::vector<double>{eval_acc, eval_loss, stop_flag}, everyone,
            /*tag=*/77000000 + epoch);
        eval_acc = shared[0];
        eval_loss = shared[1];
        stop = shared[2] > 0.0;
      } else {
        Tensor verdict({4}, DType::kFloat64);
        const std::span<double> v = verdict.span<double>();
        v[0] = eval_acc;
        v[1] = eval_loss;
        v[2] = stop_flag;
        v[3] = comm.rank() == evaluator ? 1.0 : 0.0;
        AllreduceOptions vopts;
        vopts.op = ReduceOp::kSum;
        vopts.algo = AllreduceAlgo::kAuto;
        const ResilientResult vr =
            resilient_allreduce(comm, verdict, vopts,
                                /*tag_base=*/(epoch % 64) * 65536);
        // The outcome is uniform across survivors (it is decided by votes),
        // so every rank takes the same stop/continue branch here — the
        // invariant that keeps the world deadlock-free.
        if (vr.outcome == ReduceOutcome::kSkipped || v[3] <= 0.0) {
          synced = false;  // no agreed verdict this epoch; keep training
          stop = false;
        } else {
          eval_acc = v[0] / v[3];
          eval_loss = v[1] / v[3];
          stop = v[2] > 0.0;
        }
      }

      if (comm.rank() == evaluator && synced) {
        std::lock_guard<std::mutex> lock(result_mutex);
        EpochStats stats;
        stats.epoch = epoch + 1;
        stats.train_loss = loss_sum / static_cast<double>(steps_per_epoch);
        stats.eval_accuracy = eval_acc;
        stats.eval_loss = eval_loss;
        stats.steps_so_far = step;
        stats.rounds_so_far = dopt.rounds();
        result.epochs.push_back(stats);
        result.best_accuracy = std::max(result.best_accuracy, eval_acc);
        result.final_accuracy = eval_acc;
        result.total_rounds = dopt.rounds();
        result.degraded_rounds = dopt.degraded_rounds();
        result.skipped_rounds = dopt.skipped_rounds();
        if (stop && !result.reached_target) {
          result.reached_target = true;
          result.epochs_to_target = epoch + 1;
        }
        if (stop || epoch + 1 == config.epochs)
          result.final_params = params_to_flat(params);
        ADASUM_LOG(Info) << "epoch " << epoch + 1 << " loss=" << stats.train_loss
                         << " acc=" << eval_acc;
      }
    }
  });
  result.dead_ranks = world.dead_ranks();
  for (const CommStats& s : world.stats()) result.bytes_sent += s.bytes_sent;
  return result;
}

}  // namespace adasum::train
