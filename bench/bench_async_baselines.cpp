// Baseline comparison: Adasum vs asynchronous SGD vs DC-ASGD (paper §6).
//
// The paper motivates Adasum against asynchronous approaches: async SGD
// avoids the allreduce barrier but pays with stale gradients; DC-ASGD
// (Zheng et al., the paper's [39]) compensates with the diagonal g·gᵀ
// Hessian approximation but "requires an additional hyperparameter which
// requires a careful tuning over time" and was only shown for SGD variants.
// Adasum uses the same second-order insight synchronously, hyperparameter-
// free, and optimizer-agnostic.
//
// Setup: the same classification task for all methods; async methods run a
// parameter server with staleness = workers-1 (every worker's push lands
// after the others'), Adasum runs a synchronous round over the same worker
// count. All methods see the same number of examples.
#include "bench_util.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "optim/lr_schedule.h"
#include "train/async_sgd.h"
#include "train/trainer.h"

namespace {

using namespace adasum;
using bench::Table;

train::ModelFactory factory() {
  return [](Rng& rng) {
    auto net = std::make_unique<nn::Sequential>("net");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Linear>("fc1", 64, 24, rng);
    net->emplace<nn::ReLU>("r");
    net->emplace<nn::Linear>("fc2", 24, 8, rng, true);
    return net;
  };
}

}  // namespace

int main() {
  bench::print_header("Baselines — Adasum vs async SGD vs DC-ASGD",
                      "§6 related work: staleness vs adaptive summation");

  data::ClusterImageDataset::Options opt;
  opt.num_examples = 2048;
  opt.num_classes = 8;
  opt.height = 8;
  opt.width = 8;
  opt.noise = 1.1;
  opt.seed = 45;
  data::ClusterImageDataset train_set(opt);
  opt.num_examples = 512;
  opt.example_seed = 4545;
  data::ClusterImageDataset eval_set(opt);

  const int workers = 16;
  const int epochs = bench::full_mode() ? 4 : 2;
  const double lr = 0.4;  // aggressive enough that staleness bites

  // Async variants.
  train::AsyncSgdOptions async_opt;
  async_opt.staleness = workers - 1;
  async_opt.lr = lr;
  async_opt.epochs = epochs;
  async_opt.microbatch = 16;
  const auto async_plain =
      train_async_sgd(factory(), train_set, eval_set, async_opt);

  train::AsyncSgdOptions dc_opt = async_opt;
  dc_opt.compensation = train::StalenessCompensation::kDcAsgd;
  // DC-ASGD needs its lambda tuned; use a small search like its paper does.
  // The usable window is narrow (larger values diverge outright) — exactly
  // the "careful tuning" cost the paper attributes to it.
  train::AsyncSgdResult dc_best;
  double dc_lambda = 0.0;
  for (double lambda : {0.001, 0.002, 0.005}) {
    dc_opt.dc_lambda = lambda;
    const auto r = train_async_sgd(factory(), train_set, eval_set, dc_opt);
    if (r.final_accuracy > dc_best.final_accuracy) {
      dc_best = r;
      dc_lambda = lambda;
    }
  }

  // Fresh-gradient reference (staleness 0 = sequential SGD).
  train::AsyncSgdOptions fresh_opt = async_opt;
  fresh_opt.staleness = 0;
  const auto fresh =
      train_async_sgd(factory(), train_set, eval_set, fresh_opt);

  // Adasum, synchronous, same worker count and examples, no extra tuning.
  optim::ConstantLr schedule(lr);
  train::TrainConfig sync_config;
  sync_config.world_size = workers;
  sync_config.microbatch = 16;
  sync_config.epochs = epochs;
  sync_config.optimizer = optim::OptimizerKind::kSgd;
  sync_config.dist.op = ReduceOp::kAdasum;
  sync_config.schedule = &schedule;
  sync_config.eval_examples = 512;
  sync_config.seed = 9;
  const train::TrainResult adasum_result = train::train_data_parallel(
      factory(), train_set, eval_set, sync_config);

  Table table({"method", "hyperparams beyond lr", "final accuracy"});
  table.row("sequential SGD (staleness 0)", "-", fresh.final_accuracy);
  table.row("async SGD (staleness 15)", "-", async_plain.final_accuracy);
  table.row("DC-ASGD (staleness 15)", "lambda=" + bench::fmt(dc_lambda, 3),
            dc_best.final_accuracy);
  table.row("Adasum (synchronous, 16 workers)", "none",
            adasum_result.final_accuracy);
  table.print();
  std::cout << "\n";

  bench::check_shape(
      "staleness hurts: async SGD trails the fresh-gradient reference",
      async_plain.final_accuracy < fresh.final_accuracy);
  bench::check_shape(
      "DC-ASGD's compensation recovers part of the staleness gap (with its "
      "tuned lambda)",
      dc_best.final_accuracy >= async_plain.final_accuracy);
  bench::check_shape(
      "hyperparameter-free Adasum matches or beats the tuned DC-ASGD",
      adasum_result.final_accuracy >= dc_best.final_accuracy - 0.02);
  return bench::exit_status();
}
