// End-to-end integration tests of the paper's headline behaviors, kept small
// enough for the unit-test budget. The full-size versions live in bench/.
#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "train/trainer.h"

namespace adasum::train {
namespace {

data::ClusterImageDataset task(std::size_t n, std::uint64_t example_seed) {
  data::ClusterImageDataset::Options opt;
  opt.num_examples = n;
  opt.num_classes = 8;
  opt.height = 8;
  opt.width = 8;
  opt.noise = 1.0;
  opt.seed = 41;
  opt.example_seed = example_seed;
  return data::ClusterImageDataset(opt);
}

ModelFactory convnet() {
  return [](Rng& rng) { return nn::make_resnet_tiny(1, 8, rng, 1, 4); };
}

double final_accuracy(ReduceOp op, int local_steps, double lr, int epochs,
                      const data::Dataset& train_set,
                      const data::Dataset& eval_set) {
  optim::ConstantLr schedule(lr);
  TrainConfig config;
  config.world_size = 8;
  config.microbatch = 4;
  config.epochs = epochs;
  config.optimizer = optim::OptimizerKind::kMomentum;
  config.dist.op = op;
  config.dist.local_steps = local_steps;
  config.schedule = &schedule;
  config.eval_examples = 256;
  config.seed = 11;
  return train_data_parallel(convnet(), train_set, eval_set, config)
      .best_accuracy;
}

// The §5.1 headline, miniature: at an 8x effective batch, Sum stalls while
// Adasum keeps converging — with identical hyperparameters.
TEST(EndToEnd, SumStallsAtLargeBatchAdasumDoesNot) {
  const auto train_set = task(1024, 0);
  const auto eval_set = task(256, 4242);
  const double sum_large =
      final_accuracy(ReduceOp::kSum, 8, 0.005, 8, train_set, eval_set);
  const double ada_large =
      final_accuracy(ReduceOp::kAdasum, 8, 0.005, 8, train_set, eval_set);
  EXPECT_LT(sum_large, 0.5);
  EXPECT_GT(ada_large, sum_large + 0.1);
}

// With a small batch both operators behave (the paper's Sum-2k == Adasum-2k).
TEST(EndToEnd, SmallBatchBothConverge) {
  const auto train_set = task(1024, 0);
  const auto eval_set = task(256, 4242);
  const double sum_small =
      final_accuracy(ReduceOp::kSum, 1, 0.01, 6, train_set, eval_set);
  const double ada_small =
      final_accuracy(ReduceOp::kAdasum, 1, 0.02, 6, train_set, eval_set);
  EXPECT_GT(sum_small, 0.7);
  EXPECT_GT(ada_small, 0.6);
}

// Hierarchical allreduce end-to-end inside the distributed optimizer.
TEST(EndToEnd, HierarchicalAdasumTrains) {
  const auto train_set = task(512, 0);
  const auto eval_set = task(256, 4242);
  optim::ConstantLr schedule(0.02);
  TrainConfig config;
  config.world_size = 8;
  config.microbatch = 4;
  config.epochs = 5;
  config.optimizer = optim::OptimizerKind::kMomentum;
  config.dist.op = ReduceOp::kAdasum;
  config.dist.algo = AllreduceAlgo::kHierarchical;
  config.dist.ranks_per_node = 2;  // 4 "nodes" x 2 "GPUs"
  config.schedule = &schedule;
  config.eval_examples = 256;
  config.seed = 11;
  ModelFactory factory = [](Rng& rng) {
    auto net = std::make_unique<nn::Sequential>("net");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Linear>("fc1", 64, 24, rng);
    net->emplace<nn::ReLU>("r");
    net->emplace<nn::Linear>("fc2", 24, 8, rng, true);
    return net;
  };
  const TrainResult r =
      train_data_parallel(factory, train_set, eval_set, config);
  EXPECT_GT(r.final_accuracy, 0.7);
}

// Adam + Adasum (Figure 3 with an adaptive optimizer) end-to-end.
TEST(EndToEnd, AdamWithAdasumTrains) {
  const auto train_set = task(512, 0);
  const auto eval_set = task(256, 4242);
  optim::ConstantLr schedule(0.003);
  TrainConfig config;
  config.world_size = 4;
  config.microbatch = 8;
  config.epochs = 5;
  config.optimizer = optim::OptimizerKind::kAdam;
  config.dist.op = ReduceOp::kAdasum;
  config.schedule = &schedule;
  config.eval_examples = 256;
  config.seed = 11;
  ModelFactory factory = [](Rng& rng) {
    auto net = std::make_unique<nn::Sequential>("net");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Linear>("fc1", 64, 24, rng);
    net->emplace<nn::ReLU>("r");
    net->emplace<nn::Linear>("fc2", 24, 8, rng, true);
    return net;
  };
  const TrainResult r =
      train_data_parallel(factory, train_set, eval_set, config);
  EXPECT_GT(r.final_accuracy, 0.7);
}

// Adasum over the int8 wire codec trains end-to-end (error feedback keeps
// it sound).
TEST(EndToEnd, Int8CompressedAdasumTrains) {
  const auto train_set = task(512, 0);
  const auto eval_set = task(256, 4242);
  optim::ConstantLr schedule(0.02);
  TrainConfig config;
  config.world_size = 4;
  config.microbatch = 8;
  config.epochs = 5;
  config.optimizer = optim::OptimizerKind::kMomentum;
  config.dist.op = ReduceOp::kAdasum;
  config.dist.wire_compression.mode = CompressionMode::kInt8;
  config.dist.error_feedback = true;
  config.schedule = &schedule;
  config.eval_examples = 256;
  config.seed = 11;
  ModelFactory factory = [](Rng& rng) {
    auto net = std::make_unique<nn::Sequential>("net");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Linear>("fc", 64, 8, rng, true);
    return net;
  };
  const TrainResult r =
      train_data_parallel(factory, train_set, eval_set, config);
  EXPECT_GT(r.final_accuracy, 0.6);
}

}  // namespace
}  // namespace adasum::train
