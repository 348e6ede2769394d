// Parameterized sweep over the DistributedOptimizer configuration space:
// every (reduce op x inner optimizer x local-steps x compression) cell must
// keep all replicas bit-identical and produce finite, sane updates. This is
// the combinatorial-coverage complement to the targeted semantic tests in
// distributed_optimizer_test.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/distributed_optimizer.h"
#include "train/hessian.h"

namespace adasum::optim {
namespace {

// The effective-gradient payload: fp32, fp16 with dynamic scaling, or fp32
// over the int8 wire codec with error feedback.
enum class Payload { kFp32, kFp16, kWireInt8 };

struct SweepParam {
  ReduceOp op;
  OptimizerKind optimizer;
  int local_steps;
  Payload payload;
  AllreduceAlgo algo;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string name = reduce_op_name(p.op);
  name += "_";
  name += optimizer_name(p.optimizer);
  name += "_ls" + std::to_string(p.local_steps);
  switch (p.payload) {
    case Payload::kFp32: name += "_fp32"; break;
    case Payload::kFp16: name += "_fp16"; break;
    case Payload::kWireInt8: name += "_int8"; break;
  }
  if (p.algo == AllreduceAlgo::kHierarchical) name += "_hier";
  if (p.algo == AllreduceAlgo::kRing) name += "_ring";
  if (p.algo == AllreduceAlgo::kRvh) name += "_rvh";
  // gtest names must be alphanumeric.
  std::string clean;
  for (char c : name)
    if (std::isalnum(static_cast<unsigned char>(c))) clean += c;
  return clean;
}

class DistributedSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DistributedSweepTest, ReplicasStayIdenticalAndFinite) {
  const SweepParam& p = GetParam();
  const int ranks = 4;
  std::vector<Tensor> finals(static_cast<std::size_t>(ranks));
  World world(ranks);
  world.run([&](Comm& comm) {
    Rng rng(321);
    auto model = nn::make_mlp({5, 12, 3}, rng);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = p.op;
    opts.local_steps = p.local_steps;
    if (p.payload == Payload::kFp16)
      opts.compression = GradientCompression::kFp16;
    if (p.payload == Payload::kWireInt8) {
      opts.wire_compression.mode = CompressionMode::kInt8;
      opts.error_feedback = true;
    }
    opts.algo = p.algo;
    opts.ranks_per_node = p.algo == AllreduceAlgo::kHierarchical ? 2 : 1;
    DistributedOptimizer dopt(comm, make_optimizer(p.optimizer, params),
                              opts);
    Rng data_rng = Rng(500).fork(static_cast<std::uint64_t>(comm.rank()));
    for (int s = 0; s < 2 * p.local_steps + 1; ++s) {
      Tensor x({6, 5});
      auto xs = x.span<float>();
      for (auto& v : xs) v = static_cast<float>(data_rng.normal());
      std::vector<int> y;
      for (int i = 0; i < 6; ++i)
        y.push_back(static_cast<int>(data_rng.uniform_int(3)));
      const Tensor logits = model->forward(x, true);
      const nn::LossResult lr = nn::softmax_cross_entropy(logits, y);
      model->backward(lr.grad);
      dopt.step(0.02);
    }
    // Communication happened at least twice; an incomplete round is pending,
    // but parameters are only mutated locally inside a round for Adasum mode
    // — flush by checking the state at the last completed round boundary is
    // shared. For simplicity compare after one more step completing a round.
    for (int s = 0; s < p.local_steps - 1; ++s) {
      Tensor x({6, 5});
      auto xs = x.span<float>();
      for (auto& v : xs) v = static_cast<float>(data_rng.normal());
      std::vector<int> y{0, 1, 2, 0, 1, 2};
      const Tensor logits = model->forward(x, true);
      const nn::LossResult lr = nn::softmax_cross_entropy(logits, y);
      model->backward(lr.grad);
      dopt.step(0.02);
    }
    EXPECT_GE(dopt.rounds(), 2);
    finals[static_cast<std::size_t>(comm.rank())] =
        train::params_to_flat(params);
  });
  // All replicas identical and finite.
  for (std::size_t i = 0; i < finals[0].size(); ++i) {
    ASSERT_TRUE(std::isfinite(finals[0].at(i))) << i;
    for (int r = 1; r < ranks; ++r)
      ASSERT_EQ(finals[static_cast<std::size_t>(r)].at(i), finals[0].at(i))
          << "rank " << r << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DistributedSweepTest,
    ::testing::Values(
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kSgd, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kMomentum, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kAdam, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kLars, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kLamb, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kAdam, 3,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kMomentum, 1,
                   Payload::kFp16, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kMomentum, 1,
                   Payload::kWireInt8, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kAdam, 2,
                   Payload::kFp16, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kMomentum, 1,
                   Payload::kFp32, AllreduceAlgo::kHierarchical},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kAdam, 2,
                   Payload::kFp32, AllreduceAlgo::kHierarchical},
        SweepParam{ReduceOp::kAdasum, OptimizerKind::kMomentum, 1,
                   Payload::kFp32, AllreduceAlgo::kRing},
        SweepParam{ReduceOp::kSum, OptimizerKind::kSgd, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kSum, OptimizerKind::kAdam, 2,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kSum, OptimizerKind::kMomentum, 1,
                   Payload::kFp32, AllreduceAlgo::kRing},
        SweepParam{ReduceOp::kAverage, OptimizerKind::kMomentum, 1,
                   Payload::kFp32, AllreduceAlgo::kAuto},
        SweepParam{ReduceOp::kAverage, OptimizerKind::kLamb, 2,
                   Payload::kFp32, AllreduceAlgo::kAuto}),
    param_name);

}  // namespace
}  // namespace adasum::optim
