// Tests for the DistributedOptimizer integration semantics (Figure 3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "base/rng.h"
#include "comm/buffer_pool.h"
#include "core/adasum.h"
#include "tensor/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/distributed_optimizer.h"
#include "train/hessian.h"

#include "chaos_util.h"
#include "heap_counter.h"

namespace adasum::optim {
namespace {

using adasum::adasum_tree_layerwise;
namespace kernels = adasum::kernels;

using nn::Parameter;

// Build a tiny deterministic model per rank.
std::unique_ptr<nn::Sequential> small_model(std::uint64_t seed) {
  Rng rng(seed);
  return nn::make_mlp({4, 8, 3}, rng);
}

// One synthetic classification microbatch per (rank, step).
struct MicroBatch {
  Tensor x;
  std::vector<int> y;
};
MicroBatch batch_for(int rank, int step, std::uint64_t seed = 7) {
  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(rank * 1000 + step));
  MicroBatch mb;
  mb.x = Tensor({8, 4});
  auto xs = mb.x.span<float>();
  for (auto& v : xs) v = static_cast<float>(rng.normal());
  for (int i = 0; i < 8; ++i)
    mb.y.push_back(static_cast<int>(rng.uniform_int(3)));
  return mb;
}

void forward_backward(nn::Sequential& model, const MicroBatch& mb) {
  const Tensor logits = model.forward(mb.x, true);
  const nn::LossResult lr = nn::softmax_cross_entropy(logits, mb.y);
  model.backward(lr.grad);
}

TEST(DistributedOptimizerTest, SumModeMatchesManualGradientSum) {
  // 4 ranks, Sum op: the update must equal a serial SGD step on the SUM of
  // the per-rank gradients.
  const int ranks = 4;
  const double lr = 0.05;

  // Serial reference.
  auto ref = small_model(11);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r) forward_backward(*ref, batch_for(r, 0));
  // grads now hold the sum over ranks' microbatches.
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(11);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kSum;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    EXPECT_TRUE(dopt.step(lr));
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5) << i;
}

TEST(DistributedOptimizerTest, AverageModeDividesByWorld) {
  const int ranks = 2;
  const double lr = 0.1;
  auto ref = small_model(12);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r) forward_backward(*ref, batch_for(r, 0));
  for (Parameter* p : ref_params) {
    auto g = p->grad.span<float>();
    for (auto& v : g) v *= 0.5f;
  }
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(12);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAverage;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    dopt.step(lr);
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5);
}

TEST(DistributedOptimizerTest, AdasumStepAppliesOperatorToEffectiveGradients) {
  // With plain SGD inside, each rank's effective gradient is -lr * g_r, so
  // the post-step model must be w0 + AdasumTree({-lr g_r}) applied per layer.
  const int ranks = 4;
  const double lr = 0.05;

  // Collect per-rank gradients serially.
  std::vector<std::vector<Tensor>> eff(ranks);
  auto probe = small_model(13);
  const Tensor w0 = train::params_to_flat(probe->parameters());
  std::vector<TensorSlice> slices;
  {
    auto params = probe->parameters();
    for (int r = 0; r < ranks; ++r) {
      nn::zero_grads(params);
      forward_backward(*probe, batch_for(r, 0));
      for (Parameter* p : params) {
        Tensor d = p->grad.clone();
        kernels::scale(-lr, d.span<float>());
        eff[static_cast<std::size_t>(r)].push_back(std::move(d));
      }
    }
    std::size_t offset = 0;
    for (Parameter* p : params) {
      slices.push_back(TensorSlice{p->name, offset, p->size()});
      offset += p->size();
    }
  }
  // Expected: per-layer tree Adasum of the effective gradients.
  std::vector<Tensor> fused;
  for (int r = 0; r < ranks; ++r) {
    std::vector<const Tensor*> ptrs;
    for (const Tensor& t : eff[static_cast<std::size_t>(r)])
      ptrs.push_back(&t);
    fused.push_back(fuse(ptrs).flat);
  }
  const Tensor combined = adasum_tree_layerwise(fused, slices);
  Tensor expected = w0.clone();
  kernels::add(combined.span<float>(), expected.span<float>());

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(13);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    dopt.step(lr);
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i),
                1e-5 * (1.0 + std::abs(expected.at(i))))
        << i;
}

TEST(DistributedOptimizerTest, SingleRankAdasumEqualsLocalTraining) {
  // With world=1 the Adasum distributed optimizer must reproduce plain local
  // training exactly (Adasum(g) == g).
  auto local = small_model(14);
  auto local_params = local->parameters();
  MomentumSgd local_opt(local_params);
  for (int s = 0; s < 5; ++s) {
    nn::zero_grads(local_params);
    forward_backward(*local, batch_for(0, s));
    local_opt.step(0.05);
  }
  const Tensor expected = train::params_to_flat(local_params);

  Tensor got;
  World world(1);
  world.run([&](Comm& comm) {
    auto model = small_model(14);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<MomentumSgd>(params),
                              opts);
    for (int s = 0; s < 5; ++s) {
      forward_backward(*model, batch_for(0, s));
      dopt.step(0.05);
    }
    got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-6);
}

TEST(DistributedOptimizerTest, LocalStepsDelayCommunication) {
  World world(2);
  world.run([&](Comm& comm) {
    auto model = small_model(15);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.local_steps = 4;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    for (int s = 0; s < 8; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      const bool communicated = dopt.step(0.01);
      EXPECT_EQ(communicated, (s % 4) == 3) << s;
    }
    EXPECT_EQ(dopt.rounds(), 2);
  });
}

TEST(DistributedOptimizerTest, LocalStepsSumModeAccumulatesGradients) {
  // Sum mode with local_steps=2 must equal a serial step on the sum of all
  // 2*ranks microbatch gradients.
  const int ranks = 2;
  const double lr = 0.02;
  auto ref = small_model(16);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r)
    for (int s = 0; s < 2; ++s) forward_backward(*ref, batch_for(r, s));
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(16);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kSum;
    opts.local_steps = 2;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    for (int s = 0; s < 2; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      dopt.step(lr);
    }
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5);
}

TEST(DistributedOptimizerTest, AllRanksStayInSync) {
  const int ranks = 4;
  std::vector<Tensor> finals(ranks);
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(17);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<Adam>(params), opts);
    for (int s = 0; s < 6; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      dopt.step(0.01);
    }
    finals[static_cast<std::size_t>(comm.rank())] =
        train::params_to_flat(params);
  });
  for (int r = 1; r < ranks; ++r)
    for (std::size_t i = 0; i < finals[0].size(); ++i)
      ASSERT_EQ(finals[static_cast<std::size_t>(r)].at(i), finals[0].at(i));
}

// kRvh runs at any world size: on a non-power-of-two world the RVH
// executor folds the extra ranks itself, which is the schedule of the
// hierarchical allreduce with single-rank nodes. A step must therefore leave
// the parameters of every rank bit-identical under the two settings.
TEST(DistributedOptimizerTest, FlatRvhOnSixRanksMatchesSingleRankNodes) {
  const int ranks = 6;
  const auto step_params = [&](ReduceOp op, AllreduceAlgo algo) {
    std::vector<Tensor> finals(ranks);
    World world(ranks);
    world.run([&](Comm& comm) {
      auto model = small_model(23);
      auto params = model->parameters();
      DistributedOptions opts;
      opts.op = op;
      opts.algo = algo;
      opts.ranks_per_node = 1;
      DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
      forward_backward(*model, batch_for(comm.rank(), 0));
      EXPECT_TRUE(dopt.step(0.05));
      finals[static_cast<std::size_t>(comm.rank())] =
          train::params_to_flat(params);
    });
    return finals;
  };
  for (const ReduceOp op : {ReduceOp::kAdasum, ReduceOp::kSum}) {
    const std::vector<Tensor> rvh = step_params(op, AllreduceAlgo::kRvh);
    const std::vector<Tensor> hier =
        step_params(op, AllreduceAlgo::kHierarchical);
    for (int r = 0; r < ranks; ++r) {
      const Tensor& a = rvh[static_cast<std::size_t>(r)];
      const Tensor& b = hier[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.nbytes(), b.nbytes());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.nbytes()), 0)
          << reduce_op_name(op) << " rank " << r;
    }
  }
}

TEST(DistributedOptimizerTest, Fp16CompressionStaysClose) {
  // fp16-compressed Adasum must track the fp32 path within fp16 tolerance.
  const int ranks = 4;
  auto run = [&](bool fp16) {
    Tensor result;
    World world(ranks);
    world.run([&](Comm& comm) {
      auto model = small_model(18);
      auto params = model->parameters();
      DistributedOptions opts;
      opts.op = ReduceOp::kAdasum;
      opts.compression = fp16 ? GradientCompression::kFp16
                               : GradientCompression::kNone;
      DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
      for (int s = 0; s < 4; ++s) {
        forward_backward(*model, batch_for(comm.rank(), s));
        dopt.step(0.05);
      }
      if (comm.rank() == 0) result = train::params_to_flat(params);
    });
    return result;
  };
  const Tensor full = run(false);
  const Tensor compressed = run(true);
  double max_err = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i)
    max_err = std::max(max_err, std::abs(full.at(i) - compressed.at(i)));
  EXPECT_LT(max_err, 5e-3);
  EXPECT_GT(max_err, 0.0);  // fp16 did quantize something
}

TEST(DistributedOptimizerTest, Fp16OverflowSkipsRoundEverywhere) {
  const int ranks = 2;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(19);
    auto params = model->parameters();
    const Tensor before = train::params_to_flat(params);
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.compression = GradientCompression::kFp16;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    // Hand the optimizer a gradient so large the scaled fp16 cast overflows.
    params[0]->grad.fill(1e8);
    dopt.step(1.0);
    EXPECT_EQ(dopt.skipped_rounds(), 1);
    const Tensor after = train::params_to_flat(params);
    for (std::size_t i = 0; i < before.size(); ++i)
      ASSERT_EQ(after.at(i), before.at(i));  // reverted to round start
  });
}

TEST(DistributedOptimizerTest, SkippedAdasumRoundRevertsToRoundStart) {
  // Between the delta and the apply the parameters hold the effective
  // gradient. A reduction that exhausts its recovery attempts (every
  // message corrupted, as in Chaos.FullCorruptionIsDetectedAndRoundSkipped)
  // must bring them back to the round start bit for bit, on every rank,
  // whether the buckets run inline or on the engine, one bucket or several.
  const int ranks = 4;
  // 100 bytes splits the {4, 8, 3} MLP's four tensors into four buckets.
  const std::size_t small_bucket = 100;
  {
    auto probe = small_model(23);
    std::vector<const Tensor*> values;
    for (const Parameter* p : probe->parameters()) values.push_back(&p->value);
    ASSERT_GE(make_fusion_groups(values, small_bucket).size(), 3u);
  }
  for (const bool background : {false, true}) {
    for (const std::size_t bucket_bytes : {std::size_t{0}, small_bucket}) {
      SCOPED_TRACE(background ? "background" : "inline");
      SCOPED_TRACE(bucket_bytes);
      World world(ranks);
      FaultToleranceOptions ft;
      ft.recv_deadline = std::chrono::milliseconds(100);
      ft.max_recovery_attempts = 2;
      world.enable_fault_tolerance(ft);
      world.enable_checksums(true);
      FaultSpec spec;
      spec.corrupt_prob = 1.0;
      world.set_fault_injector(std::make_shared<FaultInjector>(ranks, spec));
      std::vector<long> skipped(ranks, -1);
      std::vector<char> reverted(ranks, 0);
      const chaos::WatchdogResult wr = chaos::run_with_watchdog(
          world,
          [&](Comm& comm) {
            auto model = small_model(23);
            auto params = model->parameters();
            const Tensor round_start = train::params_to_flat(params);
            DistributedOptions opts;
            opts.op = ReduceOp::kAdasum;
            opts.background = background;
            opts.bucket_bytes = bucket_bytes;
            DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params),
                                      opts);
            forward_backward(*model, batch_for(comm.rank(), 0));
            dopt.step(0.05);
            const Tensor after = train::params_to_flat(params);
            const auto r = static_cast<std::size_t>(comm.rank());
            skipped[r] = dopt.skipped_rounds();
            reverted[r] = std::memcmp(after.data(), round_start.data(),
                                      round_start.nbytes()) == 0;
          },
          std::chrono::seconds(30));
      ASSERT_FALSE(wr.watchdog_fired);
      ASSERT_FALSE(static_cast<bool>(wr.error));
      EXPECT_GE(world.corruptions_detected(), 1u);
      for (int r = 0; r < ranks; ++r) {
        EXPECT_EQ(skipped[static_cast<std::size_t>(r)], 1) << "rank " << r;
        EXPECT_TRUE(reverted[static_cast<std::size_t>(r)]) << "rank " << r;
      }
    }
  }
}

TEST(DistributedOptimizerTest, WarmRoundsMakeNoHeapAllocations) {
  // Every round goes through the persistent bucket pipeline: after warm-up
  // a whole step() — the Adasum delta or the gradient pack, the inline
  // allreduce, the unpack and the apply — makes no heap allocation. That
  // holds for fp32 payloads, for fp16 ones (with the overflow vote) and for
  // the int8 wire codec with error feedback (the pooled snap scratch).
  enum class Payload { kFp32, kFp16, kInt8ErrorFeedback };
  const std::size_t sizes[] = {300, 7, 450};
  const std::size_t payload_bytes = (300 + 7 + 450) * sizeof(float);
  const std::pair<ReduceOp, Payload> cases[] = {
      {ReduceOp::kAdasum, Payload::kFp32},
      {ReduceOp::kAdasum, Payload::kFp16},
      {ReduceOp::kAdasum, Payload::kInt8ErrorFeedback},
      {ReduceOp::kSum, Payload::kFp32},
      {ReduceOp::kSum, Payload::kFp16},
      {ReduceOp::kSum, Payload::kInt8ErrorFeedback}};
  for (const auto& c : cases) {
    const ReduceOp op = c.first;
    const Payload payload = c.second;
    SCOPED_TRACE(reduce_op_name(op));
    SCOPED_TRACE(static_cast<int>(payload));
    World world(4);
    // The analyzer allocates (event logs, epoch declarations) by design.
    if (world.analyzer() != nullptr)
      GTEST_SKIP() << "protocol analyzer enabled via ADASUM_ANALYZE";
    std::uint64_t warm_allocs = 0;
    world.run([&](Comm& comm) {
      std::vector<Parameter> owned;
      owned.reserve(std::size(sizes));
      std::vector<Parameter*> params;
      for (const std::size_t n : sizes) {
        owned.emplace_back("p", std::vector<std::size_t>{n});
        params.push_back(&owned.back());
      }
      DistributedOptions opts;
      opts.op = op;  // inline, bucket_bytes = 0: the defaults
      if (payload == Payload::kFp16)
        opts.compression = GradientCompression::kFp16;
      if (payload == Payload::kInt8ErrorFeedback)
        opts.wire_compression.mode = CompressionMode::kInt8;
      DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
      const auto step = [&](int s) {
        for (std::size_t i = 0; i < owned.size(); ++i) {
          auto g = owned[i].grad.span<float>();
          for (std::size_t j = 0; j < g.size(); ++j)
            g[j] = static_cast<float>(
                       (j * 13 + i * 7 +
                        static_cast<std::size_t>(comm.rank() * 3 + s)) %
                       400) / 400.0f - 0.5f;
        }
        dopt.step(0.05);
      };
      // Grow the mailbox queues (sends are buffered; erase keeps capacity).
      const std::byte ping[8] = {};
      for (int dst = 0; dst < comm.size(); ++dst) {
        if (dst == comm.rank()) continue;
        for (int i = 0; i < 16; ++i) comm.send_bytes(dst, ping, 900 + i);
      }
      comm.barrier();
      for (int src = 0; src < comm.size(); ++src) {
        if (src == comm.rank()) continue;
        std::byte sink[8];
        for (int i = 0; i < 16; ++i) comm.recv_bytes_into(src, sink, 900 + i);
      }
      for (int s = 0; s < 4; ++s) step(s);
      comm.barrier();
      if (comm.rank() == 0) {
        // Peak in-flight pool leases depend on thread interleaving, so
        // provision the pool to the static bound (the chaos_test idiom).
        BufferPool& pool = comm.pool();
        std::vector<std::vector<std::byte>> held;
        for (int i = 0; i < comm.size(); ++i)
          held.push_back(pool.acquire(payload_bytes));
        for (int i = 0; i < 5 * comm.size(); ++i)
          held.push_back(pool.acquire(payload_bytes / 2));
        for (int i = 0; i < 8 * comm.size(); ++i)
          held.push_back(pool.acquire(128));
        for (auto& b : held) pool.release(std::move(b));
      }
      comm.barrier();
      std::uint64_t baseline = 0;
      if (comm.rank() == 0)
        baseline = g_heap_allocs.load(std::memory_order_relaxed);
      comm.barrier();
      for (int s = 4; s < 10; ++s) step(s);
      comm.barrier();
      if (comm.rank() == 0)
        warm_allocs = g_heap_allocs.load(std::memory_order_relaxed) - baseline;
    });
    EXPECT_EQ(warm_allocs, 0u);
  }
}

}  // namespace
}  // namespace adasum::optim
