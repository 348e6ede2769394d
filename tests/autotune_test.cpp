// Autotuner unit tests (DESIGN.md §14): the α–β arithmetic against
// hand-computed closed forms, deterministic tie-breaking, degenerate-input
// fallbacks, and a measured-regression gate — the pick must never be slower
// than 1.2x the best measured candidate on a small grid, with a wire-delay
// fault model making simulated execution topology-shaped.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/runtime_config.h"
#include "collectives/allreduce.h"
#include "comm/autotune.h"
#include "comm/cost_model.h"
#include "comm/fault_injector.h"
#include "comm/topology.h"
#include "comm/world.h"
#include "env_restore.h"
#include "nn/models.h"
#include "nn/module.h"
#include "optim/distributed_optimizer.h"

namespace adasum {
namespace {

// ---- closed forms ---------------------------------------------------------

TEST(Autotune, RvhSumPredictionMatchesHandComputedClosedForm) {
  // Two single-GPU nodes over one link: RVH sum at p=2 is one level —
  // exchange halves (2 transfers of n/2) plus one sum pass over n/2.
  const LinkParams link{"L", 10e-6, 1e9};
  const Topology t = Topology::cluster(2, 1, link, link);
  ComputeParams compute;
  compute.sum_Bps = 2e9;
  const double bytes = 1 << 20;
  AutotuneRequest req;
  req.payload_bytes = bytes;
  req.adasum = false;
  const double got =
      predict_allreduce_s(t, TunedAlgo::kRvh, 1, 0, 0, req, compute);
  const double half = bytes / 2.0;
  const double want =
      2.0 * (link.latency_s + half / link.bandwidth_Bps) + half / 2e9;
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(Autotune, RingSumPredictionMatchesHandComputedClosedForm) {
  // p=4 single-rank nodes: 2(p-1) pipeline steps of n/p bytes over the
  // inter link, plus (p-1) n/p sums.
  const LinkParams link{"L", 5e-6, 2e9};
  const Topology t = Topology::cluster(4, 1, link, link);
  ComputeParams compute;
  compute.sum_Bps = 4e9;
  const double bytes = 4096.0;
  AutotuneRequest req;
  req.payload_bytes = bytes;
  req.adasum = false;
  const double got =
      predict_allreduce_s(t, TunedAlgo::kRing, 1, 0, 0, req, compute);
  const double chunk = bytes / 4.0;
  const double want = 6.0 * (link.latency_s + chunk / link.bandwidth_Bps) +
                      3.0 * chunk / 4e9;
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(Autotune, NonPow2FoldIsPricedOnTopOfThePow2Core) {
  // p=3 vs p=2 flat RVH sum: the fold adds exactly two full-payload
  // transfers plus one sum pass (cost_model.cpp fold pricing).
  const LinkParams link{"L", 1e-6, 1e9};
  ComputeParams compute;
  compute.sum_Bps = 1e9;
  const double bytes = 8192.0;
  AutotuneRequest req;
  req.payload_bytes = bytes;
  req.adasum = false;
  const double p2 = predict_allreduce_s(Topology::cluster(2, 1, link, link),
                                        TunedAlgo::kRvh, 1, 0, 0, req,
                                        compute);
  const double p3 = predict_allreduce_s(Topology::cluster(3, 1, link, link),
                                        TunedAlgo::kRvh, 1, 0, 0, req,
                                        compute);
  const double fold =
      2.0 * (link.latency_s + bytes / link.bandwidth_Bps) + bytes / 1e9;
  EXPECT_NEAR(p3, p2 + fold, 1e-12);
}

TEST(Autotune, ShmZeroCopyLinkClassMatchesHandComputedClosedForm) {
  // "1x8:shm/ib100" resolves the intra fabric to the zero-copy shared-memory
  // link class (the shm transport, DESIGN.md §15) and the planner prices a
  // flat RVH on it: 3 levels, every exchange on the intra link since all
  // neighbor distances (1, 2, 4) are < gpus_per_node.
  const std::optional<Topology> parsed = Topology::parse("1x8:shm/ib100");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->intra.name, "SHM-0copy");
  EXPECT_EQ(parsed->inter.name, "IB-100Gb");
  const LinkParams shm = links::shm_zero_copy();
  EXPECT_NEAR(parsed->intra.latency_s, shm.latency_s, 0.0);
  EXPECT_NEAR(parsed->intra.bandwidth_Bps, shm.bandwidth_Bps, 0.0);

  ComputeParams compute;
  compute.sum_Bps = 10e9;
  const double bytes = 8 << 20;
  AutotuneRequest req;
  req.payload_bytes = bytes;
  req.adasum = false;
  const double got =
      predict_allreduce_s(*parsed, TunedAlgo::kRvh, 1, 0, 0, req, compute);
  double want = 0.0;
  for (const double frac : {2.0, 4.0, 8.0}) {
    const double half = bytes / frac;
    want += 2.0 * (shm.latency_s + half / shm.bandwidth_Bps) +
            half / compute.sum_Bps;
  }
  EXPECT_NEAR(got, want, 1e-12);

  // Zero-copy pays off in the model too: the identical schedule on a PCIe
  // intra fabric must price strictly slower.
  const Topology pcie = Topology::single_node(8, links::pcie3());
  EXPECT_LT(got,
            predict_allreduce_s(pcie, TunedAlgo::kRvh, 1, 0, 0, req, compute));
}

TEST(Autotune, ShmIntraFabricMakesGroupingWinOnTwoTier) {
  // 2 nodes x 4 ranks, shm inside / TCP across: the link-speed rule groups
  // at 4, and the planner's pick exploits the near-free local phase — the
  // grouped schedule must beat flat RVH, which pays the TCP α–β on its
  // distance >= 4 levels.
  const std::optional<Topology> t = Topology::parse("2x4:shm/tcp40");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->group_size_by_link_speed(t->total_gpus()), 4);
  AutotuneRequest req;
  req.payload_bytes = 8 << 20;
  req.num_layers = 8;
  const double hier =
      predict_allreduce_s(*t, TunedAlgo::kHierarchical, 4, 0, 0, req);
  const double flat = predict_allreduce_s(*t, TunedAlgo::kRvh, 1, 0, 0, req);
  EXPECT_LT(hier, flat);
  const TunedConfig pick = autotune_allreduce(*t, req);
  EXPECT_LE(pick.predicted_s, hier);
}

TEST(Autotune, BucketPipelineModelMatchesHandComputedClosedForm) {
  // n buckets: T = c + max((n-1)c, (n-1)m) + m with per-bucket compute
  // c = overlap/n and per-bucket comm m = comm(payload/n).
  const LinkParams link{"L", 10e-6, 1e9};
  const Topology t = Topology::cluster(2, 1, link, link);
  ComputeParams compute;
  compute.sum_Bps = 2e9;
  AutotuneRequest req;
  req.payload_bytes = 1 << 20;
  req.adasum = false;
  req.overlap_compute_s = 1e-3;
  const std::size_t bucket = 1 << 18;  // n = 4
  const double got =
      predict_allreduce_s(t, TunedAlgo::kRvh, 1, 0, bucket, req, compute);
  AutotuneRequest quarter = req;
  quarter.payload_bytes = req.payload_bytes / 4.0;
  quarter.overlap_compute_s = 0.0;
  const double m =
      predict_allreduce_s(t, TunedAlgo::kRvh, 1, 0, 0, quarter, compute);
  const double c = req.overlap_compute_s / 4.0;
  EXPECT_NEAR(got, c + std::max(3.0 * c, 3.0 * m) + m, 1e-12);
}

TEST(Autotune, WithoutOverlapBucketingNeverWins) {
  // With overlap_compute_s == 0 every extra bucket only adds per-message α,
  // so the planner must return bucket_bytes == 0 for any grid.
  const std::size_t buckets[] = {0, 1 << 16, 1 << 18, 1 << 20};
  AutotuneRequest req;
  req.payload_bytes = 4 << 20;
  req.num_layers = 8;
  req.bucket_grid = buckets;
  const TunedConfig cfg = autotune_allreduce(Topology::azure_fig4(), req);
  EXPECT_EQ(cfg.bucket_bytes, 0u);
}

TEST(Autotune, WithOverlapBucketingWins) {
  // Plenty of overlappable compute: a bucketed pipeline beats the
  // monolithic schedule, so the planner must pick a nonzero bucket.
  const std::size_t buckets[] = {0, 1 << 18};
  AutotuneRequest req;
  req.payload_bytes = 16 << 20;
  req.num_layers = 8;
  req.overlap_compute_s = 20e-3;
  req.bucket_grid = buckets;
  const TunedConfig cfg = autotune_allreduce(Topology::azure_fig4(), req);
  EXPECT_EQ(cfg.bucket_bytes, std::size_t{1} << 18);
}

// ---- planner behavior -----------------------------------------------------

TEST(Autotune, PickIsTheArgMinOfThePredictions) {
  // The planner's pick must coincide with a brute-force arg-min over the
  // same candidate set, and its predicted_s must be the prediction of its
  // own configuration — self-consistency of plan vs model.
  const Topology topos[] = {
      Topology::cluster(16, 4, links::nvlink(), links::tcp40()),
      Topology::tcp_cluster(),
      Topology::dgx2(4),
  };
  const std::size_t chunks[] = {0, 65536};
  const std::size_t buckets[] = {0, 1 << 20};
  for (const Topology& t : topos) {
    AutotuneRequest req;
    req.payload_bytes = 8 << 20;
    req.num_layers = 16;
    req.overlap_compute_s = 1e-3;
    req.chunk_grid = chunks;
    req.bucket_grid = buckets;
    const TunedConfig cfg = autotune_allreduce(t, req);
    EXPECT_NEAR(cfg.predicted_s,
                predict_allreduce_s(t, cfg.algo, cfg.ranks_per_node,
                                    cfg.chunk_bytes, cfg.bucket_bytes, req),
                1e-15);
    double best = cfg.predicted_s;
    for (const TunedAlgo algo :
         {TunedAlgo::kRing, TunedAlgo::kRvh, TunedAlgo::kHierarchical}) {
      int rpn = 1;
      if (algo == TunedAlgo::kHierarchical) {
        rpn = t.group_size_by_link_speed(t.total_gpus());
        if (rpn <= 1) continue;
      }
      for (const std::size_t chunk : chunks)
        for (const std::size_t bucket : buckets)
          best = std::min(best, predict_allreduce_s(t, algo, rpn, chunk,
                                                    bucket, req));
    }
    EXPECT_EQ(cfg.predicted_s, best) << t.num_nodes << "x" << t.gpus_per_node;
  }
}

TEST(Autotune, GroupingBeatsRingOnTwoTierAndIsExcludedOnUniform) {
  AutotuneRequest req;
  req.payload_bytes = 8 << 20;
  req.num_layers = 16;
  // 16 nodes x 4 GPUs, fast intra / slow inter: the grouped schedule must
  // price clearly below the ring baseline, and the planner must consider it
  // at the link-speed-derived arity.
  const Topology two_tier =
      Topology::cluster(16, 4, links::nvlink(), links::tcp40());
  const int rpn = two_tier.group_size_by_link_speed(two_tier.total_gpus());
  ASSERT_EQ(rpn, 4);
  const double hier =
      predict_allreduce_s(two_tier, TunedAlgo::kHierarchical, rpn, 0, 0, req);
  const double ring =
      predict_allreduce_s(two_tier, TunedAlgo::kRing, 1, 0, 0, req);
  EXPECT_LT(hier, ring / 2.0);
  const TunedConfig pick = autotune_allreduce(two_tier, req);
  EXPECT_LE(pick.predicted_s, hier);
  // Uniform fabric: hierarchical is excluded by the link-speed rule and the
  // pick falls to a flat algorithm.
  const TunedConfig uniform = autotune_allreduce(
      Topology::cluster(64, 1, links::infiniband100(), links::infiniband100()),
      req);
  EXPECT_NE(uniform.algo, TunedAlgo::kHierarchical);
  EXPECT_EQ(uniform.ranks_per_node, 1);
}

TEST(Autotune, TieBreakIsDeterministicAndGridOrderIndependent) {
  // Same candidates in shuffled (and duplicated) orders must produce the
  // identical pick: the planner sorts and dedups before scanning.
  const Topology t = Topology::tcp_cluster();
  std::vector<std::size_t> chunks = {0, 4096, 65536, 262144};
  std::vector<std::size_t> buckets = {0, 65536, 1 << 20};
  const auto plan = [&]() {
    AutotuneRequest req;
    req.payload_bytes = 1 << 20;
    req.num_layers = 4;
    req.overlap_compute_s = 2e-3;
    req.chunk_grid = chunks;
    req.bucket_grid = buckets;
    return autotune_allreduce(t, req);
  };
  const TunedConfig first = plan();
  Rng rng(77);
  for (int i = 0; i < 8; ++i) {
    rng.shuffle(chunks);
    rng.shuffle(buckets);
    chunks.push_back(chunks.front());  // duplicates must not shift the pick
    const TunedConfig again = plan();
    EXPECT_EQ(again.algo, first.algo);
    EXPECT_EQ(again.ranks_per_node, first.ranks_per_node);
    EXPECT_EQ(again.chunk_bytes, first.chunk_bytes);
    EXPECT_EQ(again.bucket_bytes, first.bucket_bytes);
    EXPECT_EQ(again.predicted_s, first.predicted_s);
    chunks.pop_back();
  }
}

TEST(Autotune, DegenerateInputsFallBackCleanly) {
  const Topology t = Topology::azure_fig4();
  // Empty grids mean {0}: monolithic transfers, one fused bucket.
  AutotuneRequest req;
  req.payload_bytes = 1 << 16;
  const TunedConfig cfg = autotune_allreduce(t, req);
  EXPECT_EQ(cfg.chunk_bytes, 0u);
  EXPECT_EQ(cfg.bucket_bytes, 0u);
  EXPECT_GT(cfg.predicted_s, 0.0);
  // Zero payload: every candidate predicts 0 and the tie-break returns the
  // lexicographically first (ring, chunk 0, bucket 0) deterministically.
  AutotuneRequest empty;
  empty.payload_bytes = 0.0;
  const TunedConfig zero = autotune_allreduce(t, empty);
  EXPECT_EQ(zero.predicted_s, 0.0);
  EXPECT_EQ(zero.algo, TunedAlgo::kRing);
  // A bucket larger than the payload is the n == 1 degenerate case and must
  // predict exactly the unbucketed time.
  const double mono =
      predict_allreduce_s(t, TunedAlgo::kRvh, 1, 0, 0, req, {});
  const double huge =
      predict_allreduce_s(t, TunedAlgo::kRvh, 1, 0, 1 << 30, req, {});
  EXPECT_EQ(mono, huge);
}

// ADASUM_AUTOTUNE read from the process environment: on and 1 enable it;
// true, like any other value, warns and keeps the default (off).
TEST(Autotune, EnvGateParsesOnOneTrue) {
  const EnvRestore restore("ADASUM_AUTOTUNE");
  unsetenv("ADASUM_AUTOTUNE");
  EXPECT_FALSE(RuntimeConfig::from_env().autotune);
  setenv("ADASUM_AUTOTUNE", "on", 1);
  EXPECT_TRUE(RuntimeConfig::from_env().autotune);
  setenv("ADASUM_AUTOTUNE", "1", 1);
  EXPECT_TRUE(RuntimeConfig::from_env().autotune);
  setenv("ADASUM_AUTOTUNE", "true", 1);
  EXPECT_FALSE(RuntimeConfig::from_env().autotune);
  setenv("ADASUM_AUTOTUNE", "off", 1);
  EXPECT_FALSE(RuntimeConfig::from_env().autotune);
}

// ---- measured validation --------------------------------------------------

// Measured wall-clock of one allreduce round under the deterministic
// wire-delay fault model (FaultSpec::wire_*): per-message sender-side
// service times by link class make the simulated execution topology-shaped,
// so algorithm rankings are meaningful.
double measure_allreduce_s(int world_size, int ranks_per_node,
                           AllreduceAlgo algo, int rpn_opt,
                           std::size_t count) {
  World world(world_size);
  FaultSpec spec;
  spec.wire_ranks_per_node = ranks_per_node;
  spec.wire_intra_us = 20;
  spec.wire_inter_us = 400;
  world.set_fault_injector(std::make_shared<FaultInjector>(world_size, spec));
  double measured = 0.0;
  world.run([&](Comm& comm) {
    Tensor t({count});
    Rng rng(11 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& v : t.span<float>()) v = static_cast<float>(rng.normal());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = algo;
    opts.ranks_per_node = rpn_opt;
    allreduce(comm, t, opts, 0);  // warm
    comm.barrier();
    const auto start = std::chrono::steady_clock::now();
    allreduce(comm, t, opts, 65536);
    comm.barrier();
    const auto stop = std::chrono::steady_clock::now();
    if (comm.rank() == 0)
      measured = std::chrono::duration<double>(stop - start).count();
  });
  return measured;
}

TEST(Autotune, PickIsWithin1p2xOfBestMeasuredCandidate) {
  // 16 ranks as 4 nodes x 4, PCIe-class intra vs TCP-class inter. The
  // planner sees the matching α–β topology; the measured side runs the real
  // collectives under the wire-delay model. The pick must land within 1.2x
  // of the best measured candidate (EXPERIMENTS.md scale-out protocol).
  const int p = 16, rpn = 4;
  const Topology topo =
      Topology::cluster(p / rpn, rpn, links::pcie3(), links::tcp40());
  AutotuneRequest req;
  req.payload_bytes = 64 * 1024 * 4;  // 64Ki fp32 elements
  req.num_layers = 1;
  const TunedConfig pick = autotune_allreduce(topo, req);

  struct Candidate {
    TunedAlgo algo;
    AllreduceAlgo exec;
    int rpn_opt;
  };
  const Candidate candidates[] = {
      {TunedAlgo::kRing, AllreduceAlgo::kRing, 1},
      {TunedAlgo::kRvh, AllreduceAlgo::kRvh, 1},
      {TunedAlgo::kHierarchical, AllreduceAlgo::kHierarchical, rpn},
  };
  double best = 0.0, picked = 0.0;
  bool have_best = false;
  for (const Candidate& c : candidates) {
    const double t = measure_allreduce_s(p, rpn, c.exec, c.rpn_opt, 64 * 1024);
    if (!have_best || t < best) {
      have_best = true;
      best = t;
    }
    if (c.algo == pick.algo) picked = t;
  }
  ASSERT_TRUE(have_best);
  ASSERT_GT(picked, 0.0) << "planner picked an unmeasured algorithm";
  EXPECT_LE(picked, 1.2 * best)
      << "picked " << to_string(pick.algo) << " measured " << picked
      << "s vs best " << best << "s";
}

// ---- optimizer wiring -----------------------------------------------------

// ADASUM_AUTOTUNE resolves a kAuto algorithm at the first step and exposes
// the pick; an explicitly chosen algorithm is never overridden.
TEST(Autotune, OptimizerResolvesAlgoFromEnvGate) {
  setenv("ADASUM_AUTOTUNE", "on", 1);
  setenv("ADASUM_TOPOLOGY", "4x2:nvlink/tcp40", 1);
  World world(8);
  world.run([&](Comm& comm) {
    Rng rng(31);
    auto model = nn::make_mlp({16, 32, 8}, rng);
    auto params = model->parameters();
    for (nn::Parameter* pp : params) pp->grad.fill(0.01);
    optim::DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kAuto;
    optim::DistributedOptimizer opt(comm, std::make_unique<optim::Sgd>(params),
                                    opts);
    ASSERT_EQ(opt.tuned(), nullptr);
    opt.step(0.1);
    const TunedConfig* tuned = opt.tuned();
    ASSERT_NE(tuned, nullptr);
    EXPECT_GT(tuned->predicted_s, 0.0);
    // The exposed pick is internally consistent with the env topology's
    // link-speed grouping rule (4x2 fast/slow fabric -> groups of 2).
    if (tuned->algo == TunedAlgo::kHierarchical)
      EXPECT_EQ(tuned->ranks_per_node, 2);
    else
      EXPECT_EQ(tuned->ranks_per_node, 1);
  });
  // An explicit algorithm is respected: the pick is still computed and
  // exposed for inspection, but the round runs (and succeeds) on kRing.
  World world2(8);
  world2.run([&](Comm& comm) {
    Rng rng(32);
    auto model = nn::make_mlp({16, 32, 8}, rng);
    auto params = model->parameters();
    for (nn::Parameter* pp : params) pp->grad.fill(0.01);
    optim::DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRing;
    optim::DistributedOptimizer opt(comm, std::make_unique<optim::Sgd>(params),
                                    opts);
    EXPECT_TRUE(opt.step(0.1));
    ASSERT_NE(opt.tuned(), nullptr);
  });
  unsetenv("ADASUM_AUTOTUNE");
  unsetenv("ADASUM_TOPOLOGY");
}

}  // namespace
}  // namespace adasum
