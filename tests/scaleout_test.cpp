// Large-world scale-out harness (ISSUE tentpole): the topology-aware
// hierarchical allreduce must be BIT-IDENTICAL to the copy-based reference
// oracle across a seeded property sweep of world sizes up to 512 ranks —
// including ragged last nodes, non-power-of-two node counts, random layer
// tables and pipeline chunkings — and its warm steady state must allocate
// nothing.
//
// SCALEOUT_MAX_P caps the sweep's world size (default 512); the sanitizer
// stages of scripts/check.sh set it to 128 so TSan's per-thread shadow
// state doesn't blow the suite's time budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chaos_util.h"
#include "collectives/hierarchical.h"
#include "collectives/hierarchical_reference.h"
#include "collectives/sum_allreduce.h"
#include "comm/topology.h"
#include "heap_counter.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

int scaleout_max_p() {
  if (const char* env = std::getenv("SCALEOUT_MAX_P"); env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 512;
}

struct ScaleCase {
  int p = 2;
  int ranks_per_node = 1;
  std::size_t count = 64;
  DType dtype = DType::kFloat32;
  bool adasum = true;
  std::size_t chunk_bytes = 0;  // 0 = monolithic
  int num_layers = 1;           // 1 = empty slice table
  std::uint64_t seed = 0;
};

// Seeded property sweep: for each world size, a few randomized
// configurations of grouping arity (deliberately biased toward non-divisor
// arities, so ragged last nodes and non-power-of-two node counts dominate),
// payload, dtype, mode, chunking and layer table.
std::vector<ScaleCase> sweep_cases() {
  const int max_p = scaleout_max_p();
  const int worlds[] = {64, 128, 256, 512};
  Rng rng(0x5ca1e001);
  std::vector<ScaleCase> cases;
  for (const int p : worlds) {
    if (p > max_p) continue;
    const int per_world = p <= 128 ? 3 : 2;
    for (int i = 0; i < per_world; ++i) {
      Rng fork = rng.fork(static_cast<std::uint64_t>(p * 100 + i));
      ScaleCase c;
      c.p = p;
      // Arity in [2, 48]: non-divisors of p produce a ragged last node, and
      // ceil(p/arity) is frequently not a power of two.
      c.ranks_per_node = 2 + static_cast<int>(fork.uniform_int(47));
      c.count = 1 + fork.uniform_int(2048);
      c.dtype = fork.uniform() < 0.25 ? DType::kFloat64 : DType::kFloat32;
      c.adasum = fork.uniform() < 0.7;
      c.chunk_bytes = fork.uniform() < 0.5 ? 0 : 1024;
      c.num_layers = 1 + static_cast<int>(fork.uniform_int(5));
      c.seed = fork.next_u64();
      cases.push_back(c);
    }
  }
  return cases;
}

std::vector<Tensor> case_gradients(const ScaleCase& c) {
  Rng rng(c.seed);
  std::vector<Tensor> grads;
  grads.reserve(static_cast<std::size_t>(c.p));
  for (int r = 0; r < c.p; ++r) {
    Rng fork = rng.fork(static_cast<std::uint64_t>(r));
    Tensor t({c.count}, c.dtype);
    for (std::size_t i = 0; i < c.count; ++i) t.set(i, fork.normal(0.0, 1.0));
    grads.push_back(std::move(t));
  }
  return grads;
}

// Random ascending layer boundaries over [0, count).
std::vector<TensorSlice> case_slices(const ScaleCase& c) {
  if (c.num_layers <= 1) return {};
  Rng rng(c.seed ^ 0xfeedULL);
  std::vector<std::size_t> cuts;
  for (int l = 1; l < c.num_layers; ++l)
    cuts.push_back(rng.uniform_int(c.count));
  cuts.push_back(0);
  cuts.push_back(c.count);
  std::sort(cuts.begin(), cuts.end());
  std::vector<TensorSlice> slices;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    if (cuts[i + 1] > cuts[i])
      slices.push_back(TensorSlice{"l" + std::to_string(i), cuts[i],
                                   cuts[i + 1] - cuts[i]});
  return slices;
}

// Runs production and reference hierarchical allreduce on identical inputs
// inside ONE world (distinct tag namespaces) and asserts byte equality on
// every rank.
void expect_parity(const ScaleCase& c) {
  SCOPED_TRACE("p=" + std::to_string(c.p) +
               " rpn=" + std::to_string(c.ranks_per_node) +
               " n=" + std::to_string(c.count) + " " + dtype_name(c.dtype) +
               (c.adasum ? " adasum" : " sum") +
               " chunk=" + std::to_string(c.chunk_bytes) +
               " layers=" + std::to_string(c.num_layers));
  const std::vector<Tensor> grads = case_gradients(c);
  const std::vector<TensorSlice> slices = case_slices(c);
  World world(c.p);
  if (c.chunk_bytes > 0)
    world.set_pipeline(PipelineOptions{true, c.chunk_bytes});
  std::vector<char> ok(static_cast<std::size_t>(c.p), 0);
  const chaos::WatchdogResult r = chaos::run_with_watchdog(
      world,
      [&](Comm& comm) {
        const Tensor& mine = grads[static_cast<std::size_t>(comm.rank())];
        Tensor prod = mine.clone();
        Tensor ref = mine.clone();
        hierarchical_allreduce(comm, prod, c.ranks_per_node, c.adasum,
                               slices, /*tag_base=*/0);
        hierarchical_allreduce_reference(comm, ref, c.ranks_per_node,
                                         c.adasum, slices,
                                         /*tag_base=*/1 << 20);
        ok[static_cast<std::size_t>(comm.rank())] =
            std::memcmp(prod.data(), ref.data(), prod.nbytes()) == 0 ? 1 : 0;
      },
      std::chrono::seconds(180));
  ASSERT_FALSE(r.watchdog_fired) << "deadlock or runaway schedule";
  if (r.error) std::rethrow_exception(r.error);
  for (int rank = 0; rank < c.p; ++rank)
    EXPECT_EQ(ok[static_cast<std::size_t>(rank)], 1)
        << "rank " << rank << " diverged from the reference";
}

TEST(ScaleOut, HierarchicalMatchesReferenceSweep) {
  for (const ScaleCase& c : sweep_cases()) expect_parity(c);
}

// PR pin for the old fixed-arity assumption: the seed implementation CHECKed
// world % ranks_per_node == 0 and a power-of-two node count. These exact
// shapes used to abort; now they must run and match the oracle.
TEST(ScaleOut, RaggedLastNodeAndNonPow2NodeCountsPinned) {
  const ScaleCase shapes[] = {
      // p=10, arity 4: nodes {4,4,2} — ragged AND 3 (non-pow2) nodes.
      {10, 4, 257, DType::kFloat32, true, 0, 3, 0xA1},
      // p=12, arity 4: divides evenly but 3 nodes — non-pow2 cross fold.
      {12, 4, 128, DType::kFloat32, true, 0, 1, 0xA2},
      // p=7, arity 3: nodes {3,3,1} — a single-rank ragged node.
      {7, 3, 65, DType::kFloat64, true, 0, 2, 0xA3},
      // p=6, arity 4: nodes {4,2} — pow2 node count, ragged last.
      {6, 4, 97, DType::kFloat32, false, 0, 1, 0xA4},
      // p=9, arity 2: 5 nodes, sum mode, chunked.
      {9, 2, 300, DType::kFloat32, false, 128, 1, 0xA5},
      // arity larger than the world: one (ragged) node, pure local phases.
      {5, 8, 33, DType::kFloat32, true, 0, 1, 0xA6},
  };
  for (const ScaleCase& c : shapes) expect_parity(c);
}

// Sum-mode hierarchical on ragged/non-pow2 shapes is still an exact
// elementwise sum — semantic correctness, not just oracle parity.
TEST(ScaleOut, SumModeMatchesSerialSumOnRaggedShapes) {
  const ScaleCase c{11, 3, 211, DType::kFloat64, false, 0, 1, 0xB1};
  const std::vector<Tensor> grads = case_gradients(c);
  Tensor expected = grads[0].clone();
  for (int r = 1; r < c.p; ++r)
    kernels::add_bytes(grads[static_cast<std::size_t>(r)].data(),
                       expected.data(), c.count, c.dtype);
  World world(c.p);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    hierarchical_allreduce(comm, mine, c.ranks_per_node, /*use_adasum=*/false);
    for (std::size_t i = 0; i < c.count; ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  1e-9 * (1.0 + std::abs(expected.at(i))))
          << "i=" << i;
  });
}

// All ranks end bit-identical after the allgather, ragged shapes included.
TEST(ScaleOut, AdasumHierarchicalAllRanksAgreeBitwise) {
  const ScaleCase c{13, 4, 190, DType::kFloat32, true, 0, 2, 0xC1};
  const std::vector<Tensor> grads = case_gradients(c);
  const std::vector<TensorSlice> slices = case_slices(c);
  World world(c.p);
  std::vector<std::vector<std::byte>> results(
      static_cast<std::size_t>(c.p));
  std::mutex mu;
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    hierarchical_allreduce(comm, mine, c.ranks_per_node, true, slices);
    std::lock_guard<std::mutex> lock(mu);
    results[static_cast<std::size_t>(comm.rank())]
        .assign(mine.data(), mine.data() + mine.nbytes());
  });
  for (int r = 1; r < c.p; ++r)
    EXPECT_EQ(results[0], results[static_cast<std::size_t>(r)])
        << "rank " << r << " disagrees with rank 0";
}

// Callers derive the hierarchical arity from modeled link speed: the node
// arity on a two-tier fabric, flat when the local links are no faster.
TEST(ScaleOut, TopologyDerivedGroupingMatchesExplicitArity) {
  const int p = 24;
  // Fast intra, slow inter: grouping keeps the node arity (8).
  const Topology two_tier =
      Topology::cluster(3, 8, links::nvlink(), links::tcp40());
  ASSERT_EQ(two_tier.group_size_by_link_speed(p), 8);
  // Uniform fabric: grouping collapses to flat.
  const Topology uniform =
      Topology::cluster(3, 8, links::infiniband100(), links::infiniband100());
  ASSERT_EQ(uniform.group_size_by_link_speed(p), 1);
  // Single-rank nodes are flat by construction.
  ASSERT_EQ(Topology::cluster(p, 1, links::nvlink(), links::tcp40())
                .group_size_by_link_speed(p),
            1);
}

// ADASUM_TOPOLOGY parsing (src/comm/topology.cpp): presets, the NxG[:links]
// grammar, and malformed specs.
TEST(ScaleOut, TopologySpecParsing) {
  const auto azure = Topology::parse("azure_fig4");
  ASSERT_TRUE(azure.has_value());
  EXPECT_EQ(azure->num_nodes, 16);
  EXPECT_EQ(azure->gpus_per_node, 4);

  const auto dgx = Topology::parse("dgx2:4");
  ASSERT_TRUE(dgx.has_value());
  EXPECT_EQ(dgx->num_nodes, 4);
  EXPECT_EQ(dgx->gpus_per_node, 16);

  const auto custom = Topology::parse("32x8:pcie3/tcp40");
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->num_nodes, 32);
  EXPECT_EQ(custom->gpus_per_node, 8);
  EXPECT_EQ(custom->intra.name, links::pcie3().name);
  EXPECT_EQ(custom->inter.name, links::tcp40().name);

  const auto defaults = Topology::parse("4x4");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->intra.name, links::nvlink().name);
  EXPECT_EQ(defaults->inter.name, links::infiniband100().name);

  EXPECT_FALSE(Topology::parse("").has_value());
  EXPECT_FALSE(Topology::parse("x8").has_value());
  EXPECT_FALSE(Topology::parse("8x").has_value());
  EXPECT_FALSE(Topology::parse("0x4").has_value());
  EXPECT_FALSE(Topology::parse("4x4:foo/bar").has_value());
  EXPECT_FALSE(Topology::parse("dgx2:").has_value());
  EXPECT_FALSE(Topology::parse("banana").has_value());
}

// The acceptance gate: at 256 ranks, warm hierarchical rounds on the
// pooled/thread_local hot path must not allocate. Six warm rounds reach
// every capacity high-water mark (thread_local group/bounds/slice scratch,
// pooled ring and RVH staging, mailbox queue depth for every channel the
// schedule uses); the measured rounds then repeat the identical pattern
// across the same four tag namespaces.
TEST(ScaleOut, WarmHierarchicalAddsNoSteadyStateAllocations) {
  const int p = std::min(256, scaleout_max_p());
  World world(p);
  if (world.analyzer() != nullptr)
    GTEST_SKIP() << "protocol analyzer enabled via ADASUM_ANALYZE";
  std::uint64_t warm_allocs = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_alloc_bytes = 0;
  const ScaleCase c{p, 24, 2048, DType::kFloat32, true, 0, 1, 0xE1};
  world.run([&](Comm& comm) {
    Tensor t({c.count}, c.dtype);
    Rng rng(c.seed + static_cast<std::uint64_t>(comm.rank()));
    for (std::size_t i = 0; i < t.size(); ++i) t.set(i, rng.normal());
    std::uint64_t baseline = 0;
    for (int i = 0; i < 6; ++i) {
      hierarchical_allreduce(comm, t, c.ranks_per_node, true, {},
                             (i % 4) * 65536);
      comm.barrier();
    }
    if (comm.rank() == 0) {
      // Organic warm-up leaves the pool at whatever peak the interleaving
      // happened to hit; top it up to a static bound so an unluckier
      // measured interleaving cannot miss. Every buffer this schedule
      // leases (ring chunks, RVH halves, fold staging, triples) fits the
      // payload size, so payload-capacity buffers cover every class.
      BufferPool& pool = comm.pool();
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < 12 * comm.size(); ++i)
        held.push_back(pool.acquire(t.nbytes()));
      for (auto& b : held) pool.release(std::move(b));
    }
    comm.barrier();
    BufferPool::Stats pool_before;
    if (comm.rank() == 0) {
      pool_before = comm.pool().stats();
      baseline = g_heap_allocs.load(std::memory_order_relaxed);
    }
    comm.barrier();
    for (int i = 6; i < 10; ++i) {
      hierarchical_allreduce(comm, t, c.ranks_per_node, true, {},
                             (i % 4) * 65536);
      comm.barrier();
    }
    if (comm.rank() == 0) {
      warm_allocs = g_heap_allocs.load(std::memory_order_relaxed) - baseline;
      const BufferPool::Stats after = comm.pool().stats();
      pool_misses = after.allocations - pool_before.allocations;
      pool_alloc_bytes = after.bytes_allocated - pool_before.bytes_allocated;
    }
  });
  EXPECT_EQ(warm_allocs, 0u)
      << pool_misses << " of these were BufferPool misses ("
      << pool_alloc_bytes << " fresh bytes)";
}

}  // namespace
}  // namespace adasum
