// Tests for the collective primitives (broadcast / reduce-scatter /
// allgather): the ring pair under ring_allreduce_sum and the hierarchical
// allreduce's node-local phases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <vector>

#include "base/rng.h"
#include "collectives/primitives.h"
#include "comm/pipeline.h"

namespace adasum {
namespace {

std::vector<int> iota_group(int n, int base = 0, int stride = 1) {
  std::vector<int> g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) g[static_cast<std::size_t>(i)] = base + i * stride;
  return g;
}

TEST(ChunkRangeTest, TilesThePayload) {
  for (std::size_t count : {1u, 7u, 64u, 100u}) {
    for (int p : {1, 2, 3, 4, 8}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (int c = 0; c < p; ++c) {
        const ChunkRange r = chunk_range(count, p, c);
        EXPECT_EQ(r.begin, prev_end);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, count) << count << " over " << p;
    }
  }
}

class BroadcastTest : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastTest, EveryRootDeliversToAll) {
  const int ranks = GetParam();
  for (int root = 0; root < ranks; ++root) {
    World world(ranks);
    world.run([&](Comm& comm) {
      Tensor t({16});
      if (comm.rank() == root)
        for (std::size_t i = 0; i < 16; ++i) t.set(i, 100.0 + i);
      const auto group = iota_group(ranks);
      broadcast(comm, t, group, root);
      for (std::size_t i = 0; i < 16; ++i)
        ASSERT_EQ(t.at(i), 100.0 + i) << "root " << root;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, BroadcastTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(BroadcastTest, WorksOnSubgroup) {
  World world(6);
  world.run([&](Comm& comm) {
    // Odd ranks form the group; root is group index 1 (world rank 3).
    if (comm.rank() % 2 == 0) return;
    const std::vector<int> group{1, 3, 5};
    Tensor t({4});
    if (comm.rank() == 3) t.fill(7.0);
    broadcast(comm, t, group, /*root_index=*/1);
    for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(t.at(i), 7.0);
  });
}

TEST(ReduceScatterTest, OwnedChunksHoldGroupSum) {
  const int ranks = 4;
  const std::size_t count = 22;  // non-divisible on purpose
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor t({count});
    for (std::size_t i = 0; i < count; ++i)
      t.set(i, static_cast<double>(comm.rank() + 1) * (i + 1));
    const auto group = iota_group(ranks);
    ring_reduce_scatter_sum(comm, t.data(), count, t.dtype(), group);
    const int owned = owned_chunk_after_reduce_scatter(comm.rank(), ranks);
    const ChunkRange r = chunk_range(count, ranks, owned);
    const double rank_sum = 1 + 2 + 3 + 4;
    for (std::size_t i = r.begin; i < r.end; ++i)
      ASSERT_NEAR(t.at(i), rank_sum * (i + 1), 1e-4) << i;
  });
}

TEST(AllgatherTest, ReassemblesOwnedChunks) {
  const int ranks = 4;
  const std::size_t count = 17;
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor t({count});
    // Each rank fills only its owned chunk with a recognizable pattern.
    const int owned = owned_chunk_after_reduce_scatter(comm.rank(), ranks);
    const ChunkRange r = chunk_range(count, ranks, owned);
    for (std::size_t i = r.begin; i < r.end; ++i)
      t.set(i, 1000.0 * (owned + 1) + static_cast<double>(i));
    const auto group = iota_group(ranks);
    ring_allgather(comm, t.data(), count, t.dtype(), group);
    for (int c = 0; c < ranks; ++c) {
      const ChunkRange cr = chunk_range(count, ranks, c);
      for (std::size_t i = cr.begin; i < cr.end; ++i)
        ASSERT_EQ(t.at(i), 1000.0 * (c + 1) + static_cast<double>(i));
    }
  });
}

TEST(ReduceScatterAllgatherTest, ComposeIntoAllreduce) {
  // reduce-scatter followed by allgather must equal a full sum-allreduce.
  const int ranks = 8;
  const std::size_t count = 50;
  Rng rng(3);
  std::vector<std::vector<double>> values(
      static_cast<std::size_t>(ranks), std::vector<double>(count));
  std::vector<double> expected(count, 0.0);
  for (int r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < count; ++i) {
      values[static_cast<std::size_t>(r)][i] = rng.normal();
      expected[i] += values[static_cast<std::size_t>(r)][i];
    }
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor t = Tensor::from_vector(values[static_cast<std::size_t>(comm.rank())]);
    const auto group = iota_group(ranks);
    ring_reduce_scatter_sum(comm, t.data(), count, t.dtype(), group, 0);
    ring_allgather(comm, t.data(), count, t.dtype(), group, 1000);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(t.at(i), expected[i], 1e-4) << i;
  });
}

// Runs a ring reduce-scatter + allgather over `group` (with `bounds`) on
// every member's seeded input; returns each world rank's output bytes
// (empty for non-members).
std::vector<std::vector<std::byte>> ring_pair(
    World& world, DType dtype, std::size_t count, const std::vector<int>& group,
    const std::vector<std::size_t>& bounds,
    const CompressionOptions& comp = {CompressionMode::kNone}) {
  std::vector<std::vector<std::byte>> out(
      static_cast<std::size_t>(world.size()));
  std::mutex mu;
  world.run([&](Comm& comm) {
    if (!group.empty() &&
        std::find(group.begin(), group.end(), comm.rank()) == group.end())
      return;
    Rng rng(11 + static_cast<std::uint64_t>(comm.rank()));
    Tensor t({count}, dtype);
    for (std::size_t i = 0; i < count; ++i) t.set(i, rng.normal());
    ring_reduce_scatter_sum(comm, t.data(), count, dtype, group, 0, bounds,
                            comp);
    ring_allgather(comm, t.data(), count, dtype, group, 100, bounds, comp);
    std::lock_guard<std::mutex> lock(mu);
    out[static_cast<std::size_t>(comm.rank())].assign(
        t.data(), t.data() + t.nbytes());
  });
  return out;
}

// Chunk streaming never changes the bits: a non-contiguous group with
// ragged (including empty) shard bounds gives memcmp-equal results with
// 1 KiB chunks and with pipelining off, and every member ends identical.
TEST(RingPrimitives, ChunkedRingBitIdenticalOnRaggedBoundsAndGroup) {
  const std::vector<int> group{5, 1, 6, 3};
  const std::size_t count = 3001;
  const std::vector<std::size_t> bounds{0, 10, 10, 1700, count};
  for (const DType dtype : {DType::kFloat32, DType::kFloat16}) {
    SCOPED_TRACE(dtype_name(dtype));
    World off(7);
    const auto mono = ring_pair(off, dtype, count, group, bounds);
    World on(7);
    on.set_pipeline(PipelineOptions{true, 1024});
    const auto chunked = ring_pair(on, dtype, count, group, bounds);
    for (const int r : group) {
      const auto& m = mono[static_cast<std::size_t>(r)];
      const auto& c = chunked[static_cast<std::size_t>(r)];
      ASSERT_EQ(m.size(), count * dtype_size(dtype));
      ASSERT_EQ(c.size(), m.size());
      EXPECT_EQ(std::memcmp(m.data(), c.data(), m.size()), 0) << "rank " << r;
      EXPECT_EQ(m, mono[static_cast<std::size_t>(group[0])]) << "rank " << r;
    }
  }
}

// The chunk count the analyzer declarations use is the one the transfers
// send: each rank's messages_sent is the sum of chunk_messages over both
// phases' steps, exact and compressed.
TEST(RingPrimitives, MessagesSentIsTheSumOfChunkMessagesOverSteps) {
  const std::vector<int> group{2, 0, 3};
  const std::size_t count = 5000;
  const std::vector<std::size_t> bounds{0, 1000, 1003, count};
  const int p = static_cast<int>(group.size());
  const std::size_t chunk = 1024;
  for (const CompressionMode mode :
       {CompressionMode::kNone, CompressionMode::kInt8}) {
    CompressionOptions comp;
    comp.mode = mode;
    World world(4);
    world.set_pipeline(PipelineOptions{true, chunk});
    ring_pair(world, DType::kFloat32, count, group, bounds, comp);
    const auto seg_messages = [&](int c) {
      c = ((c % p) + p) % p;
      const std::size_t n = bounds[static_cast<std::size_t>(c) + 1] -
                            bounds[static_cast<std::size_t>(c)];
      return chunk_messages(
          comp.active() ? compressed_wire_bytes(n, comp) : n * sizeof(float),
          chunk);
    };
    for (int me = 0; me < p; ++me) {
      std::size_t expected = 0;
      for (int s = 0; s < p - 1; ++s)
        expected += seg_messages(me - s) + seg_messages(me + 1 - s);
      EXPECT_EQ(world.stats()[static_cast<std::size_t>(group[
                    static_cast<std::size_t>(me)])].messages_sent,
                expected)
          << compression_mode_name(mode) << " group index " << me;
    }
    EXPECT_EQ(world.stats()[1].messages_sent, 0u);  // not a member
  }
}

// An empty group is the whole world in rank order, with chunk_range bounds.
TEST(RingPrimitives, EmptyGroupCoversTheWholeWorld) {
  const int ranks = 5;
  const std::size_t count = 1234;
  std::vector<std::size_t> bounds;
  for (int c = 0; c <= ranks; ++c)
    bounds.push_back(c == ranks ? count : chunk_range(count, ranks, c).begin);
  World implicit(ranks);
  const auto whole = ring_pair(implicit, DType::kFloat64, count, {}, {});
  World expl(ranks);
  const auto listed =
      ring_pair(expl, DType::kFloat64, count, iota_group(ranks), bounds);
  std::vector<double> expected(count, 0.0);
  for (int r = 0; r < ranks; ++r) {
    Rng rng(11 + static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < count; ++i) expected[i] += rng.normal();
  }
  for (int r = 0; r < ranks; ++r) {
    const auto& w = whole[static_cast<std::size_t>(r)];
    ASSERT_EQ(w.size(), count * sizeof(double));
    EXPECT_EQ(w, listed[static_cast<std::size_t>(r)]) << "rank " << r;
    const double* v = reinterpret_cast<const double*>(w.data());
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(v[i], expected[i], 1e-9) << "rank " << r << " i=" << i;
  }
}

TEST(PrimitivesTest, NonMemberRankRejected) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    const std::vector<int> group{0};  // rank 1 is not a member
    Tensor t({4});
    if (comm.rank() == 1)
      ring_reduce_scatter_sum(comm, t.data(), 4, t.dtype(), group);
  }),
               CheckError);
}

}  // namespace
}  // namespace adasum
