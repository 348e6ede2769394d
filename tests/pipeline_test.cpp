// Chunked-pipelining and background-engine regressions (DESIGN.md §12).
//
// The load-bearing property of the pipelined collectives is that chunking
// NEVER changes arithmetic: the chunked transfers feed the same contiguous
// spans to the same kernels in the same order as the monolithic path, so
// every result must be bit-for-bit identical to the pipeline-off reference
// for every chunk size — including chunks that do not divide the payload,
// chunks larger than the payload, and the degenerate one-element chunk.
// The background CommEngine adds a second property: a fixed bucket layout
// reduces to bit-identical parameters whether the buckets run inline on the
// owner thread or on the engine, because both execute the same collectives
// in the same submission order.
//
// The chaos section replays seeded fault schedules (tests/chaos_util.h)
// with chunking enabled: the chunk streams ride the same per-(src,dst,tag)
// FIFOs as monolithic messages, so no schedule may deadlock, and fault-free
// schedules must still match the clean reference bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/runtime_config.h"
#include "chaos_util.h"
#include "collectives/allreduce.h"
#include "collectives/comm_engine.h"
#include "collectives/resilient.h"
#include "comm/fault_injector.h"
#include "comm/pipeline.h"
#include "comm/world.h"
#include "env_restore.h"
#include "heap_counter.h"
#include "nn/module.h"
#include "optim/distributed_optimizer.h"
#include "tensor/fusion.h"

namespace adasum {
namespace {

using chaos::ChaosSchedule;
using chaos::run_with_watchdog;
using chaos::WatchdogResult;
using nn::Parameter;
using optim::DistributedOptimizer;
using optim::DistributedOptions;
using optim::GradientCompression;
using optim::Sgd;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// ---- chunk math ------------------------------------------------------------

TEST(ChunkMath, MessageCountMatchesCeilingDivision) {
  EXPECT_EQ(chunk_messages(0, 0), 1u);          // empty, unchunked
  EXPECT_EQ(chunk_messages(1000, 0), 1u);       // chunking disabled
  EXPECT_EQ(chunk_messages(0, 64), 1u);         // empty payload still 1 msg
  EXPECT_EQ(chunk_messages(64, 64), 1u);        // exact fit
  EXPECT_EQ(chunk_messages(65, 64), 2u);        // one-byte tail
  EXPECT_EQ(chunk_messages(128, 64), 2u);
  EXPECT_EQ(chunk_messages(63, 64), 1u);        // sub-chunk payload
  for (std::size_t total : {std::size_t{1}, std::size_t{100},
                            std::size_t{4096}, std::size_t{100001}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{100},
                              std::size_t{4096}}) {
      const std::size_t k = chunk_messages(total, chunk);
      EXPECT_GE(k * chunk, total);
      if (k > 1) {
        EXPECT_LT((k - 1) * chunk, total);
      }
    }
  }
}

TEST(ChunkMath, ChunkBytesForAlignsToElements) {
  PipelineOptions off;
  EXPECT_EQ(off.chunk_bytes_for(4), 0u);  // disabled -> monolithic
  PipelineOptions on;
  on.enabled = true;
  on.chunk_bytes = 4096;
  EXPECT_EQ(on.chunk_bytes_for(4), 4096u);   // already aligned
  EXPECT_EQ(on.chunk_bytes_for(0), 0u);      // degenerate element size
  on.chunk_bytes = 4097;
  EXPECT_EQ(on.chunk_bytes_for(4), 4096u);   // floor-aligned down
  EXPECT_EQ(on.chunk_bytes_for(2), 4096u);
  on.chunk_bytes = 1;
  EXPECT_EQ(on.chunk_bytes_for(4), 4u);      // never below one element
  EXPECT_EQ(on.chunk_bytes_for(8), 8u);
}

// ADASUM_PIPELINE / ADASUM_CHUNK_BYTES read from the process environment:
// known values apply, anything else keeps the default (off, 256 KiB)
// instead of being half-parsed — "4k" or "1e6" must not become one-element
// chunks, nor "-1" a monolithic transfer.
TEST(ChunkMath, FromEnvRejectsMalformedValues) {
  const EnvRestore restore_switch("ADASUM_PIPELINE");
  const EnvRestore restore_chunk("ADASUM_CHUNK_BYTES");
  const auto enabled_for = [](const char* v) {
    setenv("ADASUM_PIPELINE", v, 1);
    return RuntimeConfig::from_env().pipeline;
  };
  EXPECT_TRUE(enabled_for("on"));
  EXPECT_TRUE(enabled_for("1"));
  EXPECT_FALSE(enabled_for("off"));
  EXPECT_FALSE(enabled_for("0"));
  for (const char* bad : {"true", "yes", "ON", "", "2"})
    EXPECT_FALSE(enabled_for(bad)) << "ADASUM_PIPELINE=" << bad;
  unsetenv("ADASUM_PIPELINE");
  EXPECT_FALSE(RuntimeConfig::from_env().pipeline);

  const std::size_t def = RuntimeConfig{}.chunk_bytes;
  EXPECT_EQ(def, PipelineOptions{}.chunk_bytes);
  const auto chunk_for = [](const char* v) {
    setenv("ADASUM_CHUNK_BYTES", v, 1);
    return RuntimeConfig::from_env().chunk_bytes;
  };
  EXPECT_EQ(chunk_for("4096"), 4096u);
  EXPECT_EQ(chunk_for("100"), 100u);
  for (const char* bad : {"4k", "1e6", "-1", "0", "", " 64", "+64",
                          "99999999999999999999999"})
    EXPECT_EQ(chunk_for(bad), def) << "ADASUM_CHUNK_BYTES=" << bad;
  unsetenv("ADASUM_CHUNK_BYTES");
  EXPECT_EQ(RuntimeConfig::from_env().chunk_bytes, def);
}

// ---- bit-for-bit parity of the chunked collectives -------------------------

struct CollectiveConfig {
  int ranks;
  std::size_t count;
  DType dtype;
  bool fused;  // three layers with a tiny middle layer
  ReduceOp op;
  AllreduceAlgo algo;
};

std::vector<Tensor> make_payload(const CollectiveConfig& c, int rank) {
  const std::size_t counts[3] = {c.count, 7, c.count / 2 + 1};
  const int num = c.fused ? 3 : 1;
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(num));
  for (int j = 0; j < num; ++j) {
    Rng rng(977 * static_cast<std::uint64_t>(rank + 1) +
            static_cast<std::uint64_t>(j));
    Tensor t({counts[j]});
    for (std::size_t i = 0; i < t.size(); ++i)
      t.set(i, rng.uniform(-1.0, 1.0));
    out.push_back(c.dtype == DType::kFloat16 ? t.cast(DType::kFloat16)
                                             : std::move(t));
  }
  return out;
}

std::vector<std::byte> concat_bytes(const std::vector<Tensor>& tensors) {
  std::vector<std::byte> out;
  for (const Tensor& t : tensors)
    out.insert(out.end(), t.data(), t.data() + t.nbytes());
  return out;
}

// Runs the configured allreduce on every rank and returns the concatenated
// result bytes of ALL ranks, so a comparison also proves rank agreement.
std::vector<std::byte> run_collective(const CollectiveConfig& c,
                                      bool pipeline_on,
                                      std::size_t chunk_bytes) {
  World world(c.ranks);
  PipelineOptions pipe;
  pipe.enabled = pipeline_on;
  if (chunk_bytes > 0) pipe.chunk_bytes = chunk_bytes;
  world.set_pipeline(pipe);
  std::vector<std::vector<std::byte>> per_rank(
      static_cast<std::size_t>(c.ranks));
  std::mutex mutex;
  world.run([&](Comm& comm) {
    std::vector<Tensor> tensors = make_payload(c, comm.rank());
    AllreduceOptions opts;
    opts.op = c.op;
    opts.algo = c.algo;
    if (c.fused) {
      std::vector<Tensor*> ptrs;
      for (Tensor& t : tensors) ptrs.push_back(&t);
      allreduce_fused(comm, ptrs, opts);
    } else {
      allreduce(comm, tensors[0], opts);
    }
    std::lock_guard<std::mutex> lock(mutex);
    per_rank[static_cast<std::size_t>(comm.rank())] = concat_bytes(tensors);
  });
  std::vector<std::byte> all;
  for (const auto& r : per_rank) all.insert(all.end(), r.begin(), r.end());
  return all;
}

TEST(PipelineParity, AdasumRvhBitIdenticalAcrossChunkSizes) {
  // chunk_bytes = 1 floors up to exactly one element per message; 100 does
  // not divide the payload (partial tail chunk); 4096 is a mid cache-sized
  // chunk; 1 MiB is far larger than the payload (single-message degenerate).
  const std::size_t chunk_sizes[] = {1, 100, 4096, std::size_t{1} << 20};
  for (int ranks : {2, 4, 8}) {
    for (DType dtype : {DType::kFloat32, DType::kFloat16}) {
      for (bool fused : {false, true}) {
        const CollectiveConfig c{ranks, 1537, dtype, fused, ReduceOp::kAdasum,
                                 AllreduceAlgo::kRvh};
        const std::vector<std::byte> reference =
            run_collective(c, /*pipeline_on=*/false, 0);
        for (std::size_t chunk : chunk_sizes) {
          SCOPED_TRACE("p=" + std::to_string(ranks) + " fp16=" +
                       std::to_string(dtype == DType::kFloat16) + " fused=" +
                       std::to_string(fused) + " chunk=" +
                       std::to_string(chunk));
          const std::vector<std::byte> chunked =
              run_collective(c, /*pipeline_on=*/true, chunk);
          ASSERT_EQ(chunked.size(), reference.size());
          EXPECT_EQ(
              std::memcmp(chunked.data(), reference.data(), chunked.size()),
              0);
        }
      }
    }
  }
}

TEST(PipelineParity, AdasumRvhBitIdenticalOnPayloadLargerThanChunk) {
  // 70001 floats = 280004 bytes, so the default 256 KiB chunk genuinely
  // splits the level-0 halving exchange, and 64 KiB splits every level.
  const CollectiveConfig c{4, 70001, DType::kFloat32, false, ReduceOp::kAdasum,
                           AllreduceAlgo::kRvh};
  const std::vector<std::byte> reference =
      run_collective(c, /*pipeline_on=*/false, 0);
  for (std::size_t chunk : {std::size_t{64} * 1024, std::size_t{256} * 1024}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const std::vector<std::byte> chunked =
        run_collective(c, /*pipeline_on=*/true, chunk);
    ASSERT_EQ(chunked.size(), reference.size());
    EXPECT_EQ(std::memcmp(chunked.data(), reference.data(), chunked.size()),
              0);
  }
}

TEST(PipelineParity, SumBitIdenticalIncludingNonPowerOfTwoWorlds) {
  // kAuto routes power-of-two worlds to RVH and the rest (3, 5, 6) to the
  // ring — both chunked paths must match their monolithic selves exactly.
  for (int ranks : {2, 3, 4, 5, 6, 8}) {
    for (bool fused : {false, true}) {
      const CollectiveConfig c{ranks, 1537, DType::kFloat32, fused,
                               ReduceOp::kSum, AllreduceAlgo::kAuto};
      const std::vector<std::byte> reference =
          run_collective(c, /*pipeline_on=*/false, 0);
      for (std::size_t chunk : {std::size_t{100}, std::size_t{4096}}) {
        SCOPED_TRACE("p=" + std::to_string(ranks) + " fused=" +
                     std::to_string(fused) + " chunk=" +
                     std::to_string(chunk));
        const std::vector<std::byte> chunked =
            run_collective(c, /*pipeline_on=*/true, chunk);
        ASSERT_EQ(chunked.size(), reference.size());
        EXPECT_EQ(
            std::memcmp(chunked.data(), reference.data(), chunked.size()), 0);
      }
    }
  }
}

// ---- optimizer-level parity (dynamic scaling, background engine) -----------

constexpr std::size_t kParamSizes[] = {300, 7, 129, 64, 501};
constexpr std::size_t kNumParams = 5;
constexpr int kTrainSteps = 3;

// Trains kTrainSteps SGD steps with deterministic per-(step, rank, param)
// gradients and returns rank 0's final parameter bytes.
std::vector<std::byte> train_final_params(int ranks,
                                          const DistributedOptions& opts,
                                          bool pipeline_on,
                                          std::size_t chunk_bytes) {
  World world(ranks);
  PipelineOptions pipe;
  pipe.enabled = pipeline_on;
  if (chunk_bytes > 0) pipe.chunk_bytes = chunk_bytes;
  world.set_pipeline(pipe);
  std::vector<std::byte> out;
  std::mutex mutex;
  world.run([&](Comm& comm) {
    std::vector<Parameter> owned;
    owned.reserve(kNumParams);
    for (std::size_t i = 0; i < kNumParams; ++i)
      owned.emplace_back("p" + std::to_string(i),
                         std::vector<std::size_t>{kParamSizes[i]});
    std::vector<Parameter*> params;
    for (std::size_t i = 0; i < kNumParams; ++i) {
      auto v = owned[i].value.span<float>();
      for (std::size_t j = 0; j < v.size(); ++j)
        v[j] = static_cast<float>((j * 31 + i * 17) % 200) / 200.0f - 0.5f;
      params.push_back(&owned[i]);
    }
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    for (int step = 0; step < kTrainSteps; ++step) {
      for (std::size_t i = 0; i < kNumParams; ++i) {
        auto g = owned[i].grad.span<float>();
        for (std::size_t j = 0; j < g.size(); ++j)
          g[j] = static_cast<float>(
                     (j * 13 + i * 7 + static_cast<std::size_t>(comm.rank()) *
                                           3 +
                      static_cast<std::size_t>(step)) %
                     400) /
                     400.0f -
                 0.5f;
        dopt.notify_grad_ready(i);  // no-op outside background Sum mode
      }
      dopt.step(0.05);
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      for (const Parameter& p : owned)
        out.insert(out.end(), p.value.data(),
                   p.value.data() + p.value.nbytes());
    }
  });
  return out;
}

TEST(PipelineParity, Fp16DynamicScalingUnchangedByChunking) {
  // The fp16-compressed Adasum round (scale -> cast -> reduce -> unscale,
  // with the overflow vote) must be bit-for-bit independent of the chunk
  // size: chunk boundaries never split the scaled arithmetic.
  DistributedOptions opts;
  opts.compression = GradientCompression::kFp16;
  const std::vector<std::byte> reference =
      train_final_params(4, opts, /*pipeline_on=*/false, 0);
  for (std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const std::vector<std::byte> chunked =
        train_final_params(4, opts, /*pipeline_on=*/true, chunk);
    ASSERT_EQ(chunked.size(), reference.size());
    EXPECT_EQ(std::memcmp(chunked.data(), reference.data(), chunked.size()),
              0);
  }
}

TEST(PipelineParity, BackgroundEngineBitIdenticalToInlineBuckets) {
  // Same bucket layout -> same fused segments reduced by the same
  // collectives in the same order, so moving the reductions onto the
  // engine thread must not change a single bit. Exercised for the Adasum
  // delta path, the plain-sum path, and the fp16-compressed path.
  struct Case {
    ReduceOp op;
    GradientCompression compression;
  };
  const Case cases[] = {{ReduceOp::kAdasum, GradientCompression::kNone},
                        {ReduceOp::kSum, GradientCompression::kNone},
                        {ReduceOp::kAdasum, GradientCompression::kFp16}};
  for (const Case& c : cases) {
    DistributedOptions opts;
    opts.op = c.op;
    opts.compression = c.compression;
    opts.bucket_bytes = 1400;  // ~3 buckets over the 1001-float model
    opts.background = false;
    const std::vector<std::byte> inline_params =
        train_final_params(4, opts, /*pipeline_on=*/true, 4096);
    opts.background = true;
    const std::vector<std::byte> engine_params =
        train_final_params(4, opts, /*pipeline_on=*/true, 4096);
    SCOPED_TRACE("op=" + std::to_string(static_cast<int>(c.op)) + " fp16=" +
                 std::to_string(c.compression == GradientCompression::kFp16));
    ASSERT_EQ(engine_params.size(), inline_params.size());
    EXPECT_EQ(std::memcmp(engine_params.data(), inline_params.data(),
                          engine_params.size()),
              0);
  }
}

// ---- chaos schedules with chunking on --------------------------------------

// Deterministic per-(schedule, rank) payloads (the chaos_test generator).
std::vector<Tensor> make_chaos_payload(const ChaosSchedule& s, int rank) {
  const int num = s.fused ? 3 : 1;
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(num));
  for (int j = 0; j < num; ++j) {
    Rng rng(s.seed ^ (static_cast<std::uint64_t>(rank) * 131 +
                      static_cast<std::uint64_t>(j) + 1));
    Tensor t({s.count});
    for (std::size_t i = 0; i < s.count; ++i)
      t.set(i, rng.uniform(-1.0, 1.0));
    out.push_back(s.fp16 ? t.cast(DType::kFloat16) : std::move(t));
  }
  return out;
}

// The clean monolithic oracle: same payloads, pipeline off, no injector.
std::vector<std::byte> chaos_reference(const ChaosSchedule& s) {
  World world(s.world_size);
  std::vector<std::byte> out;
  std::mutex mutex;
  world.run([&](Comm& comm) {
    std::vector<Tensor> tensors = make_chaos_payload(s, comm.rank());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    if (s.fused) {
      std::vector<Tensor*> ptrs;
      for (Tensor& t : tensors) ptrs.push_back(&t);
      allreduce_fused(comm, ptrs, opts);
    } else {
      allreduce(comm, tensors[0], opts);
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      out = concat_bytes(tensors);
    }
  });
  return out;
}

TEST(PipelineChaos, SeededSchedulesTerminateWithChunkingOn) {
  // The chunk streams use the same per-(src,dst,tag) FIFOs and the same
  // resilient recovery as monolithic messages, so every seeded fault
  // schedule must terminate without the watchdog, and fault-free schedules
  // (clean, delay-only) must complete bit-for-bit equal to the clean
  // monolithic reference. Seeds are disjoint from chaos_test's default
  // base; CHAOS_SCHEDULES shrinks the sweep under TSan (scripts/check.sh).
  const int schedules = std::min(env_int("CHAOS_SCHEDULES", 40), 40);
  const std::uint64_t seed_base = 5000;
  const std::size_t chunk_sizes[] = {32, 256, 4096};

  for (int i = 0; i < schedules; ++i) {
    const ChaosSchedule s = ChaosSchedule::from_seed(seed_base + i);
    const std::size_t chunk = chunk_sizes[static_cast<std::size_t>(i) % 3];
    SCOPED_TRACE("seed=" + std::to_string(s.seed) + " profile=" +
                 std::to_string(static_cast<int>(s.profile)) + " p=" +
                 std::to_string(s.world_size) + " chunk=" +
                 std::to_string(chunk));

    World world(s.world_size);
    PipelineOptions pipe;
    pipe.enabled = true;
    pipe.chunk_bytes = chunk;
    world.set_pipeline(pipe);
    FaultToleranceOptions ft;
    ft.recv_deadline = std::chrono::milliseconds(250);
    ft.max_recovery_attempts = 3;
    world.enable_fault_tolerance(ft);
    world.enable_checksums(true);
    world.set_fault_injector(
        std::make_shared<FaultInjector>(s.world_size, s.spec));

    std::vector<std::vector<std::byte>> results(
        static_cast<std::size_t>(s.world_size));
    std::vector<ReduceOutcome> outcomes(
        static_cast<std::size_t>(s.world_size), ReduceOutcome::kSkipped);
    std::vector<bool> finished(static_cast<std::size_t>(s.world_size), false);
    std::mutex mutex;
    const WatchdogResult wr = run_with_watchdog(
        world,
        [&](Comm& comm) {
          std::vector<Tensor> tensors = make_chaos_payload(s, comm.rank());
          AllreduceOptions opts;
          opts.op = ReduceOp::kAdasum;
          opts.algo = AllreduceAlgo::kRvh;
          ResilientResult r;
          if (s.fused) {
            FusionBuffer fusion;
            std::vector<Tensor*> ptrs;
            for (Tensor& t : tensors) ptrs.push_back(&t);
            r = resilient_allreduce_fused(comm, ptrs, opts, fusion);
          } else {
            r = resilient_allreduce(comm, tensors[0], opts);
          }
          std::lock_guard<std::mutex> lock(mutex);
          outcomes[static_cast<std::size_t>(comm.rank())] = r.outcome;
          results[static_cast<std::size_t>(comm.rank())] =
              concat_bytes(tensors);
          finished[static_cast<std::size_t>(comm.rank())] = true;
        },
        std::chrono::seconds(20));

    // (a) Termination: chunking must never introduce a deadlock.
    EXPECT_FALSE(wr.watchdog_fired);

    // (b) Fault-free schedules complete and equal the clean monolithic run.
    if (s.profile == ChaosSchedule::Profile::kClean ||
        s.profile == ChaosSchedule::Profile::kDelay) {
      ASSERT_EQ(wr.error, nullptr);
      const std::vector<std::byte> reference = chaos_reference(s);
      for (int r = 0; r < s.world_size; ++r) {
        ASSERT_TRUE(finished[static_cast<std::size_t>(r)]) << "rank " << r;
        EXPECT_EQ(outcomes[static_cast<std::size_t>(r)],
                  ReduceOutcome::kOk)
            << "rank " << r;
        const auto& got = results[static_cast<std::size_t>(r)];
        ASSERT_EQ(got.size(), reference.size()) << "rank " << r;
        EXPECT_EQ(std::memcmp(got.data(), reference.data(), got.size()), 0)
            << "rank " << r;
      }
    }
  }
}

// ---- engine steady state ---------------------------------------------------

TEST(PipelineEngine, SteadyStateSubmitWaitLoopMakesNoAllocations) {
  // Warm engine rounds must be allocation-free end to end: the op ring is
  // pre-sized, submit/wait only move indices under the queue mutex, and the
  // chunked collective underneath runs on pooled buffers. Measured with the
  // chunked path ON so the gate covers chunk staging too.
  World world(2);
  PipelineOptions pipe;
  pipe.enabled = true;
  pipe.chunk_bytes = 4096;
  world.set_pipeline(pipe);
  if (world.analyzer() != nullptr)
    GTEST_SKIP() << "protocol analyzer enabled via ADASUM_ANALYZE";
  std::uint64_t steady_allocs = 0;
  world.run([&](Comm& comm) {
    Tensor t({16384});
    Rng rng(77 + static_cast<std::uint64_t>(comm.rank()));
    for (std::size_t i = 0; i < t.size(); ++i) t.set(i, rng.normal());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    CommEngine engine(comm);
    // Warm the mailbox queues (sends are buffered; erase keeps capacity).
    const std::byte ping[8] = {};
    for (int dst = 0; dst < comm.size(); ++dst) {
      if (dst == comm.rank()) continue;
      for (int i = 0; i < 16; ++i) comm.send_bytes(dst, ping, /*tag=*/900 + i);
    }
    comm.barrier();
    for (int src = 0; src < comm.size(); ++src) {
      if (src == comm.rank()) continue;
      std::byte sink[8];
      for (int i = 0; i < 16; ++i) comm.recv_bytes_into(src, sink, 900 + i);
    }
    for (int i = 0; i < 6; ++i)
      engine.wait(engine.submit_allreduce(t, opts, (i % 64) * 65536));
    comm.barrier();
    if (comm.rank() == 0) {
      // Peak in-flight pooled buffers depend on thread interleaving, so
      // organic warm-up cannot deterministically reach the worst case;
      // provision the pool to the static bound instead (the chaos_test
      // idiom), including the 4 KiB chunk staging leases.
      BufferPool& pool = comm.pool();
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < comm.size(); ++i)
        held.push_back(pool.acquire(t.nbytes()));
      for (int i = 0; i < 5 * comm.size(); ++i)
        held.push_back(pool.acquire(t.nbytes() / 2));
      for (int i = 0; i < 32 * comm.size(); ++i)
        held.push_back(pool.acquire(4096));
      for (int i = 0; i < 8 * comm.size(); ++i)
        held.push_back(pool.acquire(128));
      for (auto& b : held) pool.release(std::move(b));
    }
    comm.barrier();
    std::uint64_t baseline = 0;
    if (comm.rank() == 0)
      baseline = g_heap_allocs.load(std::memory_order_relaxed);
    comm.barrier();
    for (int i = 6; i < 12; ++i)
      engine.wait(engine.submit_allreduce(t, opts, (i % 64) * 65536));
    comm.barrier();
    if (comm.rank() == 0)
      steady_allocs =
          g_heap_allocs.load(std::memory_order_relaxed) - baseline;
    engine.wait_all();
  });
  EXPECT_EQ(steady_allocs, 0u);
}

// ---- strict analyzer over chunked epochs -----------------------------------

TEST(PipelineAnalyzer, ChunkedEpochsPassStrictValidation) {
  // With chunking on, every collective declares chunk_messages(...) messages
  // per transfer in its epoch, and the analyzer validates observed traffic
  // against the declaration in fail-fast mode — a drifted chunk-count
  // formula aborts the run with a ProtocolError instead of passing quietly.
  for (std::size_t chunk : {std::size_t{100}, std::size_t{4096}}) {
    World world(4);
    PipelineOptions pipe;
    pipe.enabled = true;
    pipe.chunk_bytes = chunk;
    world.set_pipeline(pipe);
    world.enable_analyzer();
    world.run([&](Comm& comm) {
      CollectiveConfig c{4, 1537, DType::kFloat32, true, ReduceOp::kAdasum,
                         AllreduceAlgo::kRvh};
      std::vector<Tensor> tensors = make_payload(c, comm.rank());
      AllreduceOptions opts;
      opts.op = ReduceOp::kAdasum;
      opts.algo = AllreduceAlgo::kRvh;
      std::vector<Tensor*> ptrs;
      for (Tensor& t : tensors) ptrs.push_back(&t);
      allreduce_fused(comm, ptrs, opts);
      Tensor sum = tensors[0].clone();
      opts.op = ReduceOp::kSum;
      opts.algo = AllreduceAlgo::kAuto;
      allreduce(comm, sum, opts, /*tag_base=*/65536);
    });
    ASSERT_NE(world.analyzer(), nullptr);
    EXPECT_FALSE(world.analyzer()->has_violations())
        << world.analyzer()->report();
  }
}

}  // namespace
}  // namespace adasum
