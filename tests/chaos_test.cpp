// Chaos harness for the fault-injection layer (DESIGN.md §9).
//
// Property-style loops run hundreds of seeded fault schedules (world sizes
// {2,4,8}, fp16/fp32 payloads, fused and unfused) through the resilient
// Adasum allreduce and assert the invariants that must hold under EVERY
// schedule and OS interleaving:
//   (a) no deadlock — every run terminates without the watchdog firing;
//   (b) fault-free schedules are bit-for-bit identical to the copy-based
//       adasum_rvh_allreduce_reference oracle;
//   (c) corruption faults are detected by the per-message checksums;
//   plus agreement (survivors finish with the same outcome and, for
//   completed reductions, the same bytes) and snapshot-restore (a skipped
//   round hands back exactly the local input).
//
// Schedule count and seed base are env-tunable (CHAOS_SCHEDULES,
// CHAOS_SEED_BASE) so scripts/check.sh can run a smaller fixed set under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

#include "chaos_util.h"
#include "collectives/adasum_rvh_reference.h"
#include "collectives/resilient.h"
#include "core/adasum.h"
#include "data/synthetic.h"
#include "heap_counter.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "tensor/fusion.h"
#include "train/trainer.h"

namespace adasum {
namespace {

using chaos::ChaosSchedule;
using chaos::run_with_watchdog;
using chaos::WatchdogResult;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// Deterministic per-(schedule, rank) payloads, fp16-safe value range.
std::vector<Tensor> make_tensors(const ChaosSchedule& s, int rank) {
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

std::vector<std::byte> concat_bytes(const std::vector<Tensor>& tensors) {
  std::vector<std::byte> out;
  for (const Tensor& t : tensors)
    out.insert(out.end(), t.data(), t.data() + t.nbytes());
  return out;
}

struct ScheduleRun {
  WatchdogResult wr;
  std::vector<bool> finished;                   // rank completed the lambda
  std::vector<ResilientResult> res;             // per-rank outcome
  std::vector<std::vector<std::byte>> inputs;   // per-rank original payload
  std::vector<std::vector<std::byte>> results;  // per-rank final payload
  std::vector<int> dead;
  FaultInjector::Stats stats;
  std::uint64_t corruptions = 0;
};

ScheduleRun run_schedule(const ChaosSchedule& s,
                         std::chrono::milliseconds recv_deadline =
                             std::chrono::milliseconds(250),
                         std::chrono::seconds watchdog =
                             std::chrono::seconds(20)) {
  ScheduleRun run;
  const int p = s.world_size;
  run.finished.assign(static_cast<std::size_t>(p), false);
  run.res.resize(static_cast<std::size_t>(p));
  run.inputs.resize(static_cast<std::size_t>(p));
  run.results.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    run.inputs[static_cast<std::size_t>(r)] =
        concat_bytes(make_tensors(s, r));

  World world(p);
  FaultToleranceOptions ft;
  // Long enough that a CI scheduling stall is not mistaken for a dropped
  // message (a spurious timeout would degrade a clean schedule and break
  // the bit-for-bit property); short enough that drop-profile recoveries
  // stay well inside the watchdog budget.
  ft.recv_deadline = recv_deadline;
  ft.max_recovery_attempts = 3;
  world.enable_fault_tolerance(ft);
  world.enable_checksums(true);
  auto injector = std::make_shared<FaultInjector>(p, s.spec);
  world.set_fault_injector(injector);

  std::mutex mutex;
  run.wr = run_with_watchdog(
      world,
      [&](Comm& comm) {
        std::vector<Tensor> tensors = make_tensors(s, comm.rank());
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
        run.res[static_cast<std::size_t>(comm.rank())] = r;
        run.results[static_cast<std::size_t>(comm.rank())] =
            concat_bytes(tensors);
        run.finished[static_cast<std::size_t>(comm.rank())] = true;
      },
      watchdog);
  run.dead = world.dead_ranks();
  run.stats = injector->stats();
  run.corruptions = world.corruptions_detected();
  return run;
}

// The clean-world oracle: same payloads through the copy-based reference.
std::vector<std::byte> reference_result(const ChaosSchedule& s) {
  World world(s.world_size);
  std::vector<std::byte> out;
  std::mutex mutex;
  world.run([&](Comm& comm) {
    std::vector<Tensor> tensors = make_tensors(s, comm.rank());
    if (s.fused) {
      FusionBuffer fusion;
      std::vector<const Tensor*> views;
      for (Tensor& t : tensors) views.push_back(&t);
      FusedTensor& fused = fusion.pack(views);
      adasum_rvh_allreduce_reference(comm, fused.flat, fused.slices);
      std::vector<Tensor*> ptrs;
      for (Tensor& t : tensors) ptrs.push_back(&t);
      fusion.unpack(ptrs);
    } else {
      adasum_rvh_allreduce_reference(comm, tensors[0]);
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      out = concat_bytes(tensors);
    }
  });
  return out;
}

// ---- (a)+(b)+(c): the seeded schedule sweep --------------------------------

TEST(ChaosHarness, SeededSchedulesTerminateAndHoldInvariants) {
  const int schedules = env_int("CHAOS_SCHEDULES", 240);
  const std::uint64_t seed_base =
      static_cast<std::uint64_t>(env_int("CHAOS_SEED_BASE", 1000));

  for (int i = 0; i < schedules; ++i) {
    const ChaosSchedule s = ChaosSchedule::from_seed(seed_base + i);
    SCOPED_TRACE("seed=" + std::to_string(s.seed) + " profile=" +
                 std::to_string(static_cast<int>(s.profile)) + " p=" +
                 std::to_string(s.world_size) + " count=" +
                 std::to_string(s.count) + (s.fp16 ? " fp16" : " fp32") +
                 (s.fused ? " fused" : ""));
    const ScheduleRun run = run_schedule(s);

    // (a) Termination: the watchdog never has to break a deadlock.
    ASSERT_FALSE(run.wr.watchdog_fired);
    if (run.wr.error) {
      // Nothing may escape the resilient wrapper on a surviving rank.
      try {
        std::rethrow_exception(run.wr.error);
      } catch (const std::exception& e) {
        FAIL() << "world.run threw: " << e.what();
      }
    }

    // Survivors: alive ranks must all have completed the collective.
    std::vector<int> survivors;
    for (int r = 0; r < s.world_size; ++r) {
      if (std::find(run.dead.begin(), run.dead.end(), r) != run.dead.end())
        continue;
      ASSERT_TRUE(run.finished[static_cast<std::size_t>(r)]) << "rank " << r;
      survivors.push_back(r);
    }
    ASSERT_FALSE(survivors.empty());

    // Agreement: one uniform outcome, and for completed reductions one
    // uniform payload, across all survivors.
    const ResilientResult& first =
        run.res[static_cast<std::size_t>(survivors.front())];
    for (int r : survivors) {
      const ResilientResult& rr = run.res[static_cast<std::size_t>(r)];
      ASSERT_EQ(static_cast<int>(rr.outcome),
                static_cast<int>(first.outcome))
          << "rank " << r;
      if (rr.outcome == ReduceOutcome::kSkipped) {
        // Snapshot-restore: a skipped round hands back the local input.
        ASSERT_EQ(run.results[static_cast<std::size_t>(r)],
                  run.inputs[static_cast<std::size_t>(r)])
            << "rank " << r;
      } else {
        ASSERT_EQ(run.results[static_cast<std::size_t>(r)],
                  run.results[static_cast<std::size_t>(survivors.front())])
            << "rank " << r;
      }
    }

    // (b) Fault-free schedules (clean, and delay-only: jitter changes no
    // bytes) complete at full strength, bit-for-bit equal to the reference.
    if (s.profile == ChaosSchedule::Profile::kClean ||
        s.profile == ChaosSchedule::Profile::kDelay) {
      ASSERT_EQ(static_cast<int>(first.outcome),
                static_cast<int>(ReduceOutcome::kOk));
      ASSERT_EQ(first.participants, s.world_size);
      ASSERT_EQ(run.results[static_cast<std::size_t>(survivors.front())],
                reference_result(s));
    }

    // (c) Corrupt-only schedules deliver every message (nothing is dropped,
    // held or killed), so the first flipped bit MUST trip a checksum.
    if (s.profile == ChaosSchedule::Profile::kCorrupt &&
        run.stats.corrupted > 0) {
      ASSERT_GT(run.corruptions, 0u);
    }

    // Kill schedules: a fired kill shows up in dead_ranks.
    if (run.stats.killed > 0) {
      ASSERT_NE(std::find(run.dead.begin(), run.dead.end(), s.spec.kill_rank),
                run.dead.end());
    }
  }
}

// ---- targeted regressions --------------------------------------------------

TEST(Chaos, KillOnFirstOpDegradesToExactSurvivorReduction) {
  // kill_after_ops = 0 makes rank 1 die on its very first comm operation —
  // before it sends anything — so the survivor group {0,2,3} and the
  // degraded result (the §3.4 serial tree over the survivors' inputs, in
  // enrollment order) are fully deterministic and checkable bit-for-bit.
  const int p = 4;
  const std::size_t n = 33;
  ChaosSchedule s;
  s.seed = 7;
  s.world_size = p;
  s.count = n;
  World world(p);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::milliseconds(250);
  world.enable_fault_tolerance(ft);
  FaultSpec spec;
  spec.kill_rank = 1;
  spec.kill_after_ops = 0;
  world.set_fault_injector(std::make_shared<FaultInjector>(p, spec));

  std::vector<std::vector<std::byte>> results(p);
  std::vector<ResilientResult> res(p);
  std::mutex mutex;
  const WatchdogResult wr = run_with_watchdog(
      world,
      [&](Comm& comm) {
        std::vector<Tensor> tensors = make_tensors(s, comm.rank());
        AllreduceOptions opts;
        opts.op = ReduceOp::kAdasum;
        opts.algo = AllreduceAlgo::kRvh;
        const ResilientResult r = resilient_allreduce(comm, tensors[0], opts);
        std::lock_guard<std::mutex> lock(mutex);
        res[static_cast<std::size_t>(comm.rank())] = r;
        results[static_cast<std::size_t>(comm.rank())] =
            concat_bytes(tensors);
      },
      std::chrono::seconds(20));
  ASSERT_FALSE(wr.watchdog_fired);
  ASSERT_FALSE(static_cast<bool>(wr.error));
  EXPECT_EQ(world.dead_ranks(), std::vector<int>{1});

  // Host-side expectation: adasum_tree over the survivors' ORIGINAL inputs
  // in enrollment (sorted-rank) order, root first.
  std::vector<Tensor> grads;
  for (int r : {0, 2, 3}) grads.push_back(std::move(make_tensors(s, r)[0]));
  const Tensor expected = adasum_tree(grads);
  const std::vector<std::byte> expected_bytes(
      expected.data(), expected.data() + expected.nbytes());
  for (int r : {0, 2, 3}) {
    EXPECT_EQ(static_cast<int>(res[static_cast<std::size_t>(r)].outcome),
              static_cast<int>(ReduceOutcome::kDegraded))
        << "rank " << r;
    EXPECT_EQ(res[static_cast<std::size_t>(r)].participants, 3);
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected_bytes)
        << "rank " << r;
  }
}

TEST(Chaos, FullCorruptionIsDetectedAndRoundSkipped) {
  // Every message corrupted: every attempt (including recoveries) fails with
  // a DETECTED checksum mismatch, and after max_recovery_attempts the round
  // is skipped with the local input restored intact.
  const int p = 2;
  ChaosSchedule s;
  s.seed = 11;
  s.world_size = p;
  s.count = 64;
  World world(p);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::milliseconds(100);
  ft.max_recovery_attempts = 2;
  world.enable_fault_tolerance(ft);
  world.enable_checksums(true);
  FaultSpec spec;
  spec.corrupt_prob = 1.0;
  world.set_fault_injector(std::make_shared<FaultInjector>(p, spec));

  std::vector<std::vector<std::byte>> results(p);
  std::vector<ResilientResult> res(p);
  std::mutex mutex;
  const WatchdogResult wr = run_with_watchdog(
      world,
      [&](Comm& comm) {
        std::vector<Tensor> tensors = make_tensors(s, comm.rank());
        AllreduceOptions opts;
        opts.op = ReduceOp::kAdasum;
        opts.algo = AllreduceAlgo::kRvh;
        const ResilientResult r = resilient_allreduce(comm, tensors[0], opts);
        std::lock_guard<std::mutex> lock(mutex);
        res[static_cast<std::size_t>(comm.rank())] = r;
        results[static_cast<std::size_t>(comm.rank())] =
            concat_bytes(tensors);
      },
      std::chrono::seconds(20));
  ASSERT_FALSE(wr.watchdog_fired);
  ASSERT_FALSE(static_cast<bool>(wr.error));
  EXPECT_GE(world.corruptions_detected(), 2u);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(static_cast<int>(res[static_cast<std::size_t>(r)].outcome),
              static_cast<int>(ReduceOutcome::kSkipped));
    EXPECT_EQ(res[static_cast<std::size_t>(r)].attempts, 3);  // 1 + 2
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              concat_bytes(make_tensors(s, r)));
  }
}

// ---- chaos at scale-out world sizes ----------------------------------------

TEST(Chaos, SixtyFourRankCleanScheduleMatchesReferenceBitForBit) {
  // The fault-tolerance machinery at a scale-out world size, fault-free:
  // 64 ranks must complete at full strength and reproduce the copy-based
  // reference exactly. Payloads stay small — the point is schedule width
  // (six RVH levels, 64 enrolled voters), not bytes. The recv deadline is
  // generous because 64 simulated ranks oversubscribe a CI box and a
  // descheduled thread must not masquerade as a drop fault; a spurious
  // recovery would still converge, but kOk-at-full-strength is the property
  // under test.
  ChaosSchedule s;
  s.seed = 64641;
  s.world_size = 64;
  s.count = 96;
  const ScheduleRun run = run_schedule(s, std::chrono::milliseconds(2000),
                                       std::chrono::seconds(60));
  ASSERT_FALSE(run.wr.watchdog_fired);
  ASSERT_FALSE(static_cast<bool>(run.wr.error));
  EXPECT_TRUE(run.dead.empty());
  for (int r = 0; r < s.world_size; ++r)
    ASSERT_TRUE(run.finished[static_cast<std::size_t>(r)]) << "rank " << r;
  const std::vector<std::byte> want = reference_result(s);
  for (int r = 0; r < s.world_size; ++r) {
    const ResilientResult& rr = run.res[static_cast<std::size_t>(r)];
    EXPECT_EQ(static_cast<int>(rr.outcome),
              static_cast<int>(ReduceOutcome::kOk))
        << "rank " << r;
    EXPECT_EQ(rr.participants, s.world_size) << "rank " << r;
    ASSERT_EQ(run.results[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
}

TEST(Chaos, SixtyFourRankKillDegradesToSurvivorAgreement) {
  // Kill + degrade at scale: a mid-world rank dies a few operations into a
  // 64-rank collective, with timing jitter layered on top to widen the
  // interleaving space. The 63 survivors must land on one outcome and one
  // payload, inside a hard watchdog — a membership protocol whose stalls
  // compound with world size would blow the budget here long before it
  // showed up at p=8.
  const int p = 64;
  ChaosSchedule s;
  s.seed = 64642;
  s.world_size = p;
  s.count = 96;
  s.profile = ChaosSchedule::Profile::kKill;
  s.spec.seed = s.seed ^ 0x9E3779B97F4A7C15ull;
  s.spec.kill_rank = 37;       // interior rank: both RVH subtrees see the hole
  s.spec.kill_after_ops = 24;  // dies mid-collective, after real traffic
  s.spec.delay_prob = 0.02;
  s.spec.delay_max_us = 50;
  const ScheduleRun run = run_schedule(s, std::chrono::milliseconds(250),
                                       std::chrono::seconds(60));
  ASSERT_FALSE(run.wr.watchdog_fired);
  if (run.wr.error) {
    try {
      std::rethrow_exception(run.wr.error);
    } catch (const std::exception& e) {
      FAIL() << "world.run threw: " << e.what();
    }
  }
  ASSERT_GT(run.stats.killed, 0u);
  EXPECT_EQ(run.dead, std::vector<int>{37});

  std::vector<int> survivors;
  for (int r = 0; r < p; ++r) {
    if (std::find(run.dead.begin(), run.dead.end(), r) != run.dead.end())
      continue;
    ASSERT_TRUE(run.finished[static_cast<std::size_t>(r)]) << "rank " << r;
    survivors.push_back(r);
  }
  ASSERT_EQ(static_cast<int>(survivors.size()), p - 1);

  // With rank 37 dead before the round completed, full strength is
  // unreachable: every survivor must agree on degraded (or, if recoveries
  // were exhausted, skipped-with-input-restored) — never a split verdict.
  const ResilientResult& first =
      run.res[static_cast<std::size_t>(survivors.front())];
  EXPECT_NE(static_cast<int>(first.outcome),
            static_cast<int>(ReduceOutcome::kOk));
  for (int r : survivors) {
    const ResilientResult& rr = run.res[static_cast<std::size_t>(r)];
    ASSERT_EQ(static_cast<int>(rr.outcome), static_cast<int>(first.outcome))
        << "rank " << r;
    if (rr.outcome == ReduceOutcome::kSkipped) {
      ASSERT_EQ(run.results[static_cast<std::size_t>(r)],
                run.inputs[static_cast<std::size_t>(r)])
          << "rank " << r;
    } else {
      ASSERT_EQ(run.results[static_cast<std::size_t>(r)],
                run.results[static_cast<std::size_t>(survivors.front())])
          << "rank " << r;
    }
  }

  // When the common path fires — one clean degrade over the full survivor
  // set — the result is deterministic: the §3.4 serial tree over the
  // survivors' ORIGINAL inputs (snapshots restore them) in enrollment order.
  if (first.outcome == ReduceOutcome::kDegraded &&
      first.participants == p - 1) {
    std::vector<Tensor> grads;
    for (int r : survivors) grads.push_back(std::move(make_tensors(s, r)[0]));
    const Tensor expected = adasum_tree(grads);
    const std::vector<std::byte> expected_bytes(
        expected.data(), expected.data() + expected.nbytes());
    EXPECT_EQ(run.results[static_cast<std::size_t>(survivors.front())],
              expected_bytes);
  }
}

TEST(Chaos, FaultTolerantHotPathAddsNoSteadyStateAllocations) {
  // With fault tolerance and checksums ON but no injector faults, warm
  // resilient rounds must stay allocation-free: the snapshot is pooled, the
  // vote is lock-only, the checksum is computed inline, and the underlying
  // zero-copy collective was already allocation-free.
  World world(4);
  // A generous deadline: on an oversubscribed CI machine a scheduling stall
  // must not masquerade as a fault and trigger a (heap-allocating) recovery.
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::seconds(30);
  world.enable_fault_tolerance(ft);
  world.enable_checksums(true);
  // This gate asserts a property of the analyzer-OFF transport; the analyzer
  // itself allocates (event logs, epoch declarations) by design.
  if (world.analyzer() != nullptr)
    GTEST_SKIP() << "protocol analyzer enabled via ADASUM_ANALYZE";
  std::uint64_t warm_allocs = 0;
  world.run([&](Comm& comm) {
    Tensor t({16384});
    Rng rng(31 + static_cast<std::uint64_t>(comm.rank()));
    for (std::size_t i = 0; i < t.size(); ++i) t.set(i, rng.normal());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    std::uint64_t baseline = 0;
    // Warm-up must reach every capacity high-water mark before the measured
    // window opens, and the peak number of simultaneously-in-flight buffers
    // depends on thread interleaving — organic warm-up cannot
    // deterministically reach it. As in the ZeroCopy tests, provision the
    // pool to the static worst case instead: per rank one full-payload
    // snapshot (the resilient wrapper's restore copy), five half-payload
    // send/scratch leases, and a handful of small dot-triple leases. Grow
    // the mailbox queues too (sends are buffered; erase keeps capacity).
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
    for (int i = 0; i < 6; ++i) resilient_allreduce(comm, t, opts, i * 65536);
    comm.barrier();
    if (comm.rank() == 0) {
      BufferPool& pool = comm.pool();
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < comm.size(); ++i)
        held.push_back(pool.acquire(t.nbytes()));
      for (int i = 0; i < 5 * comm.size(); ++i)
        held.push_back(pool.acquire(t.nbytes() / 2));
      for (int i = 0; i < 8 * comm.size(); ++i)
        held.push_back(pool.acquire(128));
      for (auto& b : held) pool.release(std::move(b));
    }
    comm.barrier();
    if (comm.rank() == 0)
      baseline = g_heap_allocs.load(std::memory_order_relaxed);
    comm.barrier();
    for (int i = 6; i < 12; ++i)
      resilient_allreduce(comm, t, opts, (i % 64) * 65536);
    comm.barrier();
    if (comm.rank() == 0)
      warm_allocs =
          g_heap_allocs.load(std::memory_order_relaxed) - baseline;
  });
  EXPECT_EQ(warm_allocs, 0u);
}

TEST(Chaos, AnalyzerOffPathIsByteAndAllocationIdenticalToSeed) {
  // PR-4 regression: with the protocol analyzer compiled in but NOT enabled,
  // the pure fast path must stay exactly the seed transport — bit-for-bit
  // results against the copy-based reference and zero warm allocations. The
  // analyzer hooks reduce to one null-pointer test per operation.
  ChaosSchedule s;  // clean profile, no injector attached below
  s.seed = 4242;
  s.world_size = 4;
  s.count = 2048;

  World world(s.world_size);
  ASSERT_EQ(world.analyzer(), nullptr)
      << "this regression measures the analyzer-off path";
  std::vector<std::vector<std::byte>> results(
      static_cast<std::size_t>(s.world_size));
  std::uint64_t warm_allocs = 0;
  std::mutex mutex;
  world.run([&](Comm& comm) {
    std::vector<Tensor> tensors = make_tensors(s, comm.rank());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    std::uint64_t baseline = 0;
    // Warm the pool and mailbox capacities, then measure.
    for (int i = 0; i < 4; ++i) {
      std::vector<Tensor> warm = make_tensors(s, comm.rank());
      allreduce(comm, warm[0], opts, i * 65536);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      // Organic warm-up leaves the pool holding whatever peak concurrent
      // demand those four iterations happened to hit — an interleaving
      // accident. Top it up to the schedule's static bound (RVH on 2048
      // floats leases 4 KiB halves, 2 KiB quarters and small control
      // buffers) so the measured iteration cannot miss.
      BufferPool& pool = comm.pool();
      const std::size_t half = (s.count / 2) * sizeof(float);
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < 4 * comm.size(); ++i)
        held.push_back(pool.acquire(half));
      for (int i = 0; i < 2 * comm.size(); ++i)
        held.push_back(pool.acquire(half / 2));
      for (int i = 0; i < 8 * comm.size(); ++i)
        held.push_back(pool.acquire(128));
      for (auto& b : held) pool.release(std::move(b));
    }
    comm.barrier();
    if (comm.rank() == 0)
      baseline = g_heap_allocs.load(std::memory_order_relaxed);
    comm.barrier();
    allreduce(comm, tensors[0], opts, 4 * 65536);
    comm.barrier();
    if (comm.rank() == 0)
      warm_allocs = g_heap_allocs.load(std::memory_order_relaxed) - baseline;
    // Keep every rank's (allocating) concat_bytes out of the measured
    // window: nobody proceeds until rank 0 has read the counter.
    comm.barrier();
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = concat_bytes(tensors);
  });
  EXPECT_EQ(warm_allocs, 0u);
  const std::vector<std::byte> want = reference_result(s);
  for (int r = 0; r < s.world_size; ++r)
    EXPECT_EQ(results[static_cast<std::size_t>(r)], want)
        << "rank " << r << " diverged from the reference";
}

TEST(Chaos, TrainerSurvivesKilledRankAndKeepsLearning) {
  // End-to-end: a rank dies mid-training; the survivors degrade their
  // reductions, the evaluator verdict fails over, and training completes
  // with recorded epochs.
  data::ClusterImageDataset::Options opt;
  opt.num_examples = 256;
  opt.num_classes = 4;
  opt.channels = 1;
  opt.height = 8;
  opt.width = 8;
  opt.noise = 0.6;
  opt.seed = 5;
  const data::ClusterImageDataset train_set(opt);
  opt.num_examples = 128;
  const data::ClusterImageDataset eval_set(opt);

  optim::ConstantLr schedule(0.05);
  train::TrainConfig config;
  config.world_size = 4;
  config.microbatch = 16;
  config.epochs = 3;
  config.dist.op = ReduceOp::kAdasum;
  config.schedule = &schedule;
  config.eval_examples = 64;
  config.fault_tolerant = true;
  config.fault_tolerance.recv_deadline = std::chrono::milliseconds(50);
  FaultSpec spec;
  spec.kill_rank = 2;
  spec.kill_after_ops = 40;  // dies a few communication rounds in
  config.fault_injector = std::make_shared<FaultInjector>(4, spec);
  train::ModelFactory factory = [](Rng& rng) {
    auto net = std::make_unique<nn::Sequential>("net");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Linear>("fc1", 64, 16, rng);
    net->emplace<nn::ReLU>("r");
    net->emplace<nn::Linear>("fc2", 16, 4, rng, true);
    return net;
  };
  const train::TrainResult result =
      train::train_data_parallel(factory, train_set, eval_set, config);
  EXPECT_EQ(result.dead_ranks, std::vector<int>{2});
  ASSERT_FALSE(result.epochs.empty());
  EXPECT_GT(result.degraded_rounds + result.skipped_rounds, 0);
  EXPECT_GT(result.final_accuracy, 0.0);
}

}  // namespace
}  // namespace adasum
