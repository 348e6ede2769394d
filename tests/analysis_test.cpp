// Tests for the communication-protocol analyzer (src/analysis/, DESIGN.md
// §11): the deadlock watchdog, tag-mismatch stall reporting, message-level
// reorder/duplicate detection against the fault injector, recv-after-abort,
// schedule-diff reporting, and clean-run validation of the collectives'
// declared epochs at every world size 2–8.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "base/rng.h"
#include "chaos_util.h"
#include "collectives/allreduce.h"
#include "collectives/hierarchical.h"
#include "comm/fault_injector.h"
#include "comm/world.h"
#include "tensor/tensor.h"

namespace adasum {
namespace {

using analysis::AnalyzerOptions;
using analysis::DeadlockError;
using analysis::ProtocolError;
using analysis::Violation;
using chaos::run_with_watchdog;
using chaos::WatchdogResult;

// Fast watchdog cadence for the tests that provoke a deadlock/stall on
// purpose; the defaults are tuned for oversubscribed CI, not test latency.
AnalyzerOptions fast_options() {
  AnalyzerOptions opts;
  opts.scan_interval = std::chrono::milliseconds(10);
  opts.cycle_grace = std::chrono::milliseconds(50);
  opts.stall_grace = std::chrono::milliseconds(150);
  return opts;
}

bool has_violation(const std::vector<Violation>& violations,
                   Violation::Kind kind) {
  for (const Violation& v : violations)
    if (v.kind == kind) return true;
  return false;
}

TEST(Analysis, EnvironmentVariableEnablesAnalyzer) {
  ASSERT_EQ(setenv("ADASUM_ANALYZE", "on", /*overwrite=*/1), 0);
  {
    World world(2);
    EXPECT_NE(world.analyzer(), nullptr);
  }
  ASSERT_EQ(setenv("ADASUM_ANALYZE", "0", /*overwrite=*/1), 0);
  {
    World world(2);
    EXPECT_EQ(world.analyzer(), nullptr);
  }
  ASSERT_EQ(unsetenv("ADASUM_ANALYZE"), 0);
  {
    World world(2);
    EXPECT_EQ(world.analyzer(), nullptr);
  }
}

TEST(Analysis, WatchdogBreaksRecvRecvDeadlockWithCycleReport) {
  World world(2);
  world.enable_analyzer(fast_options());
  // Classic recv/recv deadlock: each rank waits for a message the other will
  // only send afterwards. Without the analyzer this hangs until the outer
  // test watchdog aborts; with it, the cycle is reported in bounded time.
  const WatchdogResult result = run_with_watchdog(
      world,
      [](Comm& comm) {
        std::vector<std::byte> payload(8);
        if (comm.rank() == 0) {
          comm.recv_bytes(1, /*tag=*/0);
          comm.send_bytes(1, payload, /*tag=*/1);
        } else {
          comm.recv_bytes(0, /*tag=*/1);
          comm.send_bytes(0, payload, /*tag=*/0);
        }
      },
      std::chrono::seconds(20));
  EXPECT_FALSE(result.watchdog_fired)
      << "the analyzer watchdog, not the test harness, must break the cycle";
  ASSERT_NE(result.error, nullptr);
  try {
    std::rethrow_exception(result.error);
  } catch (const DeadlockError& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("wait-for cycle"), std::string::npos) << report;
    EXPECT_NE(report.find("rank 0"), std::string::npos) << report;
    EXPECT_NE(report.find("rank 1"), std::string::npos) << report;
  } catch (...) {
    FAIL() << "expected DeadlockError";
  }
  ASSERT_NE(world.analyzer(), nullptr);
  EXPECT_TRUE(world.analyzer()->deadlock_detected());
  EXPECT_TRUE(
      has_violation(world.analyzer()->violations(), Violation::Kind::kDeadlock));
}

TEST(Analysis, TagMismatchIsReportedAsStallWithChannelState) {
  World world(2);
  world.enable_analyzer(fast_options());
  // Rank 0 sends tag 5 and finishes; rank 1 waits for tag 7 forever. The
  // watchdog must notice rank 1 is blocked on a rank that already finished
  // and describe the channel so the tag mismatch is visible in the report.
  const WatchdogResult result = run_with_watchdog(
      world,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::byte> payload(16);
          comm.send_bytes(1, payload, /*tag=*/5);
        } else {
          comm.recv_bytes(0, /*tag=*/7);
        }
      },
      std::chrono::seconds(20));
  EXPECT_FALSE(result.watchdog_fired);
  ASSERT_NE(result.error, nullptr);
  try {
    std::rethrow_exception(result.error);
  } catch (const DeadlockError& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("already finished"), std::string::npos) << report;
    EXPECT_NE(report.find("tag=7"), std::string::npos) << report;
    EXPECT_NE(report.find("tag 5"), std::string::npos) << report;
  } catch (...) {
    FAIL() << "expected DeadlockError";
  }
  const std::vector<Violation> violations = world.analyzer()->violations();
  EXPECT_TRUE(has_violation(violations, Violation::Kind::kStall));
  // The orphaned tag-5 message also fails the end-of-run channel balance.
  EXPECT_TRUE(
      has_violation(violations, Violation::Kind::kUnbalancedChannel));
}

TEST(Analysis, InjectedReorderIsDetectedAsOvertake) {
  // Find a seed whose channel 0 -> 1 decides [kReorder, kDeliver] for its
  // first two messages: the held first message is released behind the
  // second, so the receiver sees seq 1 before seq 0.
  FaultSpec spec;
  spec.reorder_prob = 0.5;
  std::uint64_t seed = 0;
  bool found = false;
  for (std::uint64_t candidate = 1; candidate < 4096 && !found; ++candidate) {
    spec.seed = candidate;
    FaultInjector probe(2, spec);
    std::vector<std::byte> scratch(8);
    const auto first = probe.on_send(0, 1, scratch);
    const auto second = probe.on_send(0, 1, scratch);
    if (first == FaultInjector::Action::kReorder &&
        second == FaultInjector::Action::kDeliver) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed below 4096 yields [reorder, deliver]";

  World world(2);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::seconds(30);
  world.enable_fault_tolerance(ft);
  spec.seed = seed;
  world.set_fault_injector(std::make_shared<FaultInjector>(2, spec));
  world.enable_analyzer();

  world.run([](Comm& comm) {
    std::vector<std::byte> a(8, std::byte{0xAA});
    std::vector<std::byte> b(8, std::byte{0xBB});
    if (comm.rank() == 0) {
      comm.send_bytes(1, a, /*tag=*/0);
      comm.send_bytes(1, b, /*tag=*/0);
    } else {
      // The swapped deliveries arrive fine at the transport level — only the
      // analyzer's sequence check can tell the order is wrong.
      const std::vector<std::byte> first = comm.recv_bytes(0, /*tag=*/0);
      const std::vector<std::byte> second = comm.recv_bytes(0, /*tag=*/0);
      EXPECT_EQ(first[0], std::byte{0xBB});
      EXPECT_EQ(second[0], std::byte{0xAA});
    }
  });
  ASSERT_NE(world.analyzer(), nullptr);
  EXPECT_TRUE(
      has_violation(world.analyzer()->violations(), Violation::Kind::kOvertake));
  // Observe-only mode (injector attached): recorded, not thrown.
  EXPECT_FALSE(world.analyzer()->deadlock_detected());
}

TEST(Analysis, InjectedDuplicateIsDetectedAsDuplicateDelivery) {
  World world(2);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::seconds(30);
  world.enable_fault_tolerance(ft);
  FaultSpec spec;
  spec.seed = 7;
  spec.duplicate_prob = 1.0;  // every message delivered twice
  world.set_fault_injector(std::make_shared<FaultInjector>(2, spec));
  world.enable_analyzer();

  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> payload(8, std::byte{0x5A});
      comm.send_bytes(1, payload, /*tag=*/3);
    } else {
      // Both copies carry the same channel sequence number.
      comm.recv_bytes(0, /*tag=*/3);
      comm.recv_bytes(0, /*tag=*/3);
    }
  });
  EXPECT_TRUE(has_violation(world.analyzer()->violations(),
                            Violation::Kind::kDuplicateDelivery));
}

TEST(Analysis, RecvAfterAbortIsFlagged) {
  World world(2);
  world.enable_analyzer(fast_options());
  EXPECT_THROW(
      world.run([](Comm& comm) {
        if (comm.rank() == 0) {
          throw std::runtime_error("rank 0 gives up");
        }
        try {
          comm.recv_bytes(0, /*tag=*/1);
        } catch (const WorldAborted&) {
          // Buggy continuation: issuing another operation after the rank has
          // already seen the world abort. The analyzer must flag it.
          try {
            comm.recv_bytes(0, /*tag=*/1);
          } catch (const WorldAborted&) {
          }
          throw;
        }
      }),
      std::runtime_error);
  EXPECT_TRUE(has_violation(world.analyzer()->violations(),
                            Violation::Kind::kRecvAfterAbort));
}

TEST(Analysis, ScheduleMismatchProducesExpectedVsObservedDiff) {
  World world(2);
  world.enable_analyzer(fast_options());
  bool threw = false;
  try {
    world.run([](Comm& comm) {
      // Declare a schedule on purpose at odds with what actually happens:
      // rank 0 claims it will use tag 4 but sends on tag 3.
      analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), "bogus_epoch");
      std::vector<std::byte> payload(8);
      if (comm.rank() == 0) {
        if (epoch.declaring()) epoch.expect().send(1, /*tag=*/4);
        comm.send_bytes(1, payload, /*tag=*/3);
      } else {
        if (epoch.declaring()) epoch.expect().recv(0, /*tag=*/3);
        comm.recv_bytes(0, /*tag=*/3);
      }
    });
  } catch (const ProtocolError& e) {
    threw = true;
    const std::string report = e.what();
    EXPECT_NE(report.find("bogus_epoch"), std::string::npos) << report;
    EXPECT_NE(report.find("declared 1, observed 0"), std::string::npos)
        << report;
  }
  EXPECT_TRUE(threw) << "schedule mismatch must surface as ProtocolError";
  EXPECT_TRUE(has_violation(world.analyzer()->violations(),
                            Violation::Kind::kScheduleMismatch));
}

// One Adasum allreduce under the analyzer, all world sizes 2–8: every
// declared collective epoch must validate, no violations may appear, and the
// result must stay bit-for-bit identical to the analyzer-off run.
TEST(Analysis, CleanAdasumEpochsValidateAtWorldSizes2To8) {
  for (int p = 2; p <= 8; ++p) {
    SCOPED_TRACE("world size " + std::to_string(p));
    const std::size_t count = 257;  // odd, exercises uneven halving

    const auto make_input = [&](int rank) {
      Tensor t({count});
      Rng rng(100 + static_cast<std::uint64_t>(rank));
      for (std::size_t i = 0; i < count; ++i) t.set(i, rng.normal());
      return t;
    };
    const auto reduce_all = [&](World& w) {
      std::vector<Tensor> outs(static_cast<std::size_t>(p));
      w.run([&](Comm& comm) {
        Tensor t = make_input(comm.rank());
        AllreduceOptions opts;
        opts.op = ReduceOp::kAdasum;
        opts.algo = AllreduceAlgo::kAuto;  // RVH, folding non-pow2 groups
        allreduce(comm, t, opts);
        outs[static_cast<std::size_t>(comm.rank())] = std::move(t);
      });
      return outs;
    };

    World analyzed(p);
    analyzed.enable_analyzer();
    const std::vector<Tensor> got = reduce_all(analyzed);

    ASSERT_NE(analyzed.analyzer(), nullptr);
    EXPECT_TRUE(analyzed.analyzer()->violations().empty())
        << analyzed.analyzer()->report();
    EXPECT_GT(analyzed.analyzer()->epochs_validated(), 0u)
        << analyzed.analyzer()->report();

    World plain(p);
    const std::vector<Tensor> want = reduce_all(plain);
    for (int r = 0; r < p; ++r) {
      const Tensor& a = got[static_cast<std::size_t>(r)];
      const Tensor& b = want[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.nbytes(), b.nbytes());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.nbytes()), 0)
          << "analyzer changed the numerics at rank " << r;
    }
  }
}

TEST(Analysis, RingAndHierarchicalEpochsValidate) {
  // Ring at a non-power-of-two size; hierarchical with 2 ranks per node.
  {
    World world(5);
    world.enable_analyzer();
    world.run([](Comm& comm) {
      Tensor t({96});
      Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
      for (std::size_t i = 0; i < t.size(); ++i) t.set(i, rng.normal());
      AllreduceOptions opts;
      opts.op = ReduceOp::kSum;
      opts.algo = AllreduceAlgo::kRing;
      allreduce(comm, t, opts);
    });
    EXPECT_TRUE(world.analyzer()->violations().empty())
        << world.analyzer()->report();
    EXPECT_GT(world.analyzer()->epochs_validated(), 0u);
  }
  {
    World world(8);
    world.enable_analyzer();
    world.run([](Comm& comm) {
      Tensor t({128});
      Rng rng(9 + static_cast<std::uint64_t>(comm.rank()));
      for (std::size_t i = 0; i < t.size(); ++i) t.set(i, rng.normal());
      AllreduceOptions opts;
      opts.op = ReduceOp::kAdasum;
      opts.algo = AllreduceAlgo::kHierarchical;
      opts.ranks_per_node = 2;
      allreduce(comm, t, opts);
    });
    EXPECT_TRUE(world.analyzer()->violations().empty())
        << world.analyzer()->report();
    EXPECT_GT(world.analyzer()->epochs_validated(), 0u);
    // The hierarchical wrapper itself contributes observe-only epochs on top
    // of its phases' validated ones.
    EXPECT_GT(world.analyzer()->epochs_observed(),
              world.analyzer()->epochs_validated());
  }
}

TEST(Analysis, AnalyzerStateResetsBetweenRuns) {
  World world(2);
  world.enable_analyzer(fast_options());
  // First run provokes a stall...
  const WatchdogResult result = run_with_watchdog(
      world,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::byte> payload(8);
          comm.send_bytes(1, payload, /*tag=*/5);
        } else {
          comm.recv_bytes(0, /*tag=*/7);
        }
      },
      std::chrono::seconds(20));
  ASSERT_NE(result.error, nullptr);
  ASSERT_TRUE(world.analyzer()->has_violations());
  // ...and a clean second run on the same world starts from a clean slate.
  world.run([](Comm& comm) {
    std::vector<std::byte> payload(8);
    if (comm.rank() == 0) {
      comm.send_bytes(1, payload, /*tag=*/5);
    } else {
      comm.pool().release(comm.recv_bytes(0, /*tag=*/5));
    }
  });
  EXPECT_FALSE(world.analyzer()->has_violations())
      << world.analyzer()->report();
  EXPECT_FALSE(world.analyzer()->deadlock_detected());
}

}  // namespace
}  // namespace adasum
