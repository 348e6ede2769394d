// Transport conformance suite (DESIGN.md §15): every implementation behind
// comm/transport.h must honor the same delivery contract — buffered sends,
// per-tag FIFO with out-of-order tag matching, queued-match-wins-over-abort,
// reorder holds, drain-to-pool — so the suite runs value-parameterized over
// all registered transports. Zero-copy semantics (view aliasing, the
// consume/fence handshake) are exercised where zero_copy() reports them and
// the copy fallback is pinned where it does not. World-level parity checks
// then assert the collectives are bit-identical across transports, with and
// without the chaos machinery forcing the eager path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "collectives/allreduce.h"
#include "comm/buffer_pool.h"
#include "comm/channel.h"
#include "comm/fault_injector.h"
#include "comm/transport.h"
#include "comm/world.h"
#include "heap_counter.h"
#include "tensor/tensor.h"

namespace adasum {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::byte> payload_of(BufferPool& pool, std::size_t n,
                                  std::byte fill) {
  std::vector<std::byte> p = pool.acquire(n);
  std::memset(p.data(), static_cast<int>(fill), n);
  return p;
}

TransportMeta meta_tag(int tag) {
  TransportMeta m;
  m.tag = tag;
  return m;
}

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Transport> make(int world_size) {
    std::unique_ptr<Transport> t =
        make_transport(GetParam(), world_size, pool_);
    EXPECT_NE(t, nullptr);
    return t;
  }

  BufferPool pool_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> dead_{false};
};

TEST_P(TransportConformance, FactoryNameAndChunkPolicyAreConsistent) {
  std::unique_ptr<Transport> t = make(2);
  EXPECT_STREQ(t->name(), GetParam());
  // Copy transports stream the requested chunks; a zero-copy transport
  // collapses bulk transfers to one monolithic view (transport.h).
  const std::size_t requested = 64 * 1024;
  if (t->zero_copy())
    EXPECT_EQ(t->bulk_chunk_bytes(requested), 0u);
  else
    EXPECT_EQ(t->bulk_chunk_bytes(requested), requested);
  EXPECT_EQ(make_transport("no-such-transport", 2, pool_), nullptr);
}

TEST_P(TransportConformance, PerTagFifoWithOutOfOrderTagMatching) {
  std::unique_ptr<Transport> t = make(2);
  // Interleave two tag streams; each must come out FIFO, and the receiver
  // may pick tags in any order without disturbing the other stream.
  for (int i = 0; i < 4; ++i) {
    t->send(0, 1, meta_tag(7), payload_of(pool_, 8, std::byte{static_cast<unsigned char>(i)}));
    t->send(0, 1, meta_tag(9), payload_of(pool_, 8, std::byte{static_cast<unsigned char>(100 + i)}));
  }
  for (int i = 0; i < 4; ++i) {  // tag 9 first, despite arriving second
    Transport::Inbound in = t->recv(0, 1, 9, aborted_);
    EXPECT_EQ(in.data()[0], std::byte{static_cast<unsigned char>(100 + i)});
    t->release(std::move(in));
  }
  for (int i = 0; i < 4; ++i) {
    Transport::Inbound in = t->recv(0, 1, 7, aborted_);
    EXPECT_EQ(in.data()[0], std::byte{static_cast<unsigned char>(i)});
    t->release(std::move(in));
  }
  EXPECT_EQ(t->pending(0, 1), 0u);
}

TEST_P(TransportConformance, SendNeverBlocksPastFixedSlotCapacity) {
  // 40 same-tag messages with no receiver: more than the shm ring's 16
  // slots, so the overflow parking path must buffer without blocking and
  // still deliver strictly in order.
  std::unique_ptr<Transport> t = make(2);
  const int kMessages = 40;
  for (int i = 0; i < kMessages; ++i)
    t->send(0, 1, meta_tag(3), payload_of(pool_, 16, std::byte{static_cast<unsigned char>(i)}));
  EXPECT_EQ(t->pending(0, 1), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    Transport::Inbound in = t->recv(0, 1, 3, aborted_);
    EXPECT_EQ(in.data()[0], std::byte{static_cast<unsigned char>(i)});
    t->release(std::move(in));
  }
  EXPECT_EQ(t->pending(0, 1), 0u);
}

TEST_P(TransportConformance, HoldParksBehindTheChannelsNextSend) {
  std::unique_ptr<Transport> t = make(2);
  // The reorder fault: the held message is released BEHIND the newcomer.
  t->hold(0, 1, meta_tag(5), payload_of(pool_, 8, std::byte{1}));
  EXPECT_EQ(t->pending(0, 1), 0u);  // parked, not yet deliverable
  t->send(0, 1, meta_tag(5), payload_of(pool_, 8, std::byte{2}));
  Transport::Inbound first = t->recv(0, 1, 5, aborted_);
  EXPECT_EQ(first.data()[0], std::byte{2});
  t->release(std::move(first));
  Transport::Inbound second = t->recv(0, 1, 5, aborted_);
  EXPECT_EQ(second.data()[0], std::byte{1});
  t->release(std::move(second));
  // flush_held releases a parked message even with no newcomer.
  t->hold(0, 1, meta_tag(6), payload_of(pool_, 8, std::byte{3}));
  t->flush_held(0, 1);
  Transport::Inbound flushed = t->recv(0, 1, 6, aborted_);
  EXPECT_EQ(flushed.data()[0], std::byte{3});
  t->release(std::move(flushed));
}

TEST_P(TransportConformance, RecvWaitReportsTimeoutDeathAndQueuedWins) {
  std::unique_ptr<Transport> t = make(2);
  Transport::Inbound out;
  // Nothing queued, live peer: the deadline expires.
  EXPECT_EQ(t->recv_wait(0, 1, 1, aborted_, dead_,
                         Clock::now() + std::chrono::milliseconds(20), out),
            Transport::RecvStatus::kTimeout);
  // Dead peer, nothing queued: reported as such, immediately.
  dead_.store(true);
  EXPECT_EQ(t->recv_wait(0, 1, 1, aborted_, dead_,
                         Clock::now() + std::chrono::seconds(5), out),
            Transport::RecvStatus::kPeerDead);
  // A queued match beats peer death: completed operations complete.
  t->send(0, 1, meta_tag(1), payload_of(pool_, 8, std::byte{42}));
  EXPECT_EQ(t->recv_wait(0, 1, 1, aborted_, dead_,
                         Clock::now() + std::chrono::seconds(5), out),
            Transport::RecvStatus::kOk);
  EXPECT_EQ(out.data()[0], std::byte{42});
  t->release(std::move(out));
  dead_.store(false);
}

TEST_P(TransportConformance, QueuedMatchWinsOverAbortThenAbortThrows) {
  std::unique_ptr<Transport> t = make(2);
  t->send(0, 1, meta_tag(2), payload_of(pool_, 8, std::byte{7}));
  aborted_.store(true);
  t->notify_abort();
  // The queued message is still delivered...
  Transport::Inbound in = t->recv(0, 1, 2, aborted_);
  EXPECT_EQ(in.data()[0], std::byte{7});
  t->release(std::move(in));
  // ...and only an empty channel surfaces the abort.
  EXPECT_THROW(t->recv(0, 1, 2, aborted_), WorldAborted);
  aborted_.store(false);
}

TEST_P(TransportConformance, AbortWakesABlockedReceiver) {
  std::unique_ptr<Transport> t = make(2);
  std::atomic<bool> threw{false};
  std::thread receiver([&]() {
    try {
      Transport::Inbound in = t->recv(0, 1, 11, aborted_);
      t->release(std::move(in));
    } catch (const WorldAborted&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  aborted_.store(true);
  t->notify_abort();
  receiver.join();
  EXPECT_TRUE(threw.load());
  aborted_.store(false);
}

TEST_P(TransportConformance, DrainReturnsUndeliveredPayloadsToThePool) {
  std::unique_ptr<Transport> t = make(3);
  for (int i = 0; i < 5; ++i)
    t->send(0, 1, meta_tag(i), payload_of(pool_, 32, std::byte{0}));
  t->send(2, 1, meta_tag(0), payload_of(pool_, 32, std::byte{0}));
  t->hold(0, 1, meta_tag(99), payload_of(pool_, 32, std::byte{0}));
  pool_.reset_stats();
  EXPECT_EQ(t->drain(0, 1), 6u);  // 5 queued + 1 held
  EXPECT_EQ(t->pending(0, 1), 0u);
  EXPECT_EQ(t->drain_all(), 1u);  // the 2->1 channel
  EXPECT_GE(pool_.stats().releases, 7u);
  // Drained capacity is reused: the next acquires are capacity hits.
  std::vector<std::byte> again = pool_.acquire(32);
  EXPECT_EQ(pool_.stats().allocations, 0u);
  pool_.release(std::move(again));
}

TEST_P(TransportConformance, ViewDeliveryAliasesOrCopiesPerZeroCopyClaim) {
  std::unique_ptr<Transport> t = make(2);
  alignas(64) std::byte source[256];
  std::memset(source, 0xAB, sizeof(source));
  t->send_view(0, 1, meta_tag(4), std::span<const std::byte>(source, 256));
  Transport::Inbound in = t->recv(0, 1, 4, aborted_);
  ASSERT_EQ(in.data().size(), 256u);
  if (t->zero_copy()) {
    // One-sided: the receiver reads the sender's memory itself.
    EXPECT_TRUE(in.is_view);
    EXPECT_EQ(in.data().data(), source);
    // The sender's in-place update is visible through the view (this is what
    // lets reduce kernels run directly over the peer's span).
    source[0] = std::byte{0x11};
    EXPECT_EQ(in.data()[0], std::byte{0x11});
  } else {
    // Copy fallback: the payload was captured at send time; later writes to
    // the source must not leak into the delivered data.
    EXPECT_FALSE(in.is_view);
    source[0] = std::byte{0x11};
    EXPECT_EQ(in.data()[0], std::byte{0xAB});
  }
  t->release(std::move(in));
}

TEST_P(TransportConformance, FenceBlocksUntilEveryPublishedViewIsConsumed) {
  std::unique_ptr<Transport> t = make(2);
  if (!t->zero_copy()) {
    t->fence(0, aborted_);  // must be a no-op on copy transports
    return;
  }
  std::byte source[64];
  std::memset(source, 0x5C, sizeof(source));
  t->send_view(0, 1, meta_tag(8), std::span<const std::byte>(source, 64));
  Transport::Inbound in = t->recv(0, 1, 8, aborted_);
  std::atomic<bool> fenced{false};
  std::thread sender([&]() {
    t->fence(0, aborted_);  // must not return before release(in)
    fenced.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fenced.load());
  t->release(std::move(in));
  sender.join();
  EXPECT_TRUE(fenced.load());
  // An abort must also unblock a fence whose consumer never arrives.
  t->send_view(0, 1, meta_tag(8), std::span<const std::byte>(source, 64));
  std::atomic<bool> threw{false};
  std::thread stuck([&]() {
    try {
      t->fence(0, aborted_);
    } catch (const WorldAborted&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  aborted_.store(true);
  t->notify_abort();
  stuck.join();
  EXPECT_TRUE(threw.load());
  aborted_.store(false);
  t->drain_all();
}

TEST_P(TransportConformance, SteadyStateRoundTripsAreAllocationFree) {
  std::unique_ptr<Transport> t = make(2);
  t->reserve_depth(0, 1, 8);
  // Warm the pool with the payload size, then require pure reuse.
  for (int i = 0; i < 8; ++i)
    t->send(0, 1, meta_tag(1), payload_of(pool_, 1024, std::byte{0}));
  for (int i = 0; i < 8; ++i) t->release(t->recv(0, 1, 1, aborted_));
  pool_.reset_stats();
  for (int iter = 0; iter < 16; ++iter) {
    for (int i = 0; i < 8; ++i)
      t->send(0, 1, meta_tag(1), payload_of(pool_, 1024, std::byte{0}));
    for (int i = 0; i < 8; ++i) t->release(t->recv(0, 1, 1, aborted_));
  }
  EXPECT_EQ(pool_.stats().allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformance,
                         ::testing::Values("mailbox", "shm"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

// ---- world-level parity ----------------------------------------------------

std::vector<float> run_allreduce(const char* transport, int ranks,
                                 std::size_t count, ReduceOp op,
                                 bool with_injector) {
  World world(ranks);
  EXPECT_TRUE(world.set_transport(transport));
  if (with_injector) {
    FaultSpec spec;
    spec.seed = 99;
    spec.delay_prob = 0.05;  // timing jitter only: still bit-for-bit
    spec.delay_max_us = 40;
    world.set_fault_injector(std::make_shared<FaultInjector>(ranks, spec));
  }
  std::vector<float> result(count);
  world.run([&](Comm& comm) {
    Tensor t({count});
    Rng rng(1234 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& v : t.span<float>()) v = static_cast<float>(rng.normal());
    AllreduceOptions opts;
    opts.op = op;
    // kAuto: power-of-two worlds take the RVH zero-copy path, the others the
    // ring / gather-tree fallbacks — all must be transport-agnostic.
    opts.algo = AllreduceAlgo::kAuto;
    allreduce(comm, t, opts, 0);
    if (comm.rank() == 0)
      std::memcpy(result.data(), t.span<float>().data(),
                  count * sizeof(float));
  });
  return result;
}

TEST(TransportParity, CollectivesAreBitIdenticalAcrossTransports) {
  // Every world size in the RVH-relevant range, including the non-power-of-
  // two folds, for both reduction ops: the shm zero-copy schedule must
  // reproduce the mailbox result bit for bit.
  for (const int p : {2, 3, 4, 5, 7, 8}) {
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAdasum}) {
      const std::vector<float> mailbox =
          run_allreduce("mailbox", p, 1000, op, false);
      const std::vector<float> shm = run_allreduce("shm", p, 1000, op, false);
      ASSERT_EQ(std::memcmp(mailbox.data(), shm.data(),
                            mailbox.size() * sizeof(float)),
                0)
          << "p=" << p << " op=" << static_cast<int>(op);
    }
  }
}

TEST(TransportParity, ChaosMachineryForcesTheEagerPathAndStaysBitIdentical) {
  // With a fault injector attached Comm must downgrade bulk sends to eager
  // copies (the injector owns payloads, not views); a delay-only schedule is
  // bit-for-bit, so the downgraded shm path must still match mailbox.
  const std::vector<float> mailbox =
      run_allreduce("mailbox", 4, 512, ReduceOp::kAdasum, true);
  const std::vector<float> shm =
      run_allreduce("shm", 4, 512, ReduceOp::kAdasum, true);
  EXPECT_EQ(std::memcmp(mailbox.data(), shm.data(),
                        mailbox.size() * sizeof(float)),
            0);
}

#if !ADASUM_VERIFY
TEST(VerifyOffParity, SyncLayerOffPathIsByteAndAllocationFree) {
  // With ADASUM_VERIFY=OFF the sync:: wrappers must BE the std primitives:
  // sync.h pins the type sizes with static_asserts at compile time; this
  // gate pins the runtime half — a warm send/recv/release steady state
  // performs zero heap allocations through both transports (any wrapper
  // residue would show up as an extra allocation or a dropped pool reuse)
  // and delivers bit-identical payloads.
  for (const char* name : {"mailbox", "shm"}) {
    SCOPED_TRACE(name);
    BufferPool pool;
    std::unique_ptr<Transport> t = make_transport(name, 2, pool);
    ASSERT_NE(t, nullptr);
    std::atomic<bool> aborted{false};
    const auto roundtrip = [&](int i) {
      std::vector<std::byte> p = pool.acquire(512);
      std::memset(p.data(), i & 0xff, p.size());
      t->send(0, 1, meta_tag(3), std::move(p));
      Transport::Inbound in = t->recv(0, 1, 3, aborted);
      const std::byte got = in.data()[0];
      t->release(std::move(in));
      return got;
    };
    for (int i = 0; i < 8; ++i) roundtrip(i);  // warm pool + ring
    const std::uint64_t baseline =
        g_heap_allocs.load(std::memory_order_relaxed);
    std::byte bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = roundtrip(64 + i);
    const std::uint64_t warm_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - baseline;
    EXPECT_EQ(warm_allocs, 0u);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(bytes[i], std::byte{static_cast<unsigned char>(64 + i)});
  }
}
#endif  // !ADASUM_VERIFY

TEST(TransportParity, UnknownEnvTransportFallsBackToMailbox) {
  // Pin a known starting point first: ADASUM_TRANSPORT may have selected shm
  // at construction (that is exactly how check.sh runs this suite).
  World world(2);
  EXPECT_TRUE(world.set_transport("mailbox"));
  EXPECT_FALSE(world.set_transport("bogus"));
  EXPECT_STREQ(world.transport_name(), "mailbox");
  EXPECT_TRUE(world.set_transport("shm"));
  EXPECT_STREQ(world.transport_name(), "shm");
  EXPECT_TRUE(world.set_transport("mailbox"));
  EXPECT_STREQ(world.transport_name(), "mailbox");
}

}  // namespace
}  // namespace adasum
