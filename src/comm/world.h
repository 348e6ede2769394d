// In-process simulated MPI world.
//
// The paper's Algorithm 1 is written against three primitives: SEND, RECV
// and a (small-payload) group ALLREDUCE. World provides exactly those, with
// each rank running on its own thread and point-to-point messages delivered
// through rendezvous mailboxes. Because the simulator performs the identical
// message pattern and arithmetic a cluster run would, the numerical result
// of every collective built on it is bit-for-bit the distributed result —
// only wall-clock timing is simulated separately (see cost_model.h).
//
// Failure handling: if any rank throws, the world flips an abort flag that
// wakes all blocking receives with WorldAborted, and World::run rethrows the
// first failure — no deadlocks, no detached threads.
//
// Fault model (DESIGN.md §9): three opt-in features turn the happy-path
// simulator into a chaos testbed, all costing nothing when disabled —
//   * enable_fault_tolerance: receives get a deadline (CommTimeout instead
//     of an unbounded wait), a dead peer is reported as PeerFailed, and the
//     world tracks per-rank liveness plus a vote/enroll recovery service the
//     resilient collectives build on (collectives/resilient.h);
//   * set_fault_injector: messages can be delayed, dropped, duplicated,
//     corrupted or reordered, and a designated rank can be killed
//     mid-collective (its thread unwinds with RankKilled, which run()
//     tolerates — surviving ranks keep going);
//   * enable_checksums: every payload carries an FNV checksum, verified on
//     receive; a mismatch throws CommCorrupt.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "comm/buffer_pool.h"
#include "comm/channel.h"
#include "comm/fault_injector.h"
#include "comm/pipeline.h"
#include "comm/transport.h"
#include "tensor/compress/compress.h"

namespace adasum {

class Comm;

// Index of world rank `rank` in `group`, or -1 if it is not a member. An
// empty group stands for the whole world (the index is the rank itself), the
// convention of every collective that takes a rank group.
inline int index_in_group(std::span<const int> group, int rank) {
  if (group.empty()) return rank;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i] == rank) return static_cast<int>(i);
  return -1;
}

// Per-rank traffic statistics, for tests and cost-model validation.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

struct FaultToleranceOptions {
  // Deadline applied to every blocking receive. Past it the receive throws
  // CommTimeout instead of waiting forever on a dead or stalled peer.
  std::chrono::milliseconds recv_deadline{250};
  // Degraded-reduction attempts before a resilient collective gives up and
  // reports kSkipped (collectives/resilient.h).
  int max_recovery_attempts = 4;
};

class World {
 public:
  // Transport, pipelining, compression and the analyzer start from the
  // runtime configuration (base/runtime_config.h); the setters below
  // override them between runs for tests and benches.
  explicit World(int size);

  int size() const { return size_; }

  // Runs `fn(comm)` on `size` threads, one per rank. Blocks until all ranks
  // finish. Rethrows the first rank failure (by rank order). RankKilled is
  // tolerated, not rethrown: a killed rank simply stops participating and
  // shows up in dead_ranks() afterwards.
  void run(const std::function<void(Comm&)>& fn);

  // Aggregated traffic stats from the last run(), indexed by rank.
  const std::vector<CommStats>& stats() const { return stats_; }

  // Shared payload/scratch recycling pool (see buffer_pool.h). Every message
  // body and every collective workspace is leased from here, so warm
  // iterations of a collective allocate nothing.
  BufferPool& buffer_pool() { return pool_; }

  // ---- transport (DESIGN.md §15; see comm/transport.h) -------------------
  // The point-to-point mechanism under every send/recv: "mailbox" (the
  // buffered default) or "shm" (the one-sided zero-copy path). Returns false
  // (and keeps the current transport) for an unknown name.
  bool set_transport(std::string_view name);
  const char* transport_name() const { return transport_->name(); }

  // ---- fault model (all off by default; see header comment) --------------
  void enable_fault_tolerance(FaultToleranceOptions options = {});
  bool fault_tolerant() const { return ft_enabled_; }

  // Attach (or clear, with nullptr) the fault injector applied to every
  // message and comm op of subsequent runs.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  FaultInjector* fault_injector() { return injector_.get(); }

  // ---- protocol analyzer (DESIGN.md §11; debug opt-in) -------------------
  // Attaches the communication-protocol analyzer to all subsequent runs:
  // non-overtaking/duplicate detection on every message, a deadlock
  // watchdog, per-collective schedule validation and end-of-run channel
  // balance.
  void enable_analyzer(analysis::AnalyzerOptions options = {});
  analysis::ProtocolAnalyzer* analyzer() { return analyzer_.get(); }

  // ---- chunked pipelining (DESIGN.md §12; see comm/pipeline.h) -----------
  // Chunk-streaming configuration for the collectives.
  void set_pipeline(PipelineOptions options) { pipeline_ = options; }
  const PipelineOptions& pipeline() const { return pipeline_; }

  // ---- wire compression (DESIGN.md §13; see tensor/compress/compress.h) --
  // Default compression mode for the collectives' transferred payloads;
  // AllreduceOptions can override per call.
  void set_compression(CompressionOptions options) { compression_ = options; }
  const CompressionOptions& compression() const { return compression_; }

  void enable_checksums(bool on) { checksums_ = on; }
  // Checksum mismatches caught on receive (across all runs).
  std::uint64_t corruptions_detected() const {
    return corruptions_detected_.load(std::memory_order_relaxed);
  }

  // Liveness of the current/last run. All ranks are alive outside a run.
  bool alive(int rank) const {
    return !dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  int alive_count() const {
    return alive_count_.load(std::memory_order_acquire);
  }
  std::vector<int> dead_ranks() const;

  // Watchdog hook: force every blocked operation to unwind with WorldAborted
  // so run() can return even if the schedule under test deadlocked.
  void request_abort();

 private:
  friend class Comm;
  friend class BulkRecv;

  // Any feature routing send/recv off the seed fast path?
  bool chaos() const {
    return ft_enabled_ || checksums_ || injector_ != nullptr;
  }

  // Is the protocol analyzer observing this world? One null test per
  // operation when it is not.
  bool analyzed() const { return analyzer_ != nullptr; }

  // Called by a dying rank (fault-injector kill) before it unwinds: flips
  // the liveness flag, releases anything it held "on the wire", and
  // completes any barrier/vote/enrollment now only waiting on the corpse.
  void on_rank_death(int rank);

  // Recovery synchronisation (used via Comm; see resilient.h): a vote is a
  // barrier over the currently-alive ranks that ORs a failure flag; an
  // enrollment is the same barrier returning an agreed snapshot of the alive
  // set. Both are world-mediated (no messages), modeling the reliable
  // control plane real deployments run membership over.
  bool vote_failure(bool local_failure);
  void recovery_enroll(std::vector<int>& group_out);
  bool finish_vote_locked();    // caller holds sync_mutex_
  void finish_enroll_locked();  // caller holds sync_mutex_

  int size_;
  std::vector<CommStats> stats_;
  BufferPool pool_;
  std::unique_ptr<Transport> transport_;
  std::atomic<bool> aborted_{false};

  // Sense-reversing central barrier state.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;

  PipelineOptions pipeline_;
  CompressionOptions compression_;

  // Fault-model state.
  bool ft_enabled_ = false;
  FaultToleranceOptions ft_;
  bool checksums_ = false;
  std::shared_ptr<FaultInjector> injector_;
  std::unique_ptr<analysis::ProtocolAnalyzer> analyzer_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<int> alive_count_;
  std::atomic<std::uint64_t> corruptions_detected_{0};

  // Vote/enrollment state (generation-stamped barriers over alive ranks).
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  int vote_count_ = 0;
  bool vote_fail_ = false;
  bool last_vote_result_ = false;
  std::uint64_t vote_generation_ = 0;
  int enroll_count_ = 0;
  std::uint64_t enroll_generation_ = 0;
  std::vector<int> recovery_group_;
};

// RAII handle to one received bulk message: the delivered message itself,
// read in place. On a zero-copy transport data() aliases the SENDER's
// buffer and destruction (or release()) retires the view so the sender's
// Comm::bulk_fence can complete; on an eager transport it holds the pooled
// payload of a monolithic transfer and destruction returns it to the pool.
// A chunked eager stream was deposited into the receiver's scratch and this
// handle is empty. Must not outlive the World::run that produced it.
class BulkRecv {
 public:
  BulkRecv() = default;
  BulkRecv(World* world, Transport::Inbound in)
      : world_(world), in_(std::move(in)), live_(true) {}
  BulkRecv(BulkRecv&& other) noexcept
      : world_(other.world_), in_(std::move(other.in_)), live_(other.live_) {
    other.live_ = false;
  }
  BulkRecv& operator=(BulkRecv&& other) noexcept {
    if (this != &other) {
      release();
      world_ = other.world_;
      in_ = std::move(other.in_);
      live_ = other.live_;
      other.live_ = false;
    }
    return *this;
  }
  BulkRecv(const BulkRecv&) = delete;
  BulkRecv& operator=(const BulkRecv&) = delete;
  ~BulkRecv() { release(); }

  // Retires the message early (views unblock the sender's fence). Idempotent.
  void release() {
    if (live_) {
      world_->transport_->release(std::move(in_));
      live_ = false;
    }
  }

  std::span<const std::byte> data() const { return in_.data(); }

 private:
  World* world_ = nullptr;
  Transport::Inbound in_;
  bool live_ = false;
};

// Handle a rank uses to communicate. Valid only inside World::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  // Buffered send: copies `data` into a pool-recycled payload, never blocks.
  void send_bytes(int dst, std::span<const std::byte> data, int tag = 0);
  // Zero-copy send: hands `payload` to the mailbox as-is. The buffer need
  // not come from the pool (the receive side decides whether it returns
  // there); used by callers that fill a payload in place.
  void send_bytes_owned(int dst, std::vector<std::byte> payload, int tag = 0);
  // Blocks until a message with `tag` from `src` arrives. The returned
  // buffer leaves the pool; prefer recv_bytes_into on hot paths. In
  // fault-tolerant mode the wait is bounded by the world's recv deadline
  // (CommTimeout past it, PeerFailed if `src` is dead with nothing queued).
  std::vector<std::byte> recv_bytes(int src, int tag = 0);
  // Blocks like recv_bytes but deposits the payload directly into `dest`
  // (which must match the message size exactly) and recycles the payload
  // buffer into the world's pool — the allocation-free receive path.
  void recv_bytes_into(int src, std::span<std::byte> dest, int tag = 0);
  // Streams `data` to `dst` as `chunk_bytes`-sized messages, all on `tag`
  // (the mailbox's per-(src,dst,tag) FIFO keeps the stream ordered).
  // chunk_bytes == 0 — or a payload no larger than one chunk — degenerates
  // to a single send_bytes: the monolithic message pattern. The stream is
  // chunk_messages(data.size(), chunk_bytes) messages; the matching receive
  // must split with the same chunk size.
  void send_chunks(int dst, std::span<const std::byte> data,
                   std::size_t chunk_bytes, int tag = 0);
  // Receives the stream produced by a matching send_chunks into `dest`,
  // invoking on_chunk(offset_bytes, len_bytes) after each chunk lands — the
  // hook is where the pipelined collectives overlap their reduction of chunk
  // i with the transfer of chunk i+1. With chunk_bytes == 0 the hook fires
  // once for the whole payload, so one code path serves both modes.
  template <typename OnChunk>
  void recv_chunks_into(int src, std::span<std::byte> dest,
                        std::size_t chunk_bytes, int tag, OnChunk&& on_chunk) {
    if (chunk_bytes == 0 || dest.size() <= chunk_bytes) {
      recv_bytes_into(src, dest, tag);
      on_chunk(std::size_t{0}, dest.size());
      return;
    }
    for (std::size_t off = 0; off < dest.size(); off += chunk_bytes) {
      const std::size_t len = std::min(chunk_bytes, dest.size() - off);
      recv_bytes_into(src, dest.subspan(off, len), tag);
      on_chunk(off, len);
    }
  }
  void recv_chunks_into(int src, std::span<std::byte> dest,
                        std::size_t chunk_bytes, int tag = 0) {
    recv_chunks_into(src, dest, chunk_bytes, tag,
                     [](std::size_t, std::size_t) {});
  }

  // ---- bulk transfers (DESIGN.md §15) ------------------------------------
  // The collectives' large-payload path. On a zero-copy transport (and only
  // with the fault machinery off — an injector must own a payload to
  // drop/corrupt it, and a checksum needs a stable copy) a bulk send
  // publishes a VIEW of the sender's buffer and the receiver's kernels
  // reduce directly over the peer's memory; otherwise it degrades to the
  // eager chunk-streamed copies of send_chunks/recv_chunks_into. Protocol:
  // every send_bulk must be matched by recv_bulk/recv_bulk_into with the
  // same chunk size, and each rank must call bulk_fence() before reusing a
  // buffer it published (the collectives fence once per collective).
  bool bulk_zero_copy() const {
    return world_->transport_->zero_copy() && !world_->chaos();
  }
  // The chunk size a bulk transfer will ACTUALLY use: `requested` on the
  // eager path, the transport's answer (0 — monolithic — for zero-copy) when
  // views are live. Collectives resolve their chunking through this so their
  // EpochGuard schedule declarations match the real message count.
  std::size_t bulk_chunk_bytes(std::size_t requested) const {
    return bulk_zero_copy() ? world_->transport_->bulk_chunk_bytes(requested)
                            : requested;
  }
  // Sends `data` as one view (zero-copy) or as chunk-streamed copies. The
  // caller must keep `data` stable until bulk_fence() returns.
  void send_bulk(int dst, std::span<const std::byte> data,
                 std::size_t chunk_bytes, int tag = 0);
  // True when a recv_bulk of `bytes` in `chunk_bytes` chunks reads ONE
  // delivered message in place and never writes its scratch: always on a
  // zero-copy transport (the peer's view), and on the eager path whenever
  // the transfer is monolithic (chunk_bytes == 0 or the bytes fit a chunk).
  bool bulk_in_place(std::size_t bytes, std::size_t chunk_bytes) const {
    return bulk_zero_copy() || chunk_bytes == 0 || bytes <= chunk_bytes;
  }
  // Receives a matching send_bulk of `bytes`. A chunked eager stream lands
  // in `scratch` (`bytes` long; may be null when bulk_in_place) chunk by
  // chunk. Otherwise the one message is read where it was delivered — the
  // peer's published span, or the pooled payload of an eager transfer — and
  // `scratch` is untouched. Either way on_data(base, off, len) fires per
  // chunk with base+off addressing the bytes — reduce from there, NOT from
  // `scratch`, to be transport-agnostic. The returned handle keeps base
  // valid after this returns (for reads that must happen later, e.g. the
  // combiner after a dot allreduce); drop it as soon as the last read is
  // done so the sender's fence can retire a view and the payload returns to
  // the pool. A size mismatch fails like recv_bytes_into.
  template <typename OnData>
  [[nodiscard]] BulkRecv recv_bulk(int src, std::size_t bytes,
                                   std::byte* scratch, std::size_t chunk_bytes,
                                   int tag, OnData&& on_data) {
    if (!bulk_in_place(bytes, chunk_bytes)) {
      ADASUM_CHECK(scratch != nullptr);
      recv_chunks_into(src, {scratch, bytes}, chunk_bytes, tag,
                       [&](std::size_t off, std::size_t len) {
                         on_data(static_cast<const std::byte*>(scratch), off,
                                 len);
                       });
      return BulkRecv();
    }
    BulkRecv held(world_, recv_inbound(src, tag));
    const std::size_t got = held.data().size();
    if (got != bytes) {
      held.release();
      fail_size(src, tag, got, bytes);
    }
    on_data(held.data().data(), std::size_t{0}, got);
    return held;
  }
  // Receives a matching send_bulk directly into `dest` (the allgather /
  // unwind pattern, where the bytes must persist in the receiver's own
  // buffer): one memcpy from the view on zero-copy transports, the usual
  // chunk stream otherwise.
  void recv_bulk_into(int src, std::span<std::byte> dest,
                      std::size_t chunk_bytes, int tag = 0);
  // Blocks until every view this rank published has been consumed, making
  // its buffers safe to reuse. No-op on buffered transports.
  void bulk_fence();

  // Chunking configuration of the world (comm/pipeline.h); collectives ask
  // pipeline().chunk_bytes_for(elem) for their transfer granularity.
  const PipelineOptions& pipeline() const { return world_->pipeline_; }

  // World-default wire compression (tensor/compress/compress.h); the
  // collectives resolve AllreduceOptions::compression == kAuto against it.
  const CompressionOptions& compression() const { return world_->compression_; }

  // Bounded receive with an explicit deadline: nullopt on timeout, throws
  // PeerFailed/CommCorrupt/WorldAborted like recv_bytes. The mailbox stays
  // fully usable after a timeout.
  std::optional<std::vector<std::byte>> try_recv_bytes_for(
      int src, std::chrono::milliseconds timeout, int tag = 0);

  template <typename T>
  void send(int dst, std::span<const T> data, int tag = 0) {
    send_bytes(dst,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size_bytes()},
               tag);
  }

  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    const std::vector<std::byte> raw = recv_bytes(src, tag);
    ADASUM_CHECK_EQ(raw.size() % sizeof(T), 0u);
    std::vector<T> out(raw.size() / sizeof(T));
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // Exchange with a peer: send `data`, then receive the peer's message.
  // Sends are buffered, so the symmetric call pattern cannot deadlock.
  template <typename T>
  std::vector<T> exchange(int peer, std::span<const T> data, int tag = 0) {
    send(peer, data, tag);
    return recv<T>(peer, tag);
  }

  // Barrier across the ALIVE ranks of the world (all ranks, when no fault
  // injector has killed any).
  void barrier();

  // Elementwise sum-allreduce of a small double vector across `group`
  // (a list of ranks that all call this with the same group and value
  // count). This is the ALLREDUCE primitive of Algorithm 1 line 17, used for
  // the partial dot-product triples. Implemented with recursive doubling
  // when |group| is a power of two, gather+broadcast otherwise.
  std::vector<double> allreduce_sum_doubles(std::span<const double> values,
                                            std::span<const int> group,
                                            int tag = 0);

  // In-place variant: `values` is reduced where it sits, and all receive
  // staging comes from the world's pool, so warm calls are allocation-free.
  // This is the form the collectives use for their per-level dot-product
  // triples (Algorithm 1 line 17).
  void allreduce_sum_doubles_inplace(std::span<double> values,
                                     std::span<const int> group, int tag = 0);

  // ---- fault-tolerance surface (see collectives/resilient.h) -------------
  bool fault_tolerant() const { return world_->ft_enabled_; }
  int max_recovery_attempts() const { return world_->ft_.max_recovery_attempts; }
  bool alive(int rank) const { return world_->alive(rank); }
  int lowest_alive() const;
  // Barrier over alive ranks ORing a failure flag; uniform result everywhere.
  bool vote_failure(bool local_failure) {
    return world_->vote_failure(local_failure);
  }
  // Barrier over alive ranks agreeing on the (sorted) survivor group.
  void recovery_enroll(std::vector<int>& group_out) {
    world_->recovery_enroll(group_out);
  }
  // Purges every message addressed to this rank (payloads return to the
  // pool). Only safe while all survivors are quiesced between recovery
  // barriers — see resilient.cpp.
  void drain_inboxes();

  BufferPool& pool() { return world_->pool_; }

  // Provisions the outgoing channel to `dst` for `depth` queued messages.
  // Ring collectives call this with their run-ahead bound (a sender can run
  // group-size steps ahead of a descheduled receiver) so the queue reaches
  // its steady-state capacity deterministically instead of growing — and
  // allocating — whenever the scheduler happens to starve a receiver.
  void reserve_channel_depth(int dst, std::size_t depth) {
    world_->transport_->reserve_depth(rank_, dst, depth);
  }

  // Protocol analyzer handle for collective epoch declarations
  // (analysis::EpochGuard); null whenever the analyzer is not observing.
  analysis::ProtocolAnalyzer* analyzer() { return world_->analyzer_.get(); }

  CommStats& stats() { return world_->stats_[rank_]; }

  // Forwarded World::request_abort, for owners of helper threads (the
  // background CommEngine) that must wake a blocked worker before joining it
  // on an exceptional unwind.
  void request_abort() { world_->request_abort(); }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  // Ticks the fault injector's kill counter for this rank; on the fatal op,
  // marks the rank dead and unwinds with RankKilled.
  void maybe_kill();
  // Transport-level receive: seed fast path or the chaos path below,
  // depending on the world's mode. The Inbound must be retired exactly once
  // (transport release, or take_payload moving the buffer out).
  Transport::Inbound recv_inbound(int src, int tag);
  // Slow-path receive honoring deadline / liveness / checksum / analyzer.
  Transport::Inbound chaos_recv_inbound(
      int src, int tag, std::chrono::steady_clock::time_point deadline);
  // A received message of `got` bytes where `want` were expected, already
  // retired: CommProtocol under fault tolerance, a failed CHECK otherwise.
  void fail_size(int src, int tag, std::size_t got, std::size_t want);
  // Extracts an owned payload from an Inbound (materializing a copy in the
  // view case), retiring the Inbound.
  std::vector<std::byte> take_payload(Transport::Inbound&& in);

  World* world_;
  int rank_;
};

}  // namespace adasum
