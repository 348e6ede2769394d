#include "comm/world.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "base/runtime_config.h"

namespace adasum {

std::size_t Mailbox::drain_into(BufferPool& pool) {
  std::vector<Message> stale;
  std::vector<Message> stale_held;
  {
    sync::lock_guard<sync::mutex> lock(mutex_);
    stale.swap(queue_);
    stale_held.swap(held_);
  }
  const std::size_t n = stale.size() + stale_held.size();
  for (auto& m : stale) pool.release(std::move(m.payload));
  for (auto& m : stale_held) pool.release(std::move(m.payload));
  return n;
}

World::World(int size) : size_(size) {
  ADASUM_CHECK_GE(size, 1);
  stats_.resize(size);
  dead_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    dead_[r].store(false, std::memory_order_relaxed);
  alive_count_.store(size, std::memory_order_relaxed);
  // Scale the buffer-pool free list with the world: one collective round at
  // p ranks retires several payload/scratch buffers per rank, and a cap
  // below that sheds (and next round re-allocates) buffers forever.
  pool_.set_max_free_buffers(
      std::max<std::size_t>(256, 16 * static_cast<std::size_t>(size)));
  // Seeded from the ADASUM_* variables, so any binary runs under them as is.
  const RuntimeConfig config = RuntimeConfig::from_env();
  transport_ = make_transport(config.transport, size, pool_);
  pipeline_ = {config.pipeline, config.chunk_bytes};
  compression_.mode = config.compress;
  compression_.block_bytes = config.compress_block;
  if (config.analyze) enable_analyzer();
}

// The configuration's size defaults are the option structs' defaults.
static_assert(RuntimeConfig{}.chunk_bytes == PipelineOptions{}.chunk_bytes &&
              RuntimeConfig{}.compress_block ==
                  CompressionOptions{}.block_bytes);

void World::enable_analyzer(analysis::AnalyzerOptions options) {
  analyzer_ = std::make_unique<analysis::ProtocolAnalyzer>(
      size_, options, [this]() { request_abort(); });
}

void World::enable_fault_tolerance(FaultToleranceOptions options) {
  ADASUM_CHECK_GE(options.max_recovery_attempts, 1);
  ft_enabled_ = true;
  ft_ = options;
}

std::vector<int> World::dead_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size_; ++r)
    if (!alive(r)) out.push_back(r);
  return out;
}

bool World::set_transport(std::string_view name) {
  std::unique_ptr<Transport> t = make_transport(name, size_, pool_);
  if (t == nullptr) return false;
  transport_ = std::move(t);
  return true;
}

void World::request_abort() {
  aborted_.store(true);
  transport_->notify_abort();
  { std::lock_guard<std::mutex> lock(barrier_mutex_); }
  barrier_cv_.notify_all();
  { std::lock_guard<std::mutex> lock(sync_mutex_); }
  sync_cv_.notify_all();
}

void World::run(const std::function<void(Comm&)>& fn) {
  aborted_.store(false);
  barrier_count_ = 0;
  barrier_generation_ = 0;
  stats_.assign(size_, CommStats{});
  for (int r = 0; r < size_; ++r)
    dead_[r].store(false, std::memory_order_relaxed);
  alive_count_.store(size_, std::memory_order_relaxed);
  vote_count_ = 0;
  vote_fail_ = false;
  vote_generation_ = 0;
  enroll_count_ = 0;
  enroll_generation_ = 0;
  if (analyzer_ != nullptr) {
    // Injected faults legitimately break schedules and channel balance, so
    // they downgrade the analyzer's strict checks to observe-only.
    analyzer_->begin_run(/*faults_possible=*/injector_ != nullptr);
  }

  std::vector<std::exception_ptr> errors(size_);
  std::vector<std::thread> threads;
  threads.reserve(size_);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, &fn, &errors, r]() {
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (const RankKilled&) {
        // An injected kill: the rank already deregistered itself
        // (on_rank_death) before unwinding. The survivors keep running.
      } catch (...) {
        errors[r] = std::current_exception();
        request_abort();
      }
      // Every exit path (clean return, kill, error) makes the rank "done":
      // the watchdog uses this to tell a transient wait from a stall on a
      // peer that can never send again.
      if (analyzer_ != nullptr) analyzer_->on_rank_done(r);
    });
  }
  for (auto& t : threads) t.join();

  const bool had_deaths = alive_count_.load(std::memory_order_acquire) != size_;
  std::exception_ptr first_error;
  for (int r = 0; r < size_ && !first_error; ++r)
    if (errors[r]) first_error = errors[r];

  const bool analyzer_on = analyzer_ != nullptr;
  if (analyzer_on) analyzer_->end_run();
  const bool analyzer_violations = analyzer_on && analyzer_->has_violations();
  const bool injected_message_faults =
      injector_ != nullptr && injector_->spec().any_message_faults();
  if (first_error != nullptr || had_deaths || injected_message_faults ||
      analyzer_violations) {
    // A failed or degraded run leaves undelivered (and reorder-held)
    // messages behind — and an injector that duplicates or reorders can
    // leave strays even when every rank finishes cleanly. Return every
    // payload to the pool — rather than rebuilding the mailboxes — so the
    // next run starts clean without bleeding buffers out of the
    // steady-state recycling set.
    transport_->drain_all();
  }
  if (analyzer_on) {
    // Surface analyzer findings only when they are the most specific story:
    // a real rank error (anything but the secondary WorldAborted unwinds the
    // analyzer's own abort caused) takes precedence.
    bool surface = first_error == nullptr;
    if (!surface) {
      try {
        std::rethrow_exception(first_error);
      } catch (const WorldAborted&) {
        surface = true;
      } catch (...) {
      }
    }
    if (surface && analyzer_->strict()) {
      if (analyzer_->deadlock_detected())
        throw analysis::DeadlockError(analyzer_->report());
      if (analyzer_->options().fail_fast && analyzer_->has_violations())
        throw analysis::ProtocolError(analyzer_->report());
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void World::on_rank_death(int rank) {
  dead_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
  alive_count_.fetch_sub(1, std::memory_order_acq_rel);
  // Whatever the dead rank had "on the wire" still arrives: release any
  // reorder-held message on its outgoing channels, then wake every blocked
  // receive so waits on the corpse turn into PeerFailed.
  for (int dst = 0; dst < size_; ++dst)
    if (dst != rank) transport_->flush_held(rank, dst);
  transport_->notify_abort();
  // A barrier / vote / enrollment that was only waiting on the dead rank is
  // now complete for the survivors — finish it on their behalf.
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    if (barrier_count_ > 0 &&
        barrier_count_ >= alive_count_.load(std::memory_order_acquire)) {
      barrier_count_ = 0;
      ++barrier_generation_;
    }
  }
  barrier_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    const int alive_now = alive_count_.load(std::memory_order_acquire);
    if (vote_count_ > 0 && vote_count_ >= alive_now) finish_vote_locked();
    if (enroll_count_ > 0 && enroll_count_ >= alive_now)
      finish_enroll_locked();
  }
  sync_cv_.notify_all();
}

bool World::finish_vote_locked() {
  last_vote_result_ = vote_fail_;
  vote_fail_ = false;
  vote_count_ = 0;
  ++vote_generation_;
  sync_cv_.notify_all();
  return last_vote_result_;
}

void World::finish_enroll_locked() {
  recovery_group_.clear();
  for (int r = 0; r < size_; ++r)
    if (alive(r)) recovery_group_.push_back(r);
  enroll_count_ = 0;
  ++enroll_generation_;
  sync_cv_.notify_all();
}

bool World::vote_failure(bool local_failure) {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  vote_fail_ = vote_fail_ || local_failure;
  const std::uint64_t generation = vote_generation_;
  if (++vote_count_ >= alive_count_.load(std::memory_order_acquire))
    return finish_vote_locked();
  sync_cv_.wait(lock, [&]() {
    return vote_generation_ != generation || aborted_.load();
  });
  if (vote_generation_ == generation) throw WorldAborted();
  return last_vote_result_;
}

void World::recovery_enroll(std::vector<int>& group_out) {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  const std::uint64_t generation = enroll_generation_;
  if (++enroll_count_ >= alive_count_.load(std::memory_order_acquire)) {
    finish_enroll_locked();
  } else {
    sync_cv_.wait(lock, [&]() {
      return enroll_generation_ != generation || aborted_.load();
    });
    if (enroll_generation_ == generation) throw WorldAborted();
  }
  group_out = recovery_group_;
}

void Comm::maybe_kill() {
  FaultInjector* injector = world_->injector_.get();
  if (injector == nullptr || !injector->should_kill(rank_)) return;
  world_->on_rank_death(rank_);
  throw RankKilled(rank_);
}

void Comm::send_bytes(int dst, std::span<const std::byte> data, int tag) {
  std::vector<std::byte> payload = world_->pool_.acquire(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  send_bytes_owned(dst, std::move(payload), tag);
}

void Comm::send_chunks(int dst, std::span<const std::byte> data,
                       std::size_t chunk_bytes, int tag) {
  if (chunk_bytes == 0 || data.size() <= chunk_bytes) {
    send_bytes(dst, data, tag);
    return;
  }
  for (std::size_t off = 0; off < data.size(); off += chunk_bytes)
    send_bytes(dst, data.subspan(off, std::min(chunk_bytes, data.size() - off)),
               tag);
}

void Comm::send_bytes_owned(int dst, std::vector<std::byte> payload, int tag) {
  ADASUM_CHECK_GE(dst, 0);
  ADASUM_CHECK_LT(dst, size());
  ADASUM_CHECK_NE(dst, rank_);
  const std::size_t bytes = payload.size();
  Transport& tr = *world_->transport_;
  if (!world_->chaos() && !world_->analyzed()) {
    // Seed fast path: untouched by the fault and analysis machinery.
    if (world_->aborted_.load()) throw WorldAborted();
    TransportMeta meta;
    meta.tag = tag;
    tr.send(rank_, dst, meta, std::move(payload));
  } else {
    maybe_kill();
    if (world_->aborted_.load()) throw WorldAborted();
    TransportMeta meta;
    meta.tag = tag;
    // Stamp the channel sequence number after the kill/abort gates so every
    // logged send corresponds to a message that actually reached the wire
    // (or the injector, which counts: drops break balance only in runs where
    // the strict checks are already downgraded).
    if (world_->analyzed())
      meta.seq = world_->analyzer_->on_send(rank_, dst, tag, bytes);
    // The checksum is computed BEFORE the injector gets at the payload, so a
    // wire corruption is a mismatch the receiver can detect.
    meta.checked = world_->checksums_;
    meta.checksum = meta.checked
                        ? payload_checksum(payload.data(), payload.size())
                        : 0;
    FaultInjector::Action action = FaultInjector::Action::kDeliver;
    if (world_->injector_ != nullptr)
      action = world_->injector_->on_send(rank_, dst, payload);
    switch (action) {
      case FaultInjector::Action::kDrop:
        world_->pool_.release(std::move(payload));
        break;
      case FaultInjector::Action::kDuplicate: {
        std::vector<std::byte> copy = world_->pool_.acquire(payload.size());
        if (!payload.empty())
          std::memcpy(copy.data(), payload.data(), payload.size());
        // Both deliveries carry the SAME sequence number — exactly what the
        // receive-side duplicate check keys on.
        tr.send(rank_, dst, meta, std::move(payload));
        tr.send(rank_, dst, meta, std::move(copy));
        break;
      }
      case FaultInjector::Action::kReorder:
        tr.hold(rank_, dst, meta, std::move(payload));
        break;
      case FaultInjector::Action::kDeliver:
        tr.send(rank_, dst, meta, std::move(payload));
        break;
    }
  }
  CommStats& s = world_->stats_[rank_];
  ++s.messages_sent;
  s.bytes_sent += bytes;
}

Transport::Inbound Comm::chaos_recv_inbound(
    int src, int tag, std::chrono::steady_clock::time_point deadline) {
  maybe_kill();
  analysis::ProtocolAnalyzer* an = world_->analyzer_.get();
  if (an != nullptr) {
    an->on_recv_started(rank_, src, tag);
    // Register the wait-for edge up front; a message that is already queued
    // unblocks immediately and the watchdog's grace period absorbs the
    // window. The edge MUST be cleared on every exit of recv_wait.
    an->on_recv_blocked(rank_, src, tag);
  }
  Transport::Inbound in;
  const Transport::RecvStatus status = world_->transport_->recv_wait(
      src, rank_, tag, world_->aborted_,
      world_->dead_[static_cast<std::size_t>(src)], deadline, in);
  if (an != nullptr) {
    an->on_recv_unblocked(rank_);
    if (status == Transport::RecvStatus::kOk)
      an->on_recv(rank_, src, tag, in.data().size(), in.seq);
    else if (status == Transport::RecvStatus::kAborted)
      an->on_abort_observed(rank_);
  }
  switch (status) {
    case Transport::RecvStatus::kOk:
      break;
    case Transport::RecvStatus::kAborted:
      throw WorldAborted();
    case Transport::RecvStatus::kPeerDead:
      throw PeerFailed("rank " + std::to_string(rank_) + " recv(src=" +
                       std::to_string(src) + ", tag=" + std::to_string(tag) +
                       "): peer is dead");
    case Transport::RecvStatus::kTimeout:
      throw CommTimeout("rank " + std::to_string(rank_) + " recv(src=" +
                        std::to_string(src) + ", tag=" + std::to_string(tag) +
                        "): deadline expired");
  }
  if (in.checked && world_->checksums_ &&
      payload_checksum(in.data().data(), in.data().size()) != in.checksum) {
    world_->corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
    world_->transport_->release(std::move(in));
    throw CommCorrupt("rank " + std::to_string(rank_) + " recv(src=" +
                      std::to_string(src) + ", tag=" + std::to_string(tag) +
                      "): payload checksum mismatch");
  }
  return in;
}

Transport::Inbound Comm::recv_inbound(int src, int tag) {
  ADASUM_CHECK_GE(src, 0);
  ADASUM_CHECK_LT(src, size());
  ADASUM_CHECK_NE(src, rank_);
  if (!world_->chaos() && !world_->analyzed())
    return world_->transport_->recv(src, rank_, tag, world_->aborted_);
  const auto deadline =
      world_->ft_enabled_
          ? std::chrono::steady_clock::now() + world_->ft_.recv_deadline
          : std::chrono::steady_clock::time_point::max();
  return chaos_recv_inbound(src, tag, deadline);
}

std::vector<std::byte> Comm::take_payload(Transport::Inbound&& in) {
  if (!in.is_view) {
    // The buffer leaves the transport with the caller (it re-enters the pool
    // whenever the caller releases it); nothing left to retire.
    return std::move(in.owned);
  }
  // A view on a copy-returning API: materialize the one unavoidable copy,
  // then retire the view so the sender's fence can complete.
  std::vector<std::byte> out = world_->pool_.acquire(in.view_size);
  if (in.view_size != 0)
    std::memcpy(out.data(), in.view_data, in.view_size);
  world_->transport_->release(std::move(in));
  return out;
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  return take_payload(recv_inbound(src, tag));
}

std::optional<std::vector<std::byte>> Comm::try_recv_bytes_for(
    int src, std::chrono::milliseconds timeout, int tag) {
  ADASUM_CHECK_GE(src, 0);
  ADASUM_CHECK_LT(src, size());
  ADASUM_CHECK_NE(src, rank_);
  try {
    return take_payload(chaos_recv_inbound(
        src, tag, std::chrono::steady_clock::now() + timeout));
  } catch (const CommTimeout&) {
    return std::nullopt;
  }
}

void Comm::recv_bytes_into(int src, std::span<std::byte> dest, int tag) {
  Transport::Inbound in = recv_inbound(src, tag);
  // The payload is retired on EVERY exit path, including the size mismatch
  // below — an abandoned transfer must not bleed its buffer.
  const std::size_t got = in.data().size();
  const bool ok = got == dest.size();
  if (ok && !dest.empty())
    std::memcpy(dest.data(), in.data().data(), got);
  world_->transport_->release(std::move(in));
  if (!ok) fail_size(src, tag, got, dest.size());
}

void Comm::fail_size(int src, int tag, std::size_t got, std::size_t want) {
  if (world_->ft_enabled_)
    throw CommProtocol("rank " + std::to_string(rank_) + " recv(src=" +
                       std::to_string(src) + ", tag=" + std::to_string(tag) +
                       "): got " + std::to_string(got) + " bytes, want " +
                       std::to_string(want));
  ADASUM_CHECK_EQ(got, want);
}

void Comm::send_bulk(int dst, std::span<const std::byte> data,
                     std::size_t chunk_bytes, int tag) {
  if (!bulk_zero_copy()) {
    send_chunks(dst, data, chunk_bytes, tag);
    return;
  }
  ADASUM_CHECK_GE(dst, 0);
  ADASUM_CHECK_LT(dst, size());
  ADASUM_CHECK_NE(dst, rank_);
  if (world_->aborted_.load()) throw WorldAborted();
  TransportMeta meta;
  meta.tag = tag;
  // Views skip chaos (no injector/checksum can touch a live window into the
  // sender's buffer) but NOT analysis: the analyzer sees one monolithic
  // message per bulk publish, matching bulk_chunk_bytes() == 0.
  if (world_->analyzed())
    meta.seq = world_->analyzer_->on_send(rank_, dst, tag, data.size());
  world_->transport_->send_view(rank_, dst, meta, data);
  CommStats& s = world_->stats_[rank_];
  ++s.messages_sent;
  s.bytes_sent += data.size();
}

void Comm::recv_bulk_into(int src, std::span<std::byte> dest,
                          std::size_t chunk_bytes, int tag) {
  if (!bulk_zero_copy()) {
    recv_chunks_into(src, dest, chunk_bytes, tag);
    return;
  }
  recv_bytes_into(src, dest, tag);
}

void Comm::bulk_fence() {
  world_->transport_->fence(rank_, world_->aborted_);
}

int Comm::lowest_alive() const {
  for (int r = 0; r < size(); ++r)
    if (world_->alive(r)) return r;
  return rank_;
}

void Comm::drain_inboxes() {
  for (int src = 0; src < size(); ++src) {
    if (src == rank_) continue;
    world_->transport_->drain(src, rank_);
  }
}

void Comm::barrier() {
  std::unique_lock<std::mutex> lock(world_->barrier_mutex_);
  const std::uint64_t generation = world_->barrier_generation_;
  // Target is the ALIVE rank count (== world size until a kill fault): a
  // dead rank can never arrive, and on_rank_death completes a barrier that
  // was only waiting on the corpse.
  if (++world_->barrier_count_ >=
      world_->alive_count_.load(std::memory_order_acquire)) {
    world_->barrier_count_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
    return;
  }
  world_->barrier_cv_.wait(lock, [&]() {
    return world_->barrier_generation_ != generation ||
           world_->aborted_.load();
  });
  if (world_->aborted_.load() &&
      world_->barrier_generation_ == generation)
    throw WorldAborted();
}

std::vector<double> Comm::allreduce_sum_doubles(std::span<const double> values,
                                                std::span<const int> group,
                                                int tag) {
  std::vector<double> acc(values.begin(), values.end());
  allreduce_sum_doubles_inplace(acc, group, tag);
  return acc;
}

void Comm::allreduce_sum_doubles_inplace(std::span<double> values,
                                         std::span<const int> group, int tag) {
  const int me = index_in_group(group, rank_);
  ADASUM_CHECK_MSG(!group.empty() && me >= 0,
                   "calling rank must be a member of the group");
  const int p = static_cast<int>(group.size());
  if (p == 1) return;

  const std::span<const std::byte> value_bytes{
      reinterpret_cast<const std::byte*>(values.data()), values.size_bytes()};
  const std::span<std::byte> value_bytes_mut{
      reinterpret_cast<std::byte*>(values.data()), values.size_bytes()};

  if (std::has_single_bit(static_cast<unsigned>(p))) {
    // Recursive doubling: log2(p) rounds of pairwise exchange+sum. The
    // peer's values land in a pooled staging buffer.
    PooledBuffer scratch(pool(), values.size_bytes());
    const std::span<double> theirs = scratch.as<double>(values.size());
    for (int dist = 1; dist < p; dist <<= 1) {
      const int peer = group[static_cast<std::size_t>(me ^ dist)];
      send_bytes(peer, value_bytes, tag);
      recv_bytes_into(peer, scratch.bytes(), tag);
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += theirs[i];
    }
    return;
  }

  // Non-power-of-two group: gather to group[0], reduce, broadcast.
  if (me == 0) {
    PooledBuffer scratch(pool(), values.size_bytes());
    const std::span<double> theirs = scratch.as<double>(values.size());
    for (int i = 1; i < p; ++i) {
      recv_bytes_into(group[static_cast<std::size_t>(i)], scratch.bytes(),
                      tag);
      for (std::size_t j = 0; j < values.size(); ++j) values[j] += theirs[j];
    }
    for (int i = 1; i < p; ++i)
      send_bytes(group[static_cast<std::size_t>(i)], value_bytes, tag);
  } else {
    send_bytes(group[0], value_bytes, tag);
    recv_bytes_into(group[0], value_bytes_mut, tag);
  }
}

}  // namespace adasum
