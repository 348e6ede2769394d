// Recycling pool for message payload and collective scratch buffers.
//
// The simulated transport moves every payload through a std::vector<std::byte>
// (see channel.h). Without pooling, each send allocates a fresh vector and
// each receive frees one — at fused-buffer sizes (tens of MiB) the allocator
// round-trips dominate the hot path, and freshly mapped pages must be faulted
// in before the memcpy even starts. The pool keeps retired buffers on a free
// list so a steady-state training loop (same message sizes every step)
// performs zero heap allocations: acquire() is served by a capacity hit
// from the previous iteration.
//
// One pool is shared by all ranks of a World (ownership of a buffer passes
// sender -> mailbox -> receiver -> pool, crossing threads), so every method
// is guarded by a single mutex. The collectives additionally lease scratch
// workspaces from the pool via the PooledBuffer RAII wrapper below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/check.h"
#include "base/thread_annotations.h"
#include "verify/sync.h"

namespace adasum {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t allocations = 0;     // acquires that had to heap-allocate
    std::uint64_t reuses = 0;          // acquires served from the free list
    std::uint64_t releases = 0;        // buffers returned to the free list
    std::uint64_t bytes_allocated = 0; // sum of sizes of fresh allocations
  };

  // Returns a buffer with size() == bytes. Served by the free buffer with
  // the smallest sufficient capacity; allocates only when no free buffer
  // fits. See the .cpp for why the match is on capacity.
  std::vector<std::byte> acquire(std::size_t bytes);

  // Returns a buffer to the free list. When the list is full the smallest
  // buffer is dropped, so repeated large transfers cannot be starved by an
  // accumulation of tiny retired buffers.
  void release(std::vector<std::byte> buffer);

  Stats stats() const;
  void reset_stats();
  std::size_t free_buffers() const;
  std::size_t free_bytes() const;

  // Drops every pooled buffer (stats are kept). Mainly for tests.
  void trim();

  // Free-list capacity. The default suits small worlds; a p-rank collective
  // retires O(p) payload and scratch buffers per round, so a World sizes its
  // pool to its rank count at construction — a cap below the round's retire
  // count would shed buffers every round and re-allocate them the next,
  // making large-p steady state impossible to keep allocation-free.
  void set_max_free_buffers(std::size_t cap);

 private:
  mutable sync::mutex mutex_;
  std::vector<std::vector<std::byte>> free_ ADASUM_GUARDED_BY(mutex_);
  std::size_t max_free_ ADASUM_GUARDED_BY(mutex_) = 256;
  Stats stats_ ADASUM_GUARDED_BY(mutex_);
};

// RAII lease of a pool buffer, used by the collectives for their per-call
// scratch workspaces (recv staging, dot-product triples, level records).
// Returning the buffer on destruction — including when a rank unwinds with
// WorldAborted — is what keeps warm iterations allocation-free.
class PooledBuffer {
 public:
  PooledBuffer(BufferPool& pool, std::size_t bytes)
      : pool_(&pool), buffer_(pool.acquire(bytes)) {}
  ~PooledBuffer() { pool_->release(std::move(buffer_)); }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  std::byte* data() { return buffer_.data(); }
  std::size_t size() const { return buffer_.size(); }
  std::span<std::byte> bytes() { return {buffer_.data(), buffer_.size()}; }
  std::span<std::byte> bytes(std::size_t count) {
    ADASUM_CHECK_LE(count, buffer_.size());
    return {buffer_.data(), count};
  }

  // Reinterpret the (operator-new-aligned) storage as `count` objects of T.
  template <typename T>
  std::span<T> as(std::size_t count) {
    ADASUM_CHECK_LE(count * sizeof(T), buffer_.size());
    return {reinterpret_cast<T*>(buffer_.data()), count};
  }

 private:
  BufferPool* pool_;
  std::vector<std::byte> buffer_;
};

}  // namespace adasum
