#include "comm/buffer_pool.h"

#include <algorithm>

namespace adasum {

std::vector<std::byte> BufferPool::acquire(std::size_t bytes) {
  // An empty request must not shrink a pooled buffer into a useless husk.
  if (bytes == 0) return {};
  {
    sync::lock_guard<sync::mutex> lock(mutex_);
    // Best fit by CAPACITY, not size. Capacity is immutable across the
    // buffer's pool lifetime, so serving a small request from a big buffer
    // never destroys the big size class — the next big request still finds
    // it, and a steady-state workload that repeats its request multiset hits
    // the pool every time. (Matching on size() would shrink the class away:
    // one unluckily interleaved small acquire and the following big request
    // has to heap-allocate.) resize() below never exceeds capacity, so it
    // cannot reallocate; it zero-fills only when regrowing a buffer a
    // smaller request shrank, which a converged workload does not do.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity() < bytes) continue;
      if (best == free_.size() ||
          free_[i].capacity() < free_[best].capacity())
        best = i;
    }
    if (best != free_.size()) {
      std::vector<std::byte> buffer = std::move(free_[best]);
      free_[best] = std::move(free_.back());
      free_.pop_back();
      buffer.resize(bytes);
      ++stats_.reuses;
      return buffer;
    }
    ++stats_.allocations;
    stats_.bytes_allocated += bytes;
  }
  // Allocate outside the lock; reserve makes capacity == size so future
  // exact-size reuse never refills.
  std::vector<std::byte> buffer;
  buffer.reserve(bytes);
  buffer.resize(bytes);
  return buffer;
}

void BufferPool::release(std::vector<std::byte> buffer) {
  if (buffer.capacity() == 0) return;  // nothing worth pooling
  sync::lock_guard<sync::mutex> lock(mutex_);
  ++stats_.releases;
  if (free_.size() >= max_free_) {
    const auto smallest = std::min_element(
        free_.begin(), free_.end(), [](const auto& a, const auto& b) {
          return a.capacity() < b.capacity();
        });
    if (smallest->capacity() >= buffer.capacity()) return;  // incoming runt
    *smallest = std::move(buffer);
    return;
  }
  free_.push_back(std::move(buffer));
}

BufferPool::Stats BufferPool::stats() const {
  sync::lock_guard<sync::mutex> lock(mutex_);
  return stats_;
}

void BufferPool::reset_stats() {
  sync::lock_guard<sync::mutex> lock(mutex_);
  stats_ = Stats{};
}

std::size_t BufferPool::free_buffers() const {
  sync::lock_guard<sync::mutex> lock(mutex_);
  return free_.size();
}

std::size_t BufferPool::free_bytes() const {
  sync::lock_guard<sync::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : free_) total += b.capacity();
  return total;
}

void BufferPool::trim() {
  sync::lock_guard<sync::mutex> lock(mutex_);
  free_.clear();
  free_.shrink_to_fit();
}

void BufferPool::set_max_free_buffers(std::size_t cap) {
  sync::lock_guard<sync::mutex> lock(mutex_);
  max_free_ = cap;
  while (free_.size() > max_free_) {
    const auto smallest = std::min_element(
        free_.begin(), free_.end(), [](const auto& a, const auto& b) {
          return a.capacity() < b.capacity();
        });
    *smallest = std::move(free_.back());
    free_.pop_back();
  }
}

}  // namespace adasum
