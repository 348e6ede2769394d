// Schedule-point instrumentation layer (DESIGN.md §16.1).
//
// Product code in the transport/engine hot paths uses sync::atomic,
// sync::mutex, sync::condition_variable, sync::thread and the spin/fence
// helpers below instead of the std primitives.
//
//   ADASUM_VERIFY=OFF (default, the tier-1 configuration): every name here
//   is the std primitive — sync::atomic<T> is literally std::atomic<T> (an
//   alias, not a wrapper), sync::mutex is std::mutex plus Clang
//   thread-safety annotations at zero size/layout cost, the helpers inline
//   to the bare hardware instruction. The OFF-path parity test in
//   transport_test.cpp pins that this layer adds no bytes and no
//   allocations to a send/recv cycle.
//
//   ADASUM_VERIFY=ON: each operation first consults verify::current(). On
//   an uncontrolled thread (no ThreadScope) it passes straight through to
//   the std primitive; on a controlled thread it announces the op to the
//   Runtime, parks until the scheduler grants it, and only then performs
//   the real operation — by construction while holding the schedule baton,
//   so the sequence of real ops IS the schedule. Mutexes and condition
//   variables are modeled by the Runtime in controlled mode (the real
//   std::mutex underneath is never locked), which is what turns lost
//   wakeups into deterministic deadlock reports instead of flaky hangs.
//
// Plain (non-atomic) data accesses that the happens-before auditor should
// check are marked with ADASUM_VERIFY_PLAIN_READ / _PLAIN_WRITE /
// _NT_WRITE; all three compile to ((void)0) when OFF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "base/thread_annotations.h"

#if ADASUM_VERIFY
#include "verify/runtime.h"
#endif

namespace adasum::sync {

// One spin-loop pause at the instruction level: a pause-class instruction
// where the ISA has one, so a spinning hyperthread yields pipeline
// resources to the publishing core.
inline void cpu_relax_hw() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Orders earlier non-temporal stores before later stores (x86 sfence).
inline void store_fence_hw() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_sfence();
#else
  std::atomic_thread_fence(std::memory_order_release);
#endif
}

#if !ADASUM_VERIFY

// ---------------------------------------------------------------------------
// OFF: aliases and annotation-only wrappers. No behavior, no layout change.
// ---------------------------------------------------------------------------

template <class T>
using atomic = std::atomic<T>;

class ADASUM_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() ADASUM_ACQUIRE() { m_.lock(); }
  void unlock() ADASUM_RELEASE() { m_.unlock(); }
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};
static_assert(sizeof(mutex) == sizeof(std::mutex),
              "annotation-only wrapper must not change layout");

template <class M>
class ADASUM_SCOPED_CAPABILITY lock_guard {
 public:
  explicit lock_guard(M& m) ADASUM_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~lock_guard() ADASUM_RELEASE() { m_.unlock(); }
  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  M& m_;
};

template <class M>
class ADASUM_SCOPED_CAPABILITY unique_lock {
 public:
  unique_lock() = default;
  explicit unique_lock(M& m) ADASUM_ACQUIRE(m) : m_(&m), owns_(true) {
    m_->lock();
  }
  unique_lock(unique_lock&& o) noexcept
      : m_(std::exchange(o.m_, nullptr)), owns_(std::exchange(o.owns_, false)) {}
  unique_lock& operator=(unique_lock&& o) noexcept {
    if (this != &o) {
      if (owns_) m_->unlock();
      m_ = std::exchange(o.m_, nullptr);
      owns_ = std::exchange(o.owns_, false);
    }
    return *this;
  }
  ~unique_lock() ADASUM_RELEASE() {
    if (owns_) m_->unlock();
  }

  void lock() ADASUM_ACQUIRE() {
    m_->lock();
    owns_ = true;
  }
  void unlock() ADASUM_RELEASE() {
    m_->unlock();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }
  M* mutex() const ADASUM_RETURN_CAPABILITY(m_) { return m_; }

 private:
  M* m_ = nullptr;
  bool owns_ = false;
};

class condition_variable {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(unique_lock<mutex>& lk) {
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    cv_.wait(ul);
    ul.release();
  }
  template <class Pred>
  void wait(unique_lock<mutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }
  template <class Rep, class Period>
  std::cv_status wait_for(unique_lock<mutex>& lk,
                          const std::chrono::duration<Rep, Period>& dur) {
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(ul, dur);
    ul.release();
    return st;
  }
  template <class Rep, class Period, class Pred>
  bool wait_for(unique_lock<mutex>& lk,
                const std::chrono::duration<Rep, Period>& dur, Pred pred) {
    while (!pred()) {
      if (wait_for(lk, dur) == std::cv_status::timeout) return pred();
    }
    return true;
  }
  template <class Clock, class Duration>
  std::cv_status wait_until(
      unique_lock<mutex>& lk,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_until(ul, deadline);
    ul.release();
    return st;
  }
  template <class Clock, class Duration, class Pred>
  bool wait_until(unique_lock<mutex>& lk,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lk, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

 private:
  std::condition_variable cv_;
};
static_assert(sizeof(condition_variable) == sizeof(std::condition_variable),
              "annotation-only wrapper must not change layout");

using thread = std::thread;

inline void point() {}
inline void cpu_relax() { cpu_relax_hw(); }
inline void spin_yield() { std::this_thread::yield(); }
inline void store_fence() { store_fence_hw(); }

// Spin-loop iteration budget: unchanged when OFF; 1 on a controlled thread
// when ON, so every futile iteration is a schedule point.
inline int spin_budget(int n) { return n; }

#define ADASUM_VERIFY_PLAIN_READ(addr, label) ((void)0)
#define ADASUM_VERIFY_PLAIN_WRITE(addr, label) ((void)0)
#define ADASUM_VERIFY_NT_WRITE(addr, label) ((void)0)

#else  // ADASUM_VERIFY

// ---------------------------------------------------------------------------
// ON: announce-then-perform wrappers over the controlled scheduler.
// ---------------------------------------------------------------------------

template <class T>
class atomic {
 public:
  atomic() noexcept = default;
  constexpr atomic(T v) noexcept : a_(v) {}  // NOLINT(google-explicit-constructor)
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    announce(verify::OpKind::kAtomicLoad, mo);
    return a_.load(mo);
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    announce(verify::OpKind::kAtomicStore, mo);
    a_.store(v, mo);
  }
  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    announce(verify::OpKind::kAtomicRmw, mo);
    return a_.exchange(v, mo);
  }
  T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst) {
    announce(verify::OpKind::kAtomicRmw, mo);
    return a_.fetch_add(v, mo);
  }
  T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst) {
    announce(verify::OpKind::kAtomicRmw, mo);
    return a_.fetch_sub(v, mo);
  }
  T operator=(T v) {
    store(v);
    return v;
  }
  operator T() const { return load(); }

 private:
  void announce(verify::OpKind kind, std::memory_order mo) const {
    if (verify::Runtime* rt = verify::current()) rt->op_atomic(this, kind, mo);
  }
  std::atomic<T> a_;
};

class ADASUM_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() ADASUM_ACQUIRE() {
    if (verify::Runtime* rt = verify::current()) {
      rt->mutex_lock(this);  // modeled: the real mutex stays untouched
    } else {
      m_.lock();
    }
  }
  void unlock() ADASUM_RELEASE() {
    if (verify::Runtime* rt = verify::current()) {
      rt->mutex_unlock(this);
    } else {
      m_.unlock();
    }
  }
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

template <class M>
class ADASUM_SCOPED_CAPABILITY lock_guard {
 public:
  explicit lock_guard(M& m) ADASUM_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~lock_guard() ADASUM_RELEASE() { m_.unlock(); }
  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  M& m_;
};

template <class M>
class ADASUM_SCOPED_CAPABILITY unique_lock {
 public:
  unique_lock() = default;
  explicit unique_lock(M& m) ADASUM_ACQUIRE(m) : m_(&m), owns_(true) {
    m_->lock();
  }
  unique_lock(unique_lock&& o) noexcept
      : m_(std::exchange(o.m_, nullptr)), owns_(std::exchange(o.owns_, false)) {}
  unique_lock& operator=(unique_lock&& o) noexcept {
    if (this != &o) {
      if (owns_) m_->unlock();
      m_ = std::exchange(o.m_, nullptr);
      owns_ = std::exchange(o.owns_, false);
    }
    return *this;
  }
  ~unique_lock() ADASUM_RELEASE() {
    if (owns_) m_->unlock();
  }

  void lock() ADASUM_ACQUIRE() {
    m_->lock();
    owns_ = true;
  }
  void unlock() ADASUM_RELEASE() {
    m_->unlock();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }
  M* mutex() const ADASUM_RETURN_CAPABILITY(m_) { return m_; }

 private:
  M* m_ = nullptr;
  bool owns_ = false;
};

class condition_variable {
 public:
  void notify_one() {
    if (verify::Runtime* rt = verify::current()) {
      rt->cv_notify(this, /*all=*/false);
    } else {
      cv_.notify_one();
    }
  }
  void notify_all() {
    if (verify::Runtime* rt = verify::current()) {
      rt->cv_notify(this, /*all=*/true);
    } else {
      cv_.notify_all();
    }
  }

  void wait(unique_lock<mutex>& lk) {
    if (verify::Runtime* rt = verify::current()) {
      rt->cv_wait(this, lk.mutex());
      return;
    }
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    cv_.wait(ul);
    ul.release();
  }
  template <class Pred>
  void wait(unique_lock<mutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }
  template <class Rep, class Period>
  std::cv_status wait_for(unique_lock<mutex>& lk,
                          const std::chrono::duration<Rep, Period>& dur) {
    if (verify::Runtime* rt = verify::current()) {
      // Durations carry no meaning on the virtual clock: a timed wait times
      // out only when the scheduler quiesces with no runnable thread.
      return rt->cv_wait_timed(this, lk.mutex()) ? std::cv_status::timeout
                                                 : std::cv_status::no_timeout;
    }
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(ul, dur);
    ul.release();
    return st;
  }
  template <class Rep, class Period, class Pred>
  bool wait_for(unique_lock<mutex>& lk,
                const std::chrono::duration<Rep, Period>& dur, Pred pred) {
    while (!pred()) {
      if (wait_for(lk, dur) == std::cv_status::timeout) return pred();
    }
    return true;
  }
  template <class Clock, class Duration>
  std::cv_status wait_until(
      unique_lock<mutex>& lk,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    if (verify::Runtime* rt = verify::current()) {
      return rt->cv_wait_timed(this, lk.mutex()) ? std::cv_status::timeout
                                                 : std::cv_status::no_timeout;
    }
    std::unique_lock<std::mutex> ul(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_until(ul, deadline);
    ul.release();
    return st;
  }
  template <class Clock, class Duration, class Pred>
  bool wait_until(unique_lock<mutex>& lk,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lk, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

 private:
  std::condition_variable cv_;
};

// std::thread with deterministic controlled spawn: the creator announces
// kThreadCreate (reserving the child's tid at a fixed schedule point), the
// child attaches via ThreadScope, and the creator blocks until it has.
class thread {
 public:
  thread() = default;
  template <class F>
  explicit thread(F f) {
    if (verify::Runtime* rt = verify::current()) {
      child_tid_ = rt->thread_create();
      t_ = std::thread([rt, tid = child_tid_, fn = std::move(f)]() mutable {
        verify::ThreadScope scope(*rt, tid);
        fn();
      });
      rt->await_attached(child_tid_);
    } else {
      t_ = std::thread(std::move(f));
    }
  }
  thread(thread&&) noexcept = default;
  thread& operator=(thread&& o) noexcept {
    t_ = std::move(o.t_);
    child_tid_ = std::exchange(o.child_tid_, -1);
    return *this;
  }

  bool joinable() const { return t_.joinable(); }
  void join() {
    if (child_tid_ >= 0) {
      if (verify::Runtime* rt = verify::current()) rt->thread_join(child_tid_);
    }
    t_.join();
  }

 private:
  std::thread t_;
  int child_tid_ = -1;
};

inline void point() {
  if (verify::Runtime* rt = verify::current()) rt->point();
}
inline void cpu_relax() {
  if (verify::Runtime* rt = verify::current()) {
    rt->spin_pause();
    return;
  }
  cpu_relax_hw();
}
inline void spin_yield() {
  if (verify::Runtime* rt = verify::current()) {
    rt->spin_pause();
    return;
  }
  std::this_thread::yield();
}
inline void store_fence() {
  if (verify::Runtime* rt = verify::current()) rt->store_fence();
  store_fence_hw();
}
inline int spin_budget(int n) { return verify::current() != nullptr ? 1 : n; }

namespace detail {
inline void plain(const void* addr, bool write, bool nt, const char* label) {
  if (verify::Runtime* rt = verify::current())
    rt->plain_access(addr, write, nt, label);
}
}  // namespace detail

#define ADASUM_VERIFY_PLAIN_READ(addr, label) \
  (::adasum::sync::detail::plain((addr), false, false, (label)))
#define ADASUM_VERIFY_PLAIN_WRITE(addr, label) \
  (::adasum::sync::detail::plain((addr), true, false, (label)))
#define ADASUM_VERIFY_NT_WRITE(addr, label) \
  (::adasum::sync::detail::plain((addr), true, true, (label)))

#endif  // ADASUM_VERIFY

}  // namespace adasum::sync
