// Helpers for the chaos harness (tests/chaos_test.cpp) and the watchdog-
// wrapped comm regressions: a seed-derived fault schedule, and a World::run
// wrapper that converts a deadlock into a clean, reportable failure instead
// of a hung test suite.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <string_view>
#include <thread>

#include "base/rng.h"
#include "comm/fault_injector.h"
#include "comm/world.h"

namespace adasum::chaos {

// A sweep size or seed base from the environment (scripts/check.sh shrinks
// the sweeps under the sanitizers): decimal digits only, 0 allowed, or
// `fallback` when unset. Anything else fails the calling test, naming the
// variable, and returns 0 — a typo must not silently shrink the sweep.
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  unsigned n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
      n > static_cast<unsigned>(INT_MAX)) {
    ADD_FAILURE() << name << "=" << s << " is not a decimal count";
    return 0;
  }
  return static_cast<int>(n);
}

// Everything a chaos run needs, derived deterministically from one seed:
// the world size, the payload shape axes, and the fault policy. Fault types
// are grouped into profiles (clean / one fault class / kill / mixed) so each
// schedule has a crisp expected property — a corrupt-only run must detect
// the corruption, a clean run must be bit-for-bit, and so on.
struct ChaosSchedule {
  enum class Profile {
    kClean,      // no faults: must match the reference bit-for-bit
    kDelay,      // timing jitter only: still bit-for-bit
    kDrop,       // lost messages -> timeouts -> degraded/skip
    kDuplicate,  // stale-stream faults
    kReorder,    // swapped deliveries within a channel
    kCorrupt,    // bit flips: must be detected via checksums
    kKill,       // a rank dies mid-collective
    kMixed,      // everything at once (except corrupt, whose detection
                 // guarantee needs delivery — see chaos_test.cpp)
  };

  std::uint64_t seed = 0;
  Profile profile = Profile::kClean;
  int world_size = 2;       // in {2, 4, 8}
  bool fp16 = false;        // payload dtype
  bool fused = false;       // several tensors through a FusionBuffer
  std::size_t count = 64;   // elements per tensor
  FaultSpec spec;

  static ChaosSchedule from_seed(std::uint64_t seed) {
    Rng rng(seed);
    ChaosSchedule s;
    s.seed = seed;
    const int sizes[3] = {2, 4, 8};
    s.world_size = sizes[rng.uniform_int(3)];
    s.fp16 = rng.uniform() < 0.5;
    s.fused = rng.uniform() < 0.5;
    s.count = 1 + static_cast<std::size_t>(rng.uniform_int(256));
    s.profile = static_cast<Profile>(rng.uniform_int(8));
    s.spec.seed = seed ^ 0x9E3779B97F4A7C15ull;
    s.spec.delay_max_us = 50;
    const double p = 0.02 + rng.uniform() * 0.05;
    switch (s.profile) {
      case Profile::kClean:
        break;
      case Profile::kDelay:
        s.spec.delay_prob = p;
        break;
      case Profile::kDrop:
        s.spec.drop_prob = p;
        break;
      case Profile::kDuplicate:
        s.spec.duplicate_prob = p;
        break;
      case Profile::kReorder:
        s.spec.reorder_prob = p;
        break;
      case Profile::kCorrupt:
        s.spec.corrupt_prob = p;
        break;
      case Profile::kKill:
        s.spec.kill_rank = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(s.world_size)));
        s.spec.kill_after_ops = rng.uniform_int(32);
        break;
      case Profile::kMixed:
        s.spec.delay_prob = p / 2;
        s.spec.drop_prob = p / 2;
        s.spec.duplicate_prob = p / 2;
        s.spec.reorder_prob = p / 2;
        if (rng.uniform() < 0.5) {
          s.spec.kill_rank = static_cast<int>(rng.uniform_int(
              static_cast<std::uint64_t>(s.world_size)));
          s.spec.kill_after_ops = rng.uniform_int(32);
        }
        break;
    }
    return s;
  }
};

struct WatchdogResult {
  bool watchdog_fired = false;   // the run had to be aborted to terminate
  std::exception_ptr error;      // what World::run rethrew, if anything
};

// Runs `fn` on `world` with a watchdog: if the run has not finished within
// `timeout`, request_abort() wakes every blocked rank with WorldAborted so
// run() still joins all threads and the test can FAIL instead of hanging.
inline WatchdogResult run_with_watchdog(World& world,
                                        const std::function<void(Comm&)>& fn,
                                        std::chrono::milliseconds timeout) {
  WatchdogResult result;
  std::promise<void> done;
  std::future<void> done_future = done.get_future();
  std::atomic<bool> fired{false};
  std::thread watchdog([&]() {
    if (done_future.wait_for(timeout) == std::future_status::timeout) {
      fired.store(true);
      world.request_abort();
    }
  });
  try {
    world.run(fn);
  } catch (...) {
    result.error = std::current_exception();
  }
  done.set_value();
  watchdog.join();
  result.watchdog_fired = fired.load();
  return result;
}

}  // namespace adasum::chaos
