// Communication-protocol analyzer for the simulated MPI world (DESIGN.md §11).
//
// A debug-opt-in runtime verification layer, playing the role tools like
// MUST play for real MPI: World threads every send/recv through the hooks
// below, and the analyzer checks the *protocol* mechanically —
//
//   * non-overtaking order: per (src, dst, tag) stream, sender-assigned
//     channel sequence numbers must arrive monotonically (a reordered or
//     duplicated delivery is caught on the message, not via its corrupted
//     downstream arithmetic);
//   * no recv-after-abort: a rank that observed WorldAborted must not issue
//     further receives;
//   * deadlock freedom: blocked receives register wait-for edges, and a
//     watchdog thread aborts the world with the full cycle and per-rank
//     trace instead of letting ctest hang (deadlock_detector.h);
//   * per-epoch schedules: collectives declare their expected message
//     pattern (epoch_validator.h) and the analyzer diffs it against the
//     observed events when the epoch closes;
//   * balanced channels: at end of run every (src, dst, tag) stream must
//     have matching send and recv counts — an unmatched send is the
//     signature of a tag mismatch or an orphaned message.
//
// When a fault injector is attached the analyzer downgrades to observe-only:
// injected drops/kills legitimately break schedules and channel balance, and
// a drop-induced mutual wait is meant to be rescued by the fault-tolerance
// deadlines, not the watchdog. The message-level checks keep recording — they
// are precisely what detects an injected reorder or duplicate — but nothing
// aborts the run; inspect violations() after World::run returns.
//
// Cost model: everything here is behind World::enable_analyzer (or the
// ADASUM_ANALYZE=on environment variable), a runtime switch only — the hooks
// are always compiled in. With the analyzer disabled the transport performs
// one null-pointer test per operation and allocates nothing
// (Chaos.AnalyzerOffPathIsByteAndAllocationIdenticalToSeed pins this), and a
// collective's EpochGuard skips its declaration.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/deadlock_detector.h"
#include "analysis/epoch_validator.h"
#include "analysis/event_log.h"

namespace adasum::analysis {

struct AnalyzerOptions {
  // Events retained per rank per run; past it events are counted as dropped
  // and strict epoch validation is suspended for the affected rank.
  std::size_t log_capacity = std::size_t{1} << 14;
  // Surface protocol violations as a ProtocolError thrown from World::run
  // (and abort the world on the first one) instead of only recording them.
  bool fail_fast = true;
  // Watchdog cadence and patience. A wait-for cycle must persist cycle_grace
  // before it is declared a deadlock (absorbing the benign race between a
  // waiter registering and its matching push landing); a rank blocked
  // stall_grace on a peer that already finished is declared stalled.
  std::chrono::milliseconds scan_interval{25};
  std::chrono::milliseconds cycle_grace{100};
  std::chrono::milliseconds stall_grace{500};
};

// Thrown from World::run when the analyzer recorded protocol violations
// (fail_fast) — what() carries the full human-readable report.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& report)
      : std::runtime_error(report) {}
};

// The watchdog had to abort the world: wait-for cycle or stalled rank.
class DeadlockError : public ProtocolError {
 public:
  explicit DeadlockError(const std::string& report) : ProtocolError(report) {}
};

struct Violation {
  enum class Kind {
    kOvertake,           // same-tag messages delivered out of send order
    kDuplicateDelivery,  // one sequence number delivered twice
    kRecvAfterAbort,     // recv issued after the rank observed the abort
    kUnbalancedChannel,  // sends != recvs on a (src, dst, tag) stream
    kScheduleMismatch,   // observed epoch differs from declared schedule
    kDeadlock,           // wait-for cycle
    kStall,              // blocked on a rank that can never send again
    kLogOverflow,        // event log capacity exceeded mid-epoch
  };
  Kind kind = Kind::kOvertake;
  int rank = -1;
  std::string detail;
};

const char* to_string(Violation::Kind kind);

class ProtocolAnalyzer {
 public:
  // `abort_world` must wake every blocked operation (World::request_abort);
  // the watchdog invokes it when it finds a deadlock or stall, and record()
  // invokes it on the first violation in fail_fast mode.
  ProtocolAnalyzer(int world_size, AnalyzerOptions options,
                   std::function<void()> abort_world);
  ~ProtocolAnalyzer();

  ProtocolAnalyzer(const ProtocolAnalyzer&) = delete;
  ProtocolAnalyzer& operator=(const ProtocolAnalyzer&) = delete;

  // ---- transport hooks (called by Comm on the rank's own thread) ----------
  // Assigns and returns the message's per-(src,dst) sequence number.
  std::uint64_t on_send(int src, int dst, int tag, std::size_t bytes);
  // Called before the receive blocks; flags a recv issued by a rank that has
  // already observed the world abort.
  void on_recv_started(int rank, int src, int tag);
  void on_recv_blocked(int rank, int src, int tag);
  void on_recv_unblocked(int rank);
  void on_recv(int rank, int src, int tag, std::size_t bytes,
               std::uint64_t seq);
  void on_abort_observed(int rank);
  void on_rank_done(int rank);

  // ---- run lifecycle (called by World::run) -------------------------------
  // Resets per-run state and, for strict (fault-free) runs, starts the
  // watchdog; in observe-only runs the fault-tolerance deadlines are the
  // sanctioned rescue path and every check records without enforcing.
  void begin_run(bool faults_possible);
  // Joins the watchdog and runs the end-of-run channel-balance check.
  void end_run();

  // ---- epoch API (via EpochGuard below) -----------------------------------
  bool strict() const { return strict_; }
  std::size_t epoch_begin(int rank) const;
  void epoch_end(int rank, const char* name, std::size_t start,
                 const EpochExpectation& expect);

  // ---- results ------------------------------------------------------------
  bool has_violations() const;
  std::vector<Violation> violations() const;
  bool deadlock_detected() const {
    return deadlock_detected_.load(std::memory_order_acquire);
  }
  // Epochs whose declared schedule was strictly validated, and epochs merely
  // observed (no declaration, or strict checks downgraded).
  std::uint64_t epochs_validated() const {
    return epochs_validated_.load(std::memory_order_relaxed);
  }
  std::uint64_t epochs_observed() const {
    return epochs_observed_.load(std::memory_order_relaxed);
  }
  std::string report() const;
  const AnalyzerOptions& options() const { return options_; }
  int world_size() const { return size_; }

 private:
  void record(Violation::Kind kind, int rank, std::string detail);
  void watchdog_main();
  // "sends {tag 5: 2} / recvs {tag 5: 1}" summary of one directed channel,
  // derived from the logs; used by stall and balance diagnostics.
  std::string describe_channel(int src, int dst) const;
  std::string describe_rank(int rank) const;  // state + recent events
  void check_channel_balance();

  int size_;
  AnalyzerOptions options_;
  std::function<void()> abort_world_;
  bool strict_ = true;  // written in begin_run (before rank threads exist)

  std::vector<std::unique_ptr<EventLog>> logs_;           // per rank
  std::unique_ptr<std::atomic<std::uint64_t>[]> chan_seq_;  // [src*size_+dst]
  // Receive-side ordering state, touched only by the owning rank's thread:
  // last sequence number delivered per (src, tag).
  std::vector<std::map<std::pair<int, int>, std::uint64_t>> last_seq_;
  std::unique_ptr<std::atomic<bool>[]> observed_abort_;  // per rank

  DeadlockDetector detector_;
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = true;

  mutable std::mutex violations_mutex_;
  std::vector<Violation> violations_;
  std::atomic<bool> deadlock_detected_{false};
  std::atomic<std::uint64_t> epochs_validated_{0};
  std::atomic<std::uint64_t> epochs_observed_{0};
};

// RAII collective epoch. Construct with Comm::analyzer() (null when the
// analyzer is disabled — every method degrades to a no-op), declare the
// expected schedule into expect() when declaring() is true, and validation
// runs on destruction. An epoch abandoned by an in-flight exception is not
// validated: the schedule was legitimately cut short.
class EpochGuard {
 public:
  EpochGuard(ProtocolAnalyzer* analyzer, int rank, const char* name)
      : analyzer_(analyzer),
        rank_(rank),
        name_(name),
        start_(analyzer != nullptr ? analyzer->epoch_begin(rank) : 0),
        exceptions_at_entry_(std::uncaught_exceptions()) {}

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  ~EpochGuard() {
    if (analyzer_ == nullptr) return;
    if (std::uncaught_exceptions() > exceptions_at_entry_) return;
    analyzer_->epoch_end(rank_, name_, start_, expect_);
  }

  // True when a declared schedule will actually be checked — callers skip
  // the (allocating) declaration work otherwise.
  bool declaring() const {
    return analyzer_ != nullptr && analyzer_->strict();
  }
  EpochExpectation& expect() { return expect_; }

 private:
  ProtocolAnalyzer* analyzer_;
  int rank_;
  const char* name_;
  std::size_t start_;
  int exceptions_at_entry_;
  EpochExpectation expect_;
};

}  // namespace adasum::analysis
