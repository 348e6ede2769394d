// Seeded weakenings for the model checker's mutation self-tests
// (DESIGN.md §16.4).
//
// A verifier that never fires is indistinguishable from one that cannot
// fire. Each entry in the mutation table below names one deliberate
// weakening of the transport/engine synchronization protocol — exactly the
// bug class the checker exists to catch — and tests/verify_test.cpp proves
// that activating the entry makes the checker report within a bounded
// schedule budget while the unmutated build stays report-free.
//
// Wiring: product code tags its mutation-eligible memory orders with
// ADASUM_MO(site, order) and its mutation-eligible branches with
// ADASUM_VERIFY_MUTATED(entry). Both compile to the unmodified order /
// `false` when ADASUM_VERIFY=OFF, so the release transport carries zero
// residue (the OFF-path parity test in transport_test.cpp pins that).
#pragma once

#include <cstddef>

#if ADASUM_VERIFY

#include <atomic>
#include <string_view>

namespace adasum::verify {

// One weakening the checker must catch. kNone means "run clean".
enum class Mutation : int {
  kNone = 0,
  // Seqlock epoch publish store release -> relaxed: descriptor/payload
  // writes may be observed after the odd epoch.
  kSeqlockPublishRelaxed,
  // Seqlock epoch scan load acquire -> relaxed: reader's payload reads are
  // no longer ordered after the publish.
  kSeqlockScanRelaxed,
  // views_consumed retire fetch_add release -> relaxed: fence() can order
  // the sender's buffer reuse before the receiver's last payload read.
  kViewConsumeRelaxed,
  // fence() tolerates one unconsumed view (widened consume window): the
  // sender reuses a buffer a receiver is still reducing out of.
  kFenceConsumeWindow,
  // Drop the sfence between non-temporal payload stores and the epoch
  // publish: the publish can become visible before the NT data.
  kDropSfence,
  // Lazy channel-grid pointer store release -> relaxed: a reader can reach
  // a Channel object before its construction is visible.
  kChannelPublishRelaxed,
  // Mailbox::notify_abort skips its mutex acquire/release: a popper that
  // passed its predicate check but has not blocked yet misses the wakeup.
  kMailboxAbortSkipLock,
  // CommEngine worker drops done_cv_ notify after completing an op: every
  // wait()er on that ticket sleeps forever.
  kEngineDropDoneNotify,
};

inline constexpr int kMutationCount = 8;  // excluding kNone

struct MutationSpec {
  Mutation id;
  const char* name;     // ADASUM_VERIFY_MUTATE value / report label
  const char* weakens;  // one-line description of the protocol hole
};

// Build-time table driving the self-test loop in verify_test.cpp.
const MutationSpec* mutation_table(std::size_t* count);

// Name lookup; returns kNone for an empty or unknown name.
Mutation mutation_from_name(std::string_view name);

// Active mutation: ADASUM_VERIFY_MUTATE=<name> (base/runtime_config.h), read
// once, unless a ScopedMutation overrides it programmatically. An unknown
// name warns and runs clean.
Mutation active_mutation();
void set_active_mutation(Mutation m);

// RAII override for the self-test loop.
class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) : prev_(active_mutation()) {
    set_active_mutation(m);
  }
  ~ScopedMutation() { set_active_mutation(prev_); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  Mutation prev_;
};

// Memory-order sites eligible for weakening. A site may appear at several
// code locations (e.g. every epoch scan load shares kSeqlockScan).
enum class MutSite : int {
  kSeqlockPublish,  // epoch odd-publish store (release)
  kSeqlockScan,     // epoch scan load (acquire)
  kViewConsume,     // views_consumed fetch_add (release)
  kChannelPublish,  // channel_ptrs_ grid store (release)
};

std::memory_order mutated_order(MutSite site, std::memory_order order);

// 0 normally; 1 under kFenceConsumeWindow.
unsigned fence_slack();

bool mutation_enabled(Mutation m);

}  // namespace adasum::verify

#define ADASUM_MO(site, order) \
  (::adasum::verify::mutated_order(::adasum::verify::MutSite::site, (order)))
#define ADASUM_VERIFY_FENCE_SLACK() (::adasum::verify::fence_slack())
#define ADASUM_VERIFY_MUTATED(entry) \
  (::adasum::verify::mutation_enabled(::adasum::verify::Mutation::entry))

#else  // !ADASUM_VERIFY

// OFF build: the annotations vanish — ADASUM_MO yields the order unchanged
// and mutation branches fold to their unmutated arm at compile time.
#define ADASUM_MO(site, order) (order)
#define ADASUM_VERIFY_FENCE_SLACK() 0u
#define ADASUM_VERIFY_MUTATED(entry) false

#endif  // ADASUM_VERIFY
