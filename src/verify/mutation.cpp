#include "verify/mutation.h"

#if ADASUM_VERIFY

#include <string>

#include "base/runtime_config.h"

namespace adasum::verify {

namespace {

constexpr MutationSpec kTable[] = {
    {Mutation::kSeqlockPublishRelaxed, "seqlock_publish_relaxed",
     "epoch odd-publish store release -> relaxed"},
    {Mutation::kSeqlockScanRelaxed, "seqlock_scan_relaxed",
     "epoch scan load acquire -> relaxed"},
    {Mutation::kViewConsumeRelaxed, "view_consume_relaxed",
     "views_consumed retire fetch_add release -> relaxed"},
    {Mutation::kFenceConsumeWindow, "fence_consume_window",
     "fence() tolerates one unconsumed view"},
    {Mutation::kDropSfence, "drop_sfence",
     "sfence between NT payload stores and epoch publish dropped"},
    {Mutation::kChannelPublishRelaxed, "channel_publish_relaxed",
     "lazy channel-grid pointer store release -> relaxed"},
    {Mutation::kMailboxAbortSkipLock, "mailbox_abort_skip_lock",
     "Mailbox::notify_abort skips the predicate-window mutex"},
    {Mutation::kEngineDropDoneNotify, "engine_drop_done_notify",
     "CommEngine worker drops the done_cv_ completion notify"},
};
static_assert(sizeof(kTable) / sizeof(kTable[0]) == kMutationCount);

Mutation env_mutation() {
  const std::string_view name = RuntimeConfig::from_env().verify_mutate;
  const Mutation m = mutation_from_name(name);
  if (m == Mutation::kNone && !name.empty()) {
    std::string allowed = "one of ";
    for (const MutationSpec& spec : kTable)
      allowed.append(spec.name).append("|");
    allowed.pop_back();
    warn_bad_setting("ADASUM_VERIFY_MUTATE", name, allowed, "none");
  }
  return m;
}

// Racing tests would be a poor look for the race checker: the active
// mutation is a process-global atomic, set before schedules launch.
std::atomic<Mutation>& active_slot() {
  static std::atomic<Mutation> active{env_mutation()};
  return active;
}

}  // namespace

const MutationSpec* mutation_table(std::size_t* count) {
  if (count != nullptr) *count = kMutationCount;
  return kTable;
}

Mutation mutation_from_name(std::string_view name) {
  for (const MutationSpec& spec : kTable)
    if (name == spec.name) return spec.id;
  return Mutation::kNone;
}

Mutation active_mutation() {
  return active_slot().load(std::memory_order_relaxed);
}

void set_active_mutation(Mutation m) {
  active_slot().store(m, std::memory_order_relaxed);
}

bool mutation_enabled(Mutation m) { return active_mutation() == m; }

std::memory_order mutated_order(MutSite site, std::memory_order order) {
  const Mutation m = active_mutation();
  switch (site) {
    case MutSite::kSeqlockPublish:
      if (m == Mutation::kSeqlockPublishRelaxed)
        return std::memory_order_relaxed;
      break;
    case MutSite::kSeqlockScan:
      if (m == Mutation::kSeqlockScanRelaxed) return std::memory_order_relaxed;
      break;
    case MutSite::kViewConsume:
      if (m == Mutation::kViewConsumeRelaxed)
        return std::memory_order_relaxed;
      break;
    case MutSite::kChannelPublish:
      if (m == Mutation::kChannelPublishRelaxed)
        return std::memory_order_relaxed;
      break;
  }
  return order;
}

unsigned fence_slack() {
  return mutation_enabled(Mutation::kFenceConsumeWindow) ? 1u : 0u;
}

}  // namespace adasum::verify

#endif  // ADASUM_VERIFY
