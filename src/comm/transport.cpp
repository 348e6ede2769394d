// MailboxTransport — the buffered reference implementation of Transport —
// and the transport factory.
//
// The mailbox grid IS the seed semantics: every behavior the test suite
// locked in before the transport split (per-tag FIFO with out-of-order tag
// matching, cv-parked pops, exponential pop_wait slices, reorder holds,
// drain-to-pool) lives in comm/channel.h unchanged, and this adapter only
// maps it onto the interface. The bit-identical-default guarantee of
// ADASUM_TRANSPORT=mailbox rests on that: same queues, same waits, same
// allocation profile as before the refactor.
#include "comm/transport.h"

#include <cstring>

#include "comm/buffer_pool.h"
#include "comm/channel.h"
#include "comm/shm_transport.h"

namespace adasum {

namespace {

class MailboxTransport final : public Transport {
 public:
  MailboxTransport(int world_size, BufferPool& pool)
      : size_(world_size), pool_(pool) {
    mailboxes_.reserve(static_cast<std::size_t>(size_) * size_);
    for (int i = 0; i < size_ * size_; ++i)
      mailboxes_.push_back(std::make_unique<Mailbox>());
  }

  const char* name() const override { return "mailbox"; }
  bool zero_copy() const override { return false; }
  std::size_t bulk_chunk_bytes(std::size_t requested) const override {
    return requested;
  }

  void send(int src, int dst, const TransportMeta& meta,
            std::vector<std::byte> payload) override {
    mailbox(src, dst).push(meta.tag, std::move(payload), meta.checksum,
                           meta.checked, meta.seq);
  }

  void send_view(int src, int dst, const TransportMeta& meta,
                 std::span<const std::byte> data) override {
    // No one-sided path here: materialize an eager copy so a caller that
    // skipped the zero_copy() gate still gets correct delivery.
    std::vector<std::byte> payload = pool_.acquire(data.size());
    if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
    send(src, dst, meta, std::move(payload));
  }

  void hold(int src, int dst, const TransportMeta& meta,
            std::vector<std::byte> payload) override {
    mailbox(src, dst).hold(meta.tag, std::move(payload), meta.checksum,
                           meta.checked, meta.seq);
  }

  void flush_held(int src, int dst) override {
    mailbox(src, dst).flush_held();
  }

  Inbound recv(int src, int dst, int tag,
               const std::atomic<bool>& aborted) override {
    Inbound in;
    in.owned = mailbox(src, dst).pop(tag, aborted);  // throws WorldAborted
    in.src = src;
    in.dst = dst;
    return in;
  }

  RecvStatus recv_wait(int src, int dst, int tag,
                       const std::atomic<bool>& aborted,
                       const std::atomic<bool>& src_dead,
                       std::chrono::steady_clock::time_point deadline,
                       Inbound& out) override {
    Mailbox::PopResult r =
        mailbox(src, dst).pop_wait(tag, aborted, src_dead, deadline);
    switch (r.status) {
      case Mailbox::PopStatus::kOk:
        out.owned = std::move(r.payload);
        out.checksum = r.checksum;
        out.checked = r.checked;
        out.seq = r.seq;
        out.src = src;
        out.dst = dst;
        return RecvStatus::kOk;
      case Mailbox::PopStatus::kTimeout:
        return RecvStatus::kTimeout;
      case Mailbox::PopStatus::kPeerDead:
        return RecvStatus::kPeerDead;
      case Mailbox::PopStatus::kAborted:
        return RecvStatus::kAborted;
    }
    return RecvStatus::kAborted;  // unreachable
  }

  void release(Inbound&& in) override {
    if (!in.is_view) pool_.release(std::move(in.owned));
  }

  void fence(int /*rank*/, const std::atomic<bool>& /*aborted*/) override {
    // Buffered sends never alias the sender's memory: nothing to wait for.
  }

  std::size_t pending(int src, int dst) override {
    return mailbox(src, dst).pending();
  }

  std::size_t drain(int src, int dst) override {
    return mailbox(src, dst).drain_into(pool_);
  }

  std::size_t drain_all() override {
    std::size_t n = 0;
    for (auto& mb : mailboxes_) n += mb->drain_into(pool_);
    return n;
  }

  void reserve_depth(int src, int dst, std::size_t depth) override {
    mailbox(src, dst).reserve_depth(depth);
  }

  void notify_abort() override {
    for (auto& mb : mailboxes_) mb->notify_abort();
  }

 private:
  Mailbox& mailbox(int src, int dst) {
    return *mailboxes_[static_cast<std::size_t>(src) * size_ + dst];
  }

  int size_;
  BufferPool& pool_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace

std::unique_ptr<Transport> make_transport(std::string_view name,
                                          int world_size, BufferPool& pool) {
  if (name.empty() || name == "mailbox")
    return std::make_unique<MailboxTransport>(world_size, pool);
  if (name == "shm") return std::make_unique<ShmTransport>(world_size, pool);
  return nullptr;
}

}  // namespace adasum
