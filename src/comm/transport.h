// Pluggable point-to-point transport under the simulated world (DESIGN.md
// §15).
//
// Comm (comm/world.h) is POLICY: it owns the seed-vs-chaos branching, the
// fault injector's verdicts, checksum computation/verification, analyzer
// hooks, kill semantics and traffic stats. A Transport is MECHANISM: it
// moves a tagged payload from rank src to rank dst and hands it back on the
// receive side. Everything Comm layered on the old Mailbox grid — per-
// (src,dst,tag) FIFO with out-of-order tag matching, deadline/liveness-aware
// waits, reorder holds, drain-to-pool cleanup — is expressed here as an
// interface, so the buffered mailbox becomes one implementation
// (MailboxTransport) and the one-sided shared-memory path another
// (ShmTransport, comm/shm_transport.h). Real backends (MPI, sockets) slot in
// behind the same collectives later.
//
// Delivery contract every implementation must honor (the transport
// conformance suite, tests/transport_test.cpp, checks it on all of them):
//   * send never blocks the sender indefinitely (buffered semantics);
//   * per-(src,dst,tag) delivery is FIFO, and a message never overtakes an
//     earlier one with the same tag (MPI non-overtaking);
//   * a queued matching message is delivered even when the world is
//     aborting or the sender has died (completed operations complete);
//   * hold() parks a message until the channel's next send releases it
//     BEHIND the newcomer — the reorder fault's observable effect;
//   * drain() returns every undelivered payload to the buffer pool.
//
// Zero-copy views: a transport reporting zero_copy() may accept send_view(),
// which publishes a SPAN of the sender's memory instead of copying a
// payload. The receiver's Inbound then aliases the sender's buffer and the
// reduce kernels run directly over it. The sender must keep the span stable
// until the receiver releases it; Comm::bulk_fence() (-> Transport::fence)
// is the collective-end barrier that waits for exactly that. Copy
// transports never see views: Comm downgrades bulk sends to eager chunked
// copies whenever zero_copy() is false — or whenever the fault machinery is
// on, since an injector must be able to drop/corrupt/duplicate a payload it
// owns, not a live window into the sender's gradient buffer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace adasum {

class BufferPool;

// Per-message wire metadata, stamped by Comm (policy) and carried verbatim
// by every transport: the analyzer's channel sequence number and the
// optional pre-injection checksum.
struct TransportMeta {
  int tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t checksum = 0;
  bool checked = false;  // checksum field is meaningful
};

class Transport {
 public:
  enum class RecvStatus { kOk, kTimeout, kPeerDead, kAborted };

  // One delivered message. Exactly one of two payload forms is live:
  //   * owned   — the heap buffer travelled through the transport; release()
  //               recycles it into the world's pool;
  //   * a view  — data() aliases the SENDER's buffer (zero-copy transports
  //               only); release() marks it consumed so the sender's fence
  //               can retire the span.
  // data() stays valid until release(); moving an Inbound keeps it valid
  // (vector moves transfer the heap block).
  struct Inbound {
    std::uint64_t checksum = 0;
    std::uint64_t seq = 0;
    bool checked = false;
    bool is_view = false;
    const std::byte* view_data = nullptr;
    std::size_t view_size = 0;
    int src = -1;
    int dst = -1;
    std::vector<std::byte> owned;

    std::span<const std::byte> data() const {
      return is_view ? std::span<const std::byte>(view_data, view_size)
                     : std::span<const std::byte>(owned.data(), owned.size());
    }
  };

  virtual ~Transport() = default;

  virtual const char* name() const = 0;
  // True when send_view() publishes without copying and Inbound::data() can
  // alias the sender's buffer.
  virtual bool zero_copy() const = 0;
  // The chunk size a bulk (pipelined) transfer should actually use on this
  // transport. Copy transports return `requested` unchanged; a zero-copy
  // transport returns 0 — one monolithic view — because there is no payload
  // movement left for chunk streaming to overlap. The collectives resolve
  // their chunk size through this (Comm::bulk_chunk_bytes) so the analyzer's
  // schedule declarations match the transfers the transport really performs.
  virtual std::size_t bulk_chunk_bytes(std::size_t requested) const = 0;

  // Buffered send: ownership of `payload` moves into the transport (and back
  // to the pool once delivered or drained). Never blocks indefinitely.
  virtual void send(int src, int dst, const TransportMeta& meta,
                    std::vector<std::byte> payload) = 0;
  // Zero-copy publish of the sender's own memory; see the header comment for
  // the stability contract. Copy transports fall back to an eager copy.
  virtual void send_view(int src, int dst, const TransportMeta& meta,
                         std::span<const std::byte> data) = 0;
  // Reorder fault: park the message; the channel's next send (or
  // flush_held/drain) releases it behind the newcomer.
  virtual void hold(int src, int dst, const TransportMeta& meta,
                    std::vector<std::byte> payload) = 0;
  virtual void flush_held(int src, int dst) = 0;

  // Blocks until a message with `tag` from src is available or `aborted`
  // becomes true (then throws WorldAborted). A queued match wins over abort.
  // This is the seed fast path: no deadline, no liveness.
  virtual Inbound recv(int src, int dst, int tag,
                       const std::atomic<bool>& aborted) = 0;
  // Deadline- and liveness-aware receive (the fault-tolerant path): delivers
  // a matching message if one arrives before `deadline`, otherwise reports
  // why it could not. Queued matches win over abort and peer death.
  virtual RecvStatus recv_wait(int src, int dst, int tag,
                               const std::atomic<bool>& aborted,
                               const std::atomic<bool>& src_dead,
                               std::chrono::steady_clock::time_point deadline,
                               Inbound& out) = 0;
  // Retires a delivered message: recycles an owned payload into the pool,
  // marks a view consumed. Every Inbound must be released exactly once.
  virtual void release(Inbound&& in) = 0;

  // Blocks until every view `rank` ever published has been consumed, so the
  // caller may reuse the underlying buffers. Throws WorldAborted if the
  // world aborts first. No-op on copy transports.
  virtual void fence(int rank, const std::atomic<bool>& aborted) = 0;

  // Undelivered (queued, not held) messages on the channel.
  virtual std::size_t pending(int src, int dst) = 0;
  // Empties the channel — queued and held — returning owned payloads to the
  // pool and marking views consumed; returns the number discarded. Only safe
  // while the channel's receiver is quiesced (post-run cleanup, recovery
  // barriers).
  virtual std::size_t drain(int src, int dst) = 0;
  virtual std::size_t drain_all() = 0;
  // Provisions the channel for `depth` queued messages so steady-state
  // capacity is reached deterministically (see Mailbox::reserve_depth).
  virtual void reserve_depth(int src, int dst, std::size_t depth) = 0;
  // Wakes every blocked receive/fence so aborted-flag checks run.
  virtual void notify_abort() = 0;
};

// Builds a transport by name: "mailbox" (the buffered reference
// implementation) or "shm" (the one-sided shared-memory path). Returns
// nullptr for an unknown name. World starts from ADASUM_TRANSPORT (see the
// runtime-configuration table in README.md).
std::unique_ptr<Transport> make_transport(std::string_view name,
                                          int world_size, BufferPool& pool);

}  // namespace adasum
