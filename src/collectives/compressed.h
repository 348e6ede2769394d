// Compressed wire transfers for the collectives (DESIGN.md §13).
//
// Composition rule: compression applies to TRANSFERRED payload bytes only.
// Every reduction — the Adasum dot triples, the elementwise sums, the local
// combiners — runs on decompressed fp32 values with double accumulation
// exactly as before (§4.4.1); the codec never touches resident data except
// through the explicit requantize step below. Chunk pipelining composes
// transparently: a compressed transfer is a normal chunk stream over the
// (smaller) wire blob, and checksums/fault injection see plain byte
// messages.
//
// Replica consistency: a lossy wire would let a sender keep exact values
// while receivers hold approximations, and ranks would silently diverge.
// Every allgather therefore follows one rule: each final segment is encoded
// ONCE, by its owner, and every rank materializes it from those same bytes.
//  * requantize — the owner compresses its segment, overwriting its own copy
//    with the blob's decoded values in the same pass, so owner and receivers
//    hold bit-identical floats;
//  * verbatim forwarding — nobody re-encodes a segment it did not own. The
//    ring allgather forwards each owner's blob hop to hop; the RVH unwind
//    forwards runs of owner sub-blobs (whole blobs laid end to end in segment
//    order, each padded to 4 bytes) and decodes each at its element offset.
// tests/compress_test.cpp asserts cross-rank bit-equality for every schedule
// and pins the RVH unwind against a serial owner-encodes-once simulation.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "comm/buffer_pool.h"
#include "comm/world.h"
#include "tensor/compress/compress.h"
#include "tensor/dtype.h"

namespace adasum {

// Resolves a per-call request against the world default: kAuto defers to
// comm.compression(), and non-fp32 payloads always transfer uncompressed
// (the codec is fp32-only).
inline CompressionOptions resolve_compression(
    const Comm& comm, const CompressionOptions& requested, DType dtype) {
  CompressionOptions r = requested;
  if (r.mode == CompressionMode::kAuto) r = comm.compression();
  if (r.mode == CompressionMode::kAuto) r.mode = CompressionMode::kNone;
  if (dtype != DType::kFloat32) r.mode = CompressionMode::kNone;
  return r;
}

// Bytes a transfer of `elems` elements of `elem_size` puts on the wire under
// `opts` — the single formula shared by the transfers, the EpochGuard
// schedule declarations and the cost model, so a drift shows up as an
// analyzer diff rather than a hang.
inline std::size_t wire_transfer_bytes(std::size_t elems,
                                       std::size_t elem_size,
                                       const CompressionOptions& opts) {
  return opts.active() ? compressed_wire_bytes(elems, opts)
                       : elems * elem_size;
}

// Bytes one owner's blob of `elems` floats takes inside a forwarded run of
// sub-blobs: the blob padded to a multiple of 4, so the next sub-blob's f32
// scale sideband stays aligned. Block-multiple segments need no padding.
inline std::size_t sub_blob_bytes(std::size_t elems,
                                  const CompressionOptions& opts) {
  return (compressed_wire_bytes(elems, opts) + 3) / 4 * 4;
}

// Pooled compress/transfer helper, one per collective call (zero
// steady-state allocation, DESIGN.md §8). Two blob slots sized for the
// largest transfer, each leased from the pool on its first use: the ring
// allgather holds a received blob in one slot while the next lands in the
// other; the RVH schedules use slot 0 for the halving blobs and slot 1 for
// the unwind's sub-blob runs. An eager monolithic transfer needs no slot 0
// at all: send() encodes straight into the leased message and the bulk
// receives read the delivered message in place (DESIGN.md §13).
// Inactive options make active() false and the collectives keep their
// uncompressed code paths byte-identical to before.
class WireCompressor {
 public:
  // `max_elems` bounds the largest single blob of the collective and
  // `max_run_bytes` its largest sub-blob run (the slots hold both).
  // `bulk_views` opts the one-shot transfers (send, and the runs) into the
  // transport's bulk path: on a zero-copy transport the bytes travel as a
  // VIEW of the sender's slot and the receiver decodes straight off the
  // peer's published span. Only safe for schedules where every publish is
  // consumed by a receive the publisher's next transfer already waits on
  // transitively (the RVH pairwise exchanges); the ring's verbatim blob
  // forwarding reuses slots on a cycle where the required fence would
  // deadlock, so it stays on the default eager path.
  WireCompressor(Comm& comm, DType dtype, const CompressionOptions& opts,
                 std::size_t max_elems, bool bulk_views = false,
                 std::size_t max_run_bytes = 0);
  ~WireCompressor();

  bool active() const { return opts_.active(); }
  const CompressionOptions& options() const { return opts_; }
  std::size_t wire_bytes(std::size_t elems) const {
    return compressed_wire_bytes(elems, opts_);
  }

  // ---- low-level blob ops (the ring allgather composes these) ------------
  void encode(int slot, const std::byte* data, std::size_t elems);
  // Encode into the slot at byte `at`, and overwrite `data` with the blob's
  // decoded values in the same cache-tiled pass (compress_f32's `decoded`
  // output): afterwards `data` is bit-identical to what any receiver of the
  // blob decodes.
  void requantize(int slot, std::byte* data, std::size_t elems,
                  std::size_t at = 0);
  void decode(int slot, std::byte* dest, std::size_t elems);
  void send_blob(int dst, int slot, std::size_t elems, std::size_t chunk,
                 int tag);
  void recv_blob(int src, int slot, std::size_t elems, std::size_t chunk,
                 int tag);

  // ---- one-shot transfers ------------------------------------------------
  // Compress `data` and stream the blob. For payloads whose local copy is
  // dead after the send (reduce-scatter halves — ownership moves to the
  // receiver). An eager monolithic transfer encodes straight into the
  // pooled message it sends; a view or a chunk stream goes through slot 0.
  void send(int dst, const std::byte* data, std::size_t elems,
            std::size_t chunk, int tag);

  // Receive a blob and hand the raw wire bytes to `fn(blob)` while the
  // (possibly zero-copy) view is still held: the fused decode-reduce paths
  // (decompress_add_f32 / decompress_combine_f32, DESIGN.md §17) read the
  // compressed stream in place instead of staging a decoded copy. `fn` may
  // read the blob for its whole body — including across nested collective
  // calls, matching the uncompressed paths that hold their payload views
  // across the subgroup dot allreduce.
  template <class Fn>
  void recv_apply(int src, std::size_t elems, std::size_t chunk, int tag,
                  Fn&& fn) {
    if (bulk_views_) {
      recv_run_apply(src, wire_bytes(elems), chunk, tag, fn);
      return;
    }
    recv_blob(src, 0, elems, chunk, tag);
    fn(static_cast<const std::byte*>(slot_data(0)));
  }

  // ---- sub-blob runs (the RVH unwind, bulk mode only) --------------------
  // A run is `bytes` of slot 1 starting at `at`: whole owner sub-blobs laid
  // end to end (requantize(1, ...) writes them). Runs published as views
  // are never rewritten before the caller's closing fence; receives land in
  // ranges disjoint from them.
  void send_run(int dst, std::size_t at, std::size_t bytes, std::size_t chunk,
                int tag);
  // Receive a run into slot 1 at `at`, to be forwarded later: on a zero-copy
  // transport the peer's view is copied into the slot and released at once.
  // Returns the landed bytes.
  const std::byte* recv_run(int src, std::size_t at, std::size_t bytes,
                            std::size_t chunk, int tag);
  // Receive a run that is not forwarded and hand its bytes to `fn(run)`
  // while the delivered message (the peer's view, or an eager transfer's
  // pooled payload) is still held; only a chunked eager stream is staged,
  // in slot 0.
  template <class Fn>
  void recv_run_apply(int src, std::size_t bytes, std::size_t chunk, int tag,
                      Fn&& fn) {
    const std::byte* run = nullptr;
    BulkRecv held = comm_.recv_bulk(
        src, bytes, comm_.bulk_in_place(bytes, chunk) ? nullptr : slot_data(0),
        chunk, tag,
        [&](const std::byte* base, std::size_t, std::size_t) { run = base; });
    fn(run);
  }

 private:
  // Slot `s`'s storage, leased from the pool on first use.
  std::byte* slot_data(int s);
  // Slot `slot`'s storage, once no published view of it is outstanding.
  std::byte* writable_slot(int slot);
  // Bulk-path send of slot bytes [at, at + bytes), recording the view.
  void send_view(int dst, int slot, std::size_t at, std::size_t bytes,
                 std::size_t chunk, int tag);

  Comm& comm_;
  CompressionOptions opts_;
  bool bulk_views_ = false;
  // Per slot: a view published to a peer may still be under its decode, so
  // the slot must not be rewritten (encode / requantize) until it retires.
  // Cleared by the fence in writable_slot() and by the destructor's safety
  // fence.
  bool view_out_[2] = {false, false};
  // Engaged on first use, so only while active: an inactive compressor must
  // not lease from the pool at all — even a zero-byte lease would pull a
  // warmed buffer off the shared free list and perturb concurrent ranks'
  // capacity hits (the zero-warm-allocation chaos gates measure exactly
  // this).
  std::size_t slot_bytes_ = 0;
  std::optional<PooledBuffer> blobs_[2];
};

}  // namespace adasum
