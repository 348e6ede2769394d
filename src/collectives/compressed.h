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
// Replica consistency (the reason requantize exists): a lossy wire would let
// a sender keep exact values while receivers hold approximations, and ranks
// would silently diverge. Two mechanisms prevent that:
//  * requantize-on-allgather — the sender compresses its segment ONCE,
//    overwriting its own copy with the blob's decoded values in the same
//    pass, and ships that blob, so sender and receivers hold bit-identical
//    floats;
//  * determinism — the codec is a pure function of (bytes, options), so two
//    ranks holding identical segments (the RVH unwind invariant) emit
//    identical blobs for their partners. The ring allgather instead forwards
//    each owner's blob VERBATIM hop to hop, so every rank decodes the same
//    stream. tests/compress_test.cpp asserts the resulting cross-rank
//    bit-equality for every schedule.
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

// Pooled compress/transfer helper, leased once per collective call (zero
// steady-state allocation, DESIGN.md §8). Two blob slots sized for the
// largest transfer: the ring allgather holds a received blob in one slot
// while the next lands in the other; every other schedule uses slot 0.
// Inactive options make active() false and the collectives keep their
// uncompressed code paths byte-identical to before.
class WireCompressor {
 public:
  // `max_elems` bounds the largest single transfer of the collective.
  // `bulk_views` opts the one-shot transfers (send / send_requantize /
  // recv_into) into the transport's bulk path: on a zero-copy transport the
  // blob travels as a VIEW of the sender's slot and the receiver decodes
  // straight off the peer's published span. Only safe for schedules where
  // every publish is consumed by a receive the publisher's next transfer
  // already waits on transitively (the RVH pairwise exchanges); the ring's
  // verbatim blob forwarding reuses slots on a cycle where the required
  // fence would deadlock, so it stays on the default eager path.
  WireCompressor(Comm& comm, DType dtype, const CompressionOptions& opts,
                 std::size_t max_elems, bool bulk_views = false);
  ~WireCompressor();

  bool active() const { return opts_.active(); }
  const CompressionOptions& options() const { return opts_; }
  std::size_t wire_bytes(std::size_t elems) const {
    return compressed_wire_bytes(elems, opts_);
  }

  // ---- low-level blob ops (the ring allgather composes these) ------------
  void encode(int slot, const std::byte* data, std::size_t elems);
  // Encode, and overwrite `data` with the blob's decoded values in the same
  // cache-tiled pass (compress_f32's `decoded` output): afterwards `data` is
  // bit-identical to what any receiver of the blob decodes.
  void requantize(int slot, std::byte* data, std::size_t elems);
  void decode(int slot, std::byte* dest, std::size_t elems);
  void send_blob(int dst, int slot, std::size_t elems, std::size_t chunk,
                 int tag);
  void recv_blob(int src, int slot, std::size_t elems, std::size_t chunk,
                 int tag);

  // ---- one-shot transfers ------------------------------------------------
  // Compress `data` and stream the blob. For payloads whose local copy is
  // dead after the send (reduce-scatter halves — ownership moves to the
  // receiver).
  void send(int dst, const std::byte* data, std::size_t elems,
            std::size_t chunk, int tag);
  // Requantize `data` into slot 0, then stream the blob: afterwards the
  // local copy is bit-identical to what the receiver decodes. For allgather
  // sends, where both sides keep the segment.
  void send_requantize(int dst, std::byte* data, std::size_t elems,
                       std::size_t chunk, int tag);
  // Receive a blob and decompress it into `dest` (elems floats). In bulk
  // mode on a zero-copy transport the decode reads the peer's published
  // blob span directly, with no staging copy.
  void recv_into(int src, std::byte* dest, std::size_t elems,
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
      const std::byte* blob = blobs_[0]->data();
      BulkRecv held = comm_.recv_bulk(
          src, blobs_[0]->bytes(wire_bytes(elems)), chunk, tag,
          [&](const std::byte* base, std::size_t, std::size_t) {
            blob = base;
          });
      fn(blob);
      return;
    }
    recv_blob(src, 0, elems, chunk, tag);
    fn(static_cast<const std::byte*>(blobs_[0]->data()));
  }

 private:
  // Slot `slot`'s storage, once no published view of it is outstanding.
  std::byte* writable_slot(int slot);
  // Bulk-path blob send out of slot 0, recording the outstanding view.
  void send_bulk_blob(int dst, std::size_t elems, std::size_t chunk, int tag);

  Comm& comm_;
  CompressionOptions opts_;
  bool bulk_views_ = false;
  // A blob view published to a peer may still be under its decode; slot 0
  // must not be rewritten (encode / requantize) until it retires. Cleared by
  // the fence in writable_slot() and by the destructor's safety fence.
  bool blob_view_out_ = false;
  // Engaged only when active: an inactive compressor must not lease from the
  // pool at all — even a zero-byte lease would pull a warmed buffer off the
  // shared free list and perturb concurrent ranks' capacity hits (the
  // zero-warm-allocation chaos gates measure exactly this).
  std::optional<PooledBuffer> blobs_[2];
};

}  // namespace adasum
