// The recursive-vector-halving (RVH) halving/doubling executor behind both
// rvh_allreduce_sum and adasum_rvh_allreduce (DESIGN.md §8.1), for any group
// size.
//
// Algorithm 1 is the sum RVH schedule with a different per-level reduce, so
// one function owns the schedule and a REDUCER (a template parameter — no
// virtual call, no std::function) supplies the reduce. The executor owns:
//   * the level plan — per level the partner, which half stays, the split
//     point, the segment size and the tag — computed once into a pooled
//     record buffer; the analyzer declaration, the halving loop and the
//     unwind all read that one plan;
//   * the halving send and the receive of the kept half;
//   * the allgather unwind (forwarding owner sub-blobs on a compressed wire)
//     and the closing bulk_fence;
//   * the standard fold of a non-power-of-two group. With m = bit_floor(size)
//     the halving runs on the core, the group's first m members. Extra member
//     m+e ships its payload to core member e and waits for the result; core
//     member e folds it into its own with the reducer's fold hook before the
//     halving and ships the result back after the closing fence. The fold
//     transfers travel exact, as chunk streams at the pipeline chunk size.
//
// Zero-copy schedule: this rank's segment is always a contiguous window of
// the CALLER'S buffer. The partner's half is read where it was delivered
// (its published view, or the pooled payload of an eager message); only a
// chunked eager stream is staged, in one pooled scratch reused at every
// level. The reducer writes straight into the caller's storage, and the
// unwind lands each half at its final offset: no steady-state heap
// allocation and no trailing memcpy.
//
// Tag layout: level l exchanges halves on tag_base + 8*l, leaves +1 to the
// reducer (Adasum's dot-triple allreduce; the sum does not use it) and
// unwinds on +2. The fold ships in on tag_base + 3 and back on tag_base + 4,
// in level 0's unused slots.
//
// Reducer contract:
//   static constexpr const char* kEpoch;  // analyzer epoch name
//   Reducer(const RvhContext&, Args...);  // leases the reducer's scratch
//   // Uncompressed wire, per landed span [off, off+len) of the partner's
//   // half (bytes, relative to `theirs`):
//   void span(const RvhHalf&, const std::byte* theirs, std::size_t off,
//             std::size_t len);
//   // Uncompressed wire, once the whole half has landed; `theirs` (possibly
//   // the partner's published view) stays readable until this returns:
//   void landed(const RvhHalf&, const std::byte* theirs);
//   // Compressed wire: the partner's whole blob, readable until this returns:
//   void blob(const RvhHalf&, const std::byte* blob);
//   // Fold: combines an extra member's whole payload `theirs` (count
//   // elements) into this core member's `own`, in place:
//   void fold(std::byte* own, const std::byte* theirs, std::size_t count);
//   // Optional: declare the reducer's own messages for the strict analyzer.
//   void declare(analysis::EpochExpectation&, const RvhLevel&, int level);
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/compressed.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "comm/world.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"

namespace adasum {

// Per-call facts the reducers share with the executor.
struct RvhContext {
  Comm& comm;
  std::span<const int> group;  // empty = the whole world
  int size;                    // core size: the group's first `size` members
  int rank;                    // this rank's index in the group
  DType dtype;
  std::size_t elem;
  CompressionOptions comp;  // resolved wire codec

  int world_rank(int idx) const {
    return group.empty() ? idx : group[static_cast<std::size_t>(idx)];
  }
};

// One halving level of the plan, retained for the unwind.
struct RvhLevel {
  int neighbor = 0;           // world rank of the partner at distance 2^level
  bool is_left = false;       // left member of the pair: keeps the low half
  std::size_t mid = 0;        // split point of the segment at this level
  std::size_t seg_count = 0;  // segment size BEFORE the split
  int tag = 0;                // halving exchange; +1 reducer, +2 unwind
  // Unwind bytes of the kept and the sent half: on a compressed wire the
  // run of their final segments' sub-blobs, else the raw elements.
  std::size_t kept_wire = 0;
  std::size_t sent_wire = 0;
  // Compressed wire: byte offset of the kept half's run in blob slot 1,
  // which lays out the level-0 kept half's sub-blobs in segment order.
  std::size_t kept_at = 0;

  std::size_t kept() const { return is_left ? mid : seg_count - mid; }
  std::size_t sent() const { return seg_count - kept(); }
};

// A segment of `count` elements that the halving splits `splits` more times
// (left keeps count/2) ends as 2^splits final segments, one per owner. These
// walk that split tree in segment order.
//
// Bytes of the segment's unwind run: its owners' sub-blobs end to end.
inline std::size_t rvh_run_bytes(std::size_t count, int splits,
                                 const CompressionOptions& comp) {
  if (splits == 0) return sub_blob_bytes(count, comp);
  return rvh_run_bytes(count / 2, splits - 1, comp) +
         rvh_run_bytes(count - count / 2, splits - 1, comp);
}
// Decodes a run into the segment's floats, each sub-blob at its owner's
// element offset; returns the run's bytes.
inline std::size_t rvh_decode_run(const std::byte* run, float* dest,
                                  std::size_t count, int splits,
                                  const CompressionOptions& comp) {
  if (splits == 0) {
    if (count > 0) decompress_f32(run, comp, {dest, count});
    return sub_blob_bytes(count, comp);
  }
  const std::size_t low =
      rvh_decode_run(run, dest, count / 2, splits - 1, comp);
  return low + rvh_decode_run(run + low, dest + count / 2,
                              count - count / 2, splits - 1, comp);
}

// The half this rank keeps at one level, as the reducer sees it.
struct RvhHalf {
  int level;
  bool is_left;
  int tag;
  std::byte* own;     // the kept half, in the caller's buffer
  std::size_t begin;  // its global element offset
  std::size_t count;  // its length in elements
};

template <class Reducer, class... Args>
void rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                   DType dtype, int tag_base, std::span<const int> group,
                   const CompressionOptions& compression,
                   Args&&... reducer_args) {
  const int group_size =
      group.empty() ? comm.size() : static_cast<int>(group.size());
  if (group_size == 1 || count == 0) return;
  const int size =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(group_size)));
  const int rank = index_in_group(group, comm.rank());
  ADASUM_CHECK_MSG(rank >= 0, "calling rank must belong to the group");
  const std::size_t elem = dtype_size(dtype);
  // Chunk size for the bulk transfers (0 = monolithic), resolved through the
  // transport: a zero-copy transport collapses each transfer to one view, and
  // the declarations below follow.
  const std::size_t chunk =
      comm.bulk_chunk_bytes(comm.pipeline().chunk_bytes_for(elem));
  // Wire compression (DESIGN.md §13): the halving send ships a plain blob
  // (the local copy dies with the send), the unwind forwards each owner's
  // single blob so every rank ends bit-identical, and the reducers run on
  // decoded values.
  const RvhContext ctx{comm, group, size, rank, dtype, elem,
                       resolve_compression(comm, compression, dtype)};
  const int levels = std::countr_zero(static_cast<unsigned>(size));

  // The fold partner (-1 = none): core member e for extra member size+e and
  // the other way round. Each fold transfer is one whole-payload stream of
  // fold_messages chunks.
  const std::span<const std::byte> payload{data, count * elem};
  const bool extra = rank >= size;
  int fold_peer = -1;
  if (extra)
    fold_peer = ctx.world_rank(rank - size);
  else if (rank + size < group_size)
    fold_peer = ctx.world_rank(rank + size);
  const int fold_in_tag = tag_base + 3;
  const int fold_out_tag = tag_base + 4;
  const std::size_t fold_chunk = comm.pipeline().chunk_bytes_for(elem);
  const std::size_t fold_messages =
      fold_peer >= 0 ? chunk_messages(payload.size(), fold_chunk) : 0;

  // One analyzer epoch per call. Every message is declared before it moves:
  // the fold transfers here, the core's level messages off the plan below.
  // A drifted tag, partner or chunk count becomes an expected-vs-observed
  // diff in the epoch report instead of a hang.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), Reducer::kEpoch);
  if (epoch.declaring()) {
    for (std::size_t c = fold_messages; c > 0; --c) {
      epoch.expect().send(fold_peer, extra ? fold_in_tag : fold_out_tag);
      epoch.expect().recv(fold_peer, extra ? fold_out_tag : fold_in_tag);
    }
  }

  if (extra) {
    // Ship the payload to the core partner, take the result back. Nothing
    // else: no workspace, no plan.
    comm.send_chunks(fold_peer, payload, fold_chunk, fold_in_tag);
    comm.recv_chunks_into(fold_peer, {data, payload.size()}, fold_chunk,
                          fold_out_tag);
    return;
  }

  // Pooled workspace, leased once per call: the staging buffer, the
  // reducer's scratch, and the plan. The staging buffer receives a folding
  // rank's incoming payload, then every incoming half that arrives as a
  // chunked eager stream (the largest is the level-0 one; uncompressed only,
  // since the compressed reducers read straight off the wire blob). A half
  // that arrives as one message is read in place and needs none.
  std::size_t staged = 0;
  if (!ctx.comp.active() && !comm.bulk_in_place((count + 1) / 2 * elem, chunk))
    staged = (count + 1) / 2;
  if (fold_peer >= 0) staged = count;
  std::optional<PooledBuffer> half_buf;
  if (staged > 0) half_buf.emplace(comm.pool(), staged * elem);
  std::byte* const half = half_buf ? half_buf->data() : nullptr;
  Reducer reducer(ctx, std::forward<Args>(reducer_args)...);
  PooledBuffer plan_buf(comm.pool(),
                        static_cast<std::size_t>(levels) * sizeof(RvhLevel));
  const std::span<RvhLevel> plan =
      plan_buf.as<RvhLevel>(static_cast<std::size_t>(levels));
  std::size_t seg_count = count;
  std::size_t seg_at = 0;  // run offset of the segment (level >= 1)
  for (int l = 0; l < levels; ++l) {
    const int d = 1 << l;
    const bool is_left = ((rank / d) % 2) == 0;
    RvhLevel& lv = plan[static_cast<std::size_t>(l)];
    lv = RvhLevel{ctx.world_rank(is_left ? rank + d : rank - d), is_left,
                  seg_count / 2, seg_count, tag_base + 8 * l};
    const auto unwind_bytes = [&](std::size_t n) {
      return ctx.comp.active() ? rvh_run_bytes(n, levels - 1 - l, ctx.comp)
                               : n * elem;
    };
    lv.kept_wire = unwind_bytes(lv.kept());
    lv.sent_wire = unwind_bytes(lv.sent());
    lv.kept_at = l == 0 || is_left ? seg_at : seg_at + lv.sent_wire;
    seg_at = lv.kept_at;
    seg_count = lv.kept();
  }

  // Declare the level messages up front from the plan the loops below
  // execute. Every payload transfer goes through the wire codec, so messages
  // are sized by the same formula as the streams.
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    const auto messages = [&](std::size_t n) {
      return chunk_messages(wire_transfer_bytes(n, elem, ctx.comp), chunk);
    };
    for (int l = 0; l < levels; ++l) {
      const RvhLevel& lv = plan[static_cast<std::size_t>(l)];
      for (std::size_t c = messages(lv.sent()); c > 0; --c)
        ex.send(lv.neighbor, lv.tag);
      for (std::size_t c = messages(lv.kept()); c > 0; --c)
        ex.recv(lv.neighbor, lv.tag);
      if constexpr (requires { reducer.declare(ex, lv, l); })
        reducer.declare(ex, lv, l);
      for (std::size_t c = chunk_messages(lv.kept_wire, chunk); c > 0; --c)
        ex.send(lv.neighbor, lv.tag + 2);
      for (std::size_t c = chunk_messages(lv.sent_wire, chunk); c > 0; --c)
        ex.recv(lv.neighbor, lv.tag + 2);
    }
  }

  if (fold_peer >= 0) {
    comm.recv_chunks_into(fold_peer, {half, payload.size()}, fold_chunk,
                          fold_in_tag);
    reducer.fold(data, half, count);
  }

  // Compressed-wire helper (inert when the codec is off); the largest single
  // blob is the level-0 half, the largest run either level-0 half's.
  WireCompressor wc(comm, dtype, ctx.comp, (count + 1) / 2,
                    /*bulk_views=*/true,
                    std::max(plan[0].kept_wire, plan[0].sent_wire));

  // Halving: ship the partner's half, reduce the kept one as it lands. On a
  // zero-copy transport the uncompressed send publishes a VIEW of the
  // caller's buffer; that region stays untouched until this level's unwind
  // receive, which happens-after the partner released the view (its reduce
  // is sequenced before its unwind send).
  std::size_t seg_begin = 0;
  for (int l = 0; l < levels; ++l) {
    const RvhLevel& lv = plan[static_cast<std::size_t>(l)];
    std::byte* const seg = data + seg_begin * elem;
    std::byte* const out = lv.is_left ? seg + lv.mid * elem : seg;
    if (wc.active())
      wc.send(lv.neighbor, out, lv.sent(), chunk, lv.tag);
    else
      comm.send_bulk(lv.neighbor, {out, lv.sent() * elem}, chunk, lv.tag);
    if (!lv.is_left) seg_begin += lv.mid;
    const RvhHalf h{l,         lv.is_left, lv.tag, data + seg_begin * elem,
                    seg_begin, lv.kept()};
    if (wc.active()) {
      wc.recv_apply(lv.neighbor, h.count, chunk, lv.tag,
                    [&](const std::byte* blob) { reducer.blob(h, blob); });
    } else {
      // `theirs` is where the partner's half actually lives: the pooled
      // scratch for a chunked eager stream, else the delivered message (the
      // PEER's published span on a zero-copy transport). `held` keeps it
      // alive until landed() returns.
      const std::byte* theirs = half;
      BulkRecv held = comm.recv_bulk(
          lv.neighbor, h.count * elem, half, chunk, lv.tag,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            theirs = base;
            reducer.span(h, base, off, len);
          });
      reducer.landed(h, theirs);
    }
  }

  // Allgather unwind (Algorithm 1 lines 22-24): send the reduced segment,
  // receive the partner's at its final offset. A compressed unwind encodes
  // each final segment ONCE, by its owner, here at the deepest level, and
  // writes the decoded values back over the owner's copy. Every higher level
  // forwards runs of those owner sub-blobs verbatim from slot 1 (one
  // contiguous range per send, laid out by the plan's kept_at) and decodes
  // each received sub-blob at its offset, so every replica of a segment is
  // the decode of the same bytes. Nothing is re-encoded on the way up.
  seg_count = plan[static_cast<std::size_t>(levels - 1)].kept();
  if (wc.active())
    wc.requantize(1, data + seg_begin * elem, seg_count,
                  plan[static_cast<std::size_t>(levels - 1)].kept_at);
  for (int l = levels - 1; l >= 0; --l) {
    const RvhLevel& lv = plan[static_cast<std::size_t>(l)];
    std::byte* const seg = data + seg_begin * elem;
    // Unwind segments and runs published as views are never rewritten
    // before the closing fence.
    if (wc.active())
      wc.send_run(lv.neighbor, lv.kept_at, lv.kept_wire, chunk, lv.tag + 2);
    else
      comm.send_bulk(lv.neighbor, {seg, seg_count * elem}, chunk, lv.tag + 2);
    std::byte* const dest = lv.is_left ? seg + lv.mid * elem
                                       : seg - lv.mid * elem;
    if (!lv.is_left) seg_begin -= lv.mid;
    if (wc.active()) {
      const auto decode = [&](const std::byte* run) {
        rvh_decode_run(run, reinterpret_cast<float*>(dest), lv.sent(),
                       levels - 1 - l, ctx.comp);
      };
      // Level 0's run is final; every other one is forwarded next level,
      // into the slot range beside the kept half's run.
      if (l == 0)
        wc.recv_run_apply(lv.neighbor, lv.sent_wire, chunk, lv.tag + 2,
                          decode);
      else
        decode(wc.recv_run(lv.neighbor,
                           lv.is_left ? lv.kept_at + lv.kept_wire
                                      : lv.kept_at - lv.sent_wire,
                           lv.sent_wire, chunk, lv.tag + 2));
    } else {
      // The landed segment is final output the caller reads much later, so
      // a message read in place (the peer's view, or an eager monolithic
      // payload) is deposited with non-temporal stores; a chunked eager
      // stream already landed straight in `dest` (base == dest) and needs
      // no copy at all.
      BulkRecv held = comm.recv_bulk(
          lv.neighbor, lv.sent() * elem, dest, chunk, lv.tag + 2,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            if (base != dest)
              kernels::stream_copy_bytes(base + off, dest + off, len);
          });
    }
    seg_count = lv.seg_count;
  }

  // Close the tail race: the last unwind views this rank published may still
  // be under the partner's copy. Past the fence the caller owns its buffer
  // again. (No-op on buffered transports.)
  comm.bulk_fence();
  ADASUM_CHECK_EQ(seg_begin, 0u);
  ADASUM_CHECK_EQ(seg_count, count);
  if (fold_peer >= 0)
    comm.send_chunks(fold_peer, payload, fold_chunk, fold_out_tag);
}

}  // namespace adasum
