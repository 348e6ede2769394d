#include "collectives/sum_allreduce.h"

#include <bit>
#include <cstring>
#include <vector>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/compressed.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

// Chunk boundaries for the ring schedule: chunk c covers
// [c*count/p, (c+1)*count/p) rounded so the chunks tile the payload.
std::size_t chunk_begin(std::size_t count, int p, int c) {
  return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
}

}  // namespace

void ring_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                        DType dtype, int tag_base,
                        const CompressionOptions& compression) {
  const int p = comm.size();
  if (p == 1 || count == 0) return;
  const int rank = comm.rank();
  const std::size_t elem = dtype_size(dtype);
  const int next = (rank + 1) % p;
  const int prev = (rank + p - 1) % p;
  const std::size_t chunk = comm.pipeline().chunk_bytes_for(elem);
  const CompressionOptions comp = resolve_compression(comm, compression, dtype);

#if ADASUM_ANALYZE
  // Ring schedule: p-1 reduce-scatter steps on tag_base+s, p-1 allgather
  // steps on tag_base+p+s, always to `next` / from `prev`. Each step's
  // segment may travel as a chunk stream; the declaration computes the same
  // per-step chunk counts as the transfers below.
  analysis::EpochGuard epoch(comm.analyzer(), rank, "ring_allreduce_sum");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    const auto seg_bytes = [&](int c) {
      // Wire bytes per segment: a compressed segment travels as a blob of
      // the same size at every hop (the allgather forwards it verbatim).
      return wire_transfer_bytes(
          chunk_begin(count, p, c + 1) - chunk_begin(count, p, c), elem, comp);
    };
    for (int s = 0; s < p - 1; ++s) {
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s + p) % p), chunk);
           c > 0; --c)
        ex.send(next, tag_base + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s - 1 + p) % p), chunk);
           c > 0; --c)
        ex.recv(prev, tag_base + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank + 1 - s + p) % p), chunk);
           c > 0; --c)
        ex.send(next, tag_base + p + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s + p) % p), chunk);
           c > 0; --c)
        ex.recv(prev, tag_base + p + s);
    }
  }
#endif

  // Reduce-scatter: after step s, rank r has accumulated chunk
  // (r - s + p) % p from s+1 ranks; after p-1 steps rank r owns the full sum
  // of chunk (r + 1) % p. Incoming chunks stage in one pooled buffer sized
  // for the largest chunk.
  const std::size_t max_chunk =
      (count + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
  PooledBuffer scratch(comm.pool(), max_chunk * elem);
  WireCompressor wc(comm, dtype, comp, max_chunk);
  for (int s = 0; s < p - 1; ++s) {
    const int send_chunk = (rank - s + p) % p;
    const int recv_chunk = (rank - s - 1 + p) % p;
    const std::size_t sb = chunk_begin(count, p, send_chunk);
    const std::size_t se = chunk_begin(count, p, send_chunk + 1);
    // The outgoing partial's local copy is overwritten by the allgather, so
    // the compressed path ships a plain blob.
    if (wc.active())
      wc.send(next, data + sb * elem, se - sb, chunk, tag_base + s);
    else
      comm.send_chunks(next, {data + sb * elem, (se - sb) * elem}, chunk,
                       tag_base + s);
    const std::size_t rb = chunk_begin(count, p, recv_chunk);
    const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
    if (wc.active()) {
      // Fused decode-add (DESIGN.md §17): the incoming blob is reduced into
      // the resident chunk in one pass over the wire bytes — no decoded
      // staging buffer is written or re-read. Accumulation still runs on the
      // decoded fp32 values through the double-accumulating kernel (§4.4.1),
      // bit-identical to decompress-then-add.
      wc.recv_apply(prev, re - rb, chunk, tag_base + s,
                    [&](const std::byte* blob) {
                      decompress_add_f32(
                          blob, wc.options(), re - rb, /*offset=*/0,
                          {reinterpret_cast<float*>(data + rb * elem),
                           re - rb});
                    });
    } else {
      // The sum is elementwise, so each chunk is added the moment it lands —
      // bit-identical to the whole-segment add, but overlapped with the
      // remaining transfers of the stream.
      comm.recv_chunks_into(prev, scratch.bytes((re - rb) * elem), chunk,
                            tag_base + s,
                            [&](std::size_t off, std::size_t len) {
                              kernels::add_bytes(scratch.data() + off,
                                                 data + rb * elem + off,
                                                 len / elem, dtype);
                            });
    }
  }

  // Allgather: circulate the owned (fully reduced) chunks, each received
  // directly at its final offset.
  if (wc.active()) {
    // Verbatim blob forwarding: chunk c's blob is created ONCE by its owner
    // and forwarded unchanged hop to hop; every rank (owner included, via
    // the s == 0 requantize of its own blob) materializes chunk c from the
    // same bytes, so replicas end bit-identical. Re-encoding at each hop
    // would instead hand every rank a different quantization generation.
    int hold = 0;
    int incoming = 1;
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank + 1 - s + p) % p;
      const int recv_chunk = (rank - s + p) % p;
      const std::size_t sb = chunk_begin(count, p, send_chunk);
      const std::size_t se = chunk_begin(count, p, send_chunk + 1);
      if (s == 0) wc.requantize(hold, data + sb * elem, se - sb);
      wc.send_blob(next, hold, se - sb, chunk, tag_base + p + s);
      const std::size_t rb = chunk_begin(count, p, recv_chunk);
      const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
      wc.recv_blob(prev, incoming, re - rb, chunk, tag_base + p + s);
      wc.decode(incoming, data + rb * elem, re - rb);
      std::swap(hold, incoming);
    }
  } else {
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank + 1 - s + p) % p;
      const int recv_chunk = (rank - s + p) % p;
      const std::size_t sb = chunk_begin(count, p, send_chunk);
      const std::size_t se = chunk_begin(count, p, send_chunk + 1);
      comm.send_chunks(next, {data + sb * elem, (se - sb) * elem}, chunk,
                       tag_base + p + s);
      const std::size_t rb = chunk_begin(count, p, recv_chunk);
      const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
      comm.recv_chunks_into(prev, {data + rb * elem, (re - rb) * elem}, chunk,
                            tag_base + p + s);
    }
  }
}

// Zero-copy RVH sum: like the Adasum variant (adasum_rvh.cpp) the segment is
// a contiguous window of the caller's buffer, only the neighbor's half is
// staged in pooled scratch, and the allgather deposits halves at their final
// offsets — no per-level vectors, no merged rebuild, no trailing memcpy.
void rvh_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                       DType dtype, int tag_base, std::span<const int> group,
                       const CompressionOptions& compression) {
  const int size =
      group.empty() ? comm.size() : static_cast<int>(group.size());
  if (size == 1 || count == 0) return;
  ADASUM_CHECK_MSG(std::has_single_bit(static_cast<unsigned>(size)),
                   "RVH requires a power-of-two group size");
  const auto world_rank = [&](int idx) {
    return group.empty() ? idx : group[static_cast<std::size_t>(idx)];
  };
  int rank = comm.rank();
  if (!group.empty()) {
    rank = -1;
    for (std::size_t i = 0; i < group.size(); ++i)
      if (group[i] == comm.rank()) rank = static_cast<int>(i);
    ADASUM_CHECK_MSG(rank >= 0, "calling rank must belong to the group");
  }
  const std::size_t elem = dtype_size(dtype);
  // Resolved through the transport: a zero-copy transport collapses each
  // transfer to one monolithic view, and the declarations below follow.
  const std::size_t chunk =
      comm.bulk_chunk_bytes(comm.pipeline().chunk_bytes_for(elem));
  const CompressionOptions comp = resolve_compression(comm, compression, dtype);

#if ADASUM_ANALYZE
  // Pairwise halving/doubling: per level one half exchange on
  // tag_base + 4*level and one unwind exchange on +1, both with the level's
  // hypercube neighbor, each possibly split into a chunk stream. The
  // declaration walks the same segment halving as the execution so the
  // per-transfer chunk counts match.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(),
                             "rvh_allreduce_sum");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    // Every payload transfer (halves and unwound segments) travels through
    // the wire codec, so the declaration sizes messages the same way.
    const auto wire = [&](std::size_t n) {
      return wire_transfer_bytes(n, elem, comp);
    };
    std::size_t dcl_count = count;
    int lvl = 0;
    for (int d = 1; d < size; d <<= 1, ++lvl) {
      const bool left = ((rank / d) % 2) == 0;
      const int nb = world_rank(left ? rank + d : rank - d);
      const std::size_t dcl_mid = dcl_count / 2;
      const std::size_t kept = left ? dcl_mid : dcl_count - dcl_mid;
      const std::size_t sent = dcl_count - kept;
      for (std::size_t c = chunk_messages(wire(sent), chunk); c > 0; --c)
        ex.send(nb, tag_base + 4 * lvl);
      for (std::size_t c = chunk_messages(wire(kept), chunk); c > 0; --c)
        ex.recv(nb, tag_base + 4 * lvl);
      for (std::size_t c = chunk_messages(wire(kept), chunk); c > 0; --c)
        ex.send(nb, tag_base + 4 * lvl + 1);
      for (std::size_t c = chunk_messages(wire(sent), chunk); c > 0; --c)
        ex.recv(nb, tag_base + 4 * lvl + 1);
      dcl_count = kept;
    }
  }
#endif

  struct Level {
    int neighbor;
    bool is_left;
    std::size_t mid, seg_count;
    int tag;
  };
  const int levels = std::countr_zero(static_cast<unsigned>(size));
  PooledBuffer half_buf(comm.pool(), ((count + 1) / 2) * elem);
  std::byte* const half = half_buf.data();
  PooledBuffer records_buf(comm.pool(),
                           static_cast<std::size_t>(levels) * sizeof(Level));
  const std::span<Level> records =
      records_buf.as<Level>(static_cast<std::size_t>(levels));
  WireCompressor wc(comm, dtype, comp, (count + 1) / 2, /*bulk_views=*/true);

  std::size_t seg_begin = 0;
  std::size_t seg_count = count;

  int level = 0;
  for (int d = 1; d < size; d <<= 1, ++level) {
    const bool is_left = ((rank / d) % 2) == 0;
    const int neighbor = is_left ? rank + d : rank - d;
    const std::size_t mid = seg_count / 2;
    const int tag = tag_base + 4 * level;
    std::byte* const seg = data + seg_begin * elem;
    records[static_cast<std::size_t>(level)] =
        Level{neighbor, is_left, mid, seg_count, tag};
    // The half shipped here leaves this rank's working set for good
    // (ownership transfers to the neighbor), so the compressed path sends a
    // plain blob — no requantize needed until the unwind.
    // On a zero-copy transport the uncompressed branch publishes a VIEW of
    // the caller's buffer. The region stays untouched until this level's
    // unwind receive, which happens-after the neighbor consumed the view
    // (its forward receive precedes its unwind send) — same argument as the
    // Adasum variant in adasum_rvh.cpp.
    const auto send_half = [&](std::byte* ptr, std::size_t n) {
      if (wc.active())
        wc.send(world_rank(neighbor), ptr, n, chunk, tag);
      else
        comm.send_bulk(world_rank(neighbor), {ptr, n * elem}, chunk, tag);
    };
    std::byte* kept;
    std::size_t kept_count;
    if (is_left) {
      send_half(seg + mid * elem, seg_count - mid);
      kept = seg;
      kept_count = mid;
    } else {
      send_half(seg, mid);
      kept = seg + mid * elem;
      kept_count = seg_count - mid;
      seg_begin += mid;
    }
    if (wc.active()) {
      // Fused decode-add straight off the (possibly zero-copy) blob view:
      // one pass over the wire bytes into the kept half, no decoded staging
      // copy. Bit-identical to decompress-then-add, and the sum still runs
      // on decoded fp32 values with double accumulation.
      wc.recv_apply(world_rank(neighbor), kept_count, chunk, tag,
                    [&](const std::byte* blob) {
                      decompress_add_f32(
                          blob, wc.options(), kept_count, /*offset=*/0,
                          {reinterpret_cast<float*>(kept), kept_count});
                    });
    } else {
      // Elementwise sum: add each incoming span where it lands — pooled
      // scratch on the eager path (overlapping the remaining transfers of
      // the stream), the PEER's published span on a zero-copy transport.
      // Bit-identical to the whole-half add either way. Every read finishes
      // inside the callback, so the view retires when the handle does.
      BulkRecv held = comm.recv_bulk(
          world_rank(neighbor), {half, kept_count * elem}, chunk, tag,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            kernels::add_bytes(base + off, kept + off, len / elem, dtype);
          });
    }
    seg_count = kept_count;
  }

  for (int l = levels - 1; l >= 0; --l) {
    const Level& r = records[static_cast<std::size_t>(l)];
    if (wc.active()) {
      // Requantize-on-unwind: decode the blob just shipped over the local
      // copy so both sides of the exchange hold bit-identical values — the
      // same consistency argument as the Adasum RVH allgather.
      wc.send_requantize(world_rank(r.neighbor), data + seg_begin * elem,
                         seg_count, chunk, r.tag + 1);
    } else {
      // Unwind segments published as views are never rewritten before the
      // collective's closing fence.
      comm.send_bulk(world_rank(r.neighbor),
                     {data + seg_begin * elem, seg_count * elem}, chunk,
                     r.tag + 1);
    }
    std::byte* dest;
    std::size_t dest_count;
    if (r.is_left) {
      dest = data + (seg_begin + r.mid) * elem;
      dest_count = r.seg_count - r.mid;
    } else {
      dest = data + (seg_begin - r.mid) * elem;
      dest_count = r.mid;
      seg_begin -= r.mid;
    }
    if (wc.active()) {
      wc.recv_into(world_rank(r.neighbor), dest, dest_count, chunk,
                   r.tag + 1);
    } else {
      // The landed segment is final output the caller reads much later, so
      // the zero-copy path deposits the peer's span with non-temporal
      // stores; the eager path already received straight into `dest`
      // (base == dest) and needs no copy at all.
      BulkRecv held = comm.recv_bulk(
          world_rank(r.neighbor), {dest, dest_count * elem}, chunk, r.tag + 1,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            if (base != dest)
              kernels::stream_copy_bytes(base + off, dest + off, len);
          });
    }
    seg_count = r.seg_count;
  }
  // Retire any views this rank still has published (the last unwind sends)
  // before the caller touches its buffer again. No-op on buffered
  // transports.
  comm.bulk_fence();
  ADASUM_CHECK_EQ(seg_count, count);
}

void ring_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base,
                        const CompressionOptions& compression) {
  ring_allreduce_sum(comm, tensor.data(), tensor.size(), tensor.dtype(),
                     tag_base, compression);
}
void rvh_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base,
                       const CompressionOptions& compression) {
  rvh_allreduce_sum(comm, tensor.data(), tensor.size(), tensor.dtype(),
                    tag_base, {}, compression);
}

}  // namespace adasum
