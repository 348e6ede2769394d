#include "collectives/adasum_rvh.h"

#include <bit>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/compressed.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "core/adasum.h"
#include "tensor/kernels.h"
#include "tensor/parallel/pool.h"

namespace adasum {
namespace {

// One reduce-scatter level retained for the allgather unwind.
struct LevelRecord {
  int neighbor = 0;
  bool is_left = false;       // brank/dc even — left member of the pair
  std::size_t mid = 0;        // split point of the segment at this level
  std::size_t seg_count = 0;  // segment size BEFORE the split
  int tag = 0;
};

// Returns the intersection of [s.offset, s.offset+s.count) with
// [begin, end), as offsets relative to `begin`; count 0 if disjoint.
struct SliceLocal {
  std::size_t local_offset = 0;
  std::size_t count = 0;
};
SliceLocal intersect(const TensorSlice& s, std::size_t begin,
                     std::size_t end) {
  const std::size_t lo = std::max(s.offset, begin);
  const std::size_t hi = std::min(s.offset + s.count, end);
  if (hi <= lo) return {0, 0};
  return {lo - begin, hi - lo};
}

}  // namespace

// Zero-copy schedule: this rank's segment is always the contiguous range
// [seg_begin, seg_begin + seg_count) of the CALLER'S buffer, never a copy.
// Per reduce-scatter level only the neighbor's half is staged (into one
// pooled scratch that is reused at every level), the combiner writes straight
// into the caller's storage, and the allgather unwind receives each half
// directly at its final offset — so the whole collective performs no heap
// allocation at steady state and no trailing memcpy. The arithmetic and the
// message pattern are identical to the copy-based formulation (see
// adasum_rvh_reference.h, which tests hold bit-for-bit against this one).
void adasum_rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                          DType dtype, std::span<const TensorSlice> slices,
                          int tag_base, std::span<const int> group,
                          const CompressionOptions& compression) {
  const int size =
      group.empty() ? comm.size() : static_cast<int>(group.size());
  if (size == 1) return;
  ADASUM_CHECK_MSG(std::has_single_bit(static_cast<unsigned>(size)),
                   "AdasumRVH requires a power-of-two group size");
  // Index of this rank within the participating group, and the map from
  // group index to world rank.
  const auto world_rank = [&](int idx) {
    return group.empty() ? idx : group[static_cast<std::size_t>(idx)];
  };

  // Whole payload as a single layer when no boundary table is given.
  const TensorSlice whole{"all", 0, count};
  const std::span<const TensorSlice> layers =
      slices.empty() ? std::span<const TensorSlice>{&whole, 1} : slices;
  const std::size_t num_layers = layers.size();
  const std::size_t elem = dtype_size(dtype);
  int rank = comm.rank();
  if (!group.empty()) {
    rank = -1;
    for (std::size_t i = 0; i < group.size(); ++i)
      if (group[i] == comm.rank()) rank = static_cast<int>(i);
    ADASUM_CHECK_MSG(rank >= 0, "calling rank must belong to the group");
  }
  // Chunk size for the bulk transfers (0 = monolithic single messages),
  // resolved through the transport: a zero-copy transport collapses the
  // stream to one monolithic view (there is no payload movement left to
  // overlap), so the analyzer declarations below and the actual transfers
  // agree by construction. The small dot-triple allreduce always travels
  // whole.
  const std::size_t chunk =
      comm.bulk_chunk_bytes(comm.pipeline().chunk_bytes_for(elem));
  // Wire compression for the bulk transfers (DESIGN.md §13): the halving
  // exchange ships compressed halves (the local copy dies with the send),
  // the allgather requantizes so every rank ends bit-identical, and the dot
  // triples below always run on decompressed values in double (§4.4.1).
  const CompressionOptions comp = resolve_compression(comm, compression, dtype);

#if ADASUM_ANALYZE
  // Declare the full expected message schedule up front, from the same
  // formulas the loops below execute: per level the half exchange
  // (tag_base + 8*level), the dot-triple allreduce over the 2d-subgroup
  // (+1) and the allgather unwind (+2). A drifted tag or neighbor
  // computation becomes an expected-vs-observed diff in the epoch report
  // instead of a hang. The declaration walks the same segment halving as the
  // execution so the per-transfer chunk counts match the pipelined streams.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), "adasum_rvh");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    // Bytes a transfer of n elements puts on the wire: compression shrinks
    // the chunk counts, and the same formula drives the actual streams.
    const auto wire = [&](std::size_t n) {
      return wire_transfer_bytes(n, elem, comp);
    };
    std::size_t dcl_count = count;  // segment size entering each level
    int lvl = 0;
    for (int d = 1; d < size; d <<= 1, ++lvl) {
      const bool left = ((rank / d) % 2) == 0;
      const int nb = world_rank(left ? rank + d : rank - d);
      const int tag = tag_base + 8 * lvl;
      const std::size_t dcl_mid = dcl_count / 2;
      const std::size_t kept = left ? dcl_mid : dcl_count - dcl_mid;
      const std::size_t sent = dcl_count - kept;
      // Halving exchange: this rank streams the complement and receives its
      // kept half; the allgather unwind mirrors the sizes.
      for (std::size_t c = chunk_messages(wire(sent), chunk); c > 0; --c)
        ex.send(nb, tag);
      for (std::size_t c = chunk_messages(wire(kept), chunk); c > 0; --c)
        ex.recv(nb, tag);
      const int d2 = 2 * d;
      std::vector<int> sub(static_cast<std::size_t>(d2));
      for (int i = 0; i < d2; ++i)
        sub[static_cast<std::size_t>(i)] = world_rank((rank / d2) * d2 + i);
      ex.allreduce_doubles(sub, comm.rank(), tag + 1);
      for (std::size_t c = chunk_messages(wire(kept), chunk); c > 0; --c)
        ex.send(nb, tag + 2);
      for (std::size_t c = chunk_messages(wire(sent), chunk); c > 0; --c)
        ex.recv(nb, tag + 2);
      dcl_count = kept;
    }
  }
#endif

  // Pooled scratch workspace, leased once per call: the incoming half (the
  // largest is ceil(count/2) elements at level 0; uncompressed only — the
  // compressed path reduces straight off the wire blob), the per-layer
  // dot-product triples, the triple-allreduce subgroup, and the level
  // records.
  const int levels = std::countr_zero(static_cast<unsigned>(size));
  BufferPool& pool = comm.pool();
  std::optional<PooledBuffer> half_buf;
  if (!comp.active()) half_buf.emplace(pool, ((count + 1) / 2) * elem);
  std::byte* const half = half_buf ? half_buf->data() : nullptr;
  PooledBuffer triples_buf(pool, 3 * num_layers * sizeof(double));
  const std::span<double> triples = triples_buf.as<double>(3 * num_layers);
  PooledBuffer subgroup_buf(pool, static_cast<std::size_t>(size) * sizeof(int));
  const std::span<int> subgroup_all =
      subgroup_buf.as<int>(static_cast<std::size_t>(size));
  PooledBuffer records_buf(pool,
                           static_cast<std::size_t>(levels) *
                               sizeof(LevelRecord));
  const std::span<LevelRecord> records =
      records_buf.as<LevelRecord>(static_cast<std::size_t>(levels));
  // Compressed-wire helper (inert when comp is off); the largest single
  // transfer is the level-0 half.
  WireCompressor wc(comm, dtype, comp, (count + 1) / 2, /*bulk_views=*/true);

  // Current segment of the logical vector owned by this rank, in place.
  std::size_t seg_begin = 0;  // global element offset of the segment
  std::size_t seg_count = count;

  int level = 0;
  for (int d = 1; d < size; d <<= 1, ++level) {
    const bool is_left = ((rank / d) % 2) == 0;
    const int neighbor = is_left ? rank + d : rank - d;
    const std::size_t mid = seg_count / 2;
    const int tag = tag_base + 8 * level;
    std::byte* const seg = data + seg_begin * elem;
    records[static_cast<std::size_t>(level)] =
        LevelRecord{neighbor, is_left, mid, seg_count, tag};

    // Exchange halves. Left keeps/combines the left half; right the right.
    // `a` is the left subgroup's slice, `b` the right subgroup's; whichever
    // belongs to this rank stays in the caller's buffer and receives the
    // combined result, the other is staged in `half`. The outgoing half is
    // streamed in chunks so the neighbor can overlap its dot passes with the
    // remaining transfers.
    // The outgoing half's local copy is dead after the send (its ownership
    // moves to the neighbor), so the compressed path ships a plain blob —
    // no requantize needed until the allgather.
    // On a zero-copy transport send_bulk publishes a VIEW of the caller's
    // buffer. That region stays untouched by this rank until the matching
    // unwind receive — which happens-after the neighbor released the view
    // (its combiner is sequenced before its unwind send) — so the span is
    // stable for as long as the neighbor reads it.
    const auto send_half = [&](std::byte* p, std::size_t n) {
      if (wc.active())
        wc.send(world_rank(neighbor), p, n, chunk, tag);
      else
        comm.send_bulk(world_rank(neighbor), {p, n * elem}, chunk, tag);
    };
    std::byte* own;
    if (is_left) {
      send_half(seg + mid * elem, seg_count - mid);
      own = seg;
      seg_count = mid;
    } else {
      send_half(seg, mid);
      own = seg + mid * elem;
      seg_begin += mid;
      seg_count = seg_count - mid;
    }
    const std::size_t seg_end = seg_begin + seg_count;

    // Receive the neighbor's half as a chunk stream (half[i] lines up with
    // segment-local element i), computing each layer's partial dot triple
    // (Algorithm 1 line 15) the moment the last element of its intersection
    // with the segment lands. Layers advance in ascending order over the
    // identical contiguous spans the monolithic path feeds the kernel, so
    // the accumulated doubles are bit-for-bit the same for every chunk size
    // — the pipelining only lets the dot of chunk i overlap the transfer of
    // chunk i+1. Layers disjoint from the segment flush immediately with
    // zero triples, exactly like the monolithic loop. `layer_dot(loc)`
    // returns one layer's triple over its segment-local slice: a staged
    // dot_triple on the uncompressed path, the fused decode-dot off the wire
    // blob on the compressed one.
    std::size_t next_layer = 0;
    const auto flush_dots = [&](std::size_t received_elems,
                                const auto& layer_dot) {
      // Advance past every layer whose intersection has fully landed.
      const std::size_t first = next_layer;
      while (next_layer < num_layers) {
        const SliceLocal loc =
            intersect(layers[next_layer], seg_begin, seg_end);
        if (loc.count > 0 && loc.local_offset + loc.count > received_elems)
          break;
        ++next_layer;
      }
      const auto dot_layer = [&](std::size_t l) {
        const SliceLocal loc = intersect(layers[l], seg_begin, seg_end);
        kernels::DotTriple t;
        if (loc.count > 0) t = layer_dot(loc);
        triples[3 * l + 0] = t.ab;
        triples[3 * l + 1] = t.aa;
        triples[3 * l + 2] = t.bb;
      };
      // Layer-level fan-out (DESIGN.md §17): the dot wrappers themselves stay
      // monolithic at every ADASUM_THREADS setting (tiling their double
      // accumulators would change the bits), so dot parallelism comes from
      // distributing WHOLE layers over the pool instead. Each layer is one
      // kernel call writing its own triples[3l..] slot — disjoint writes, the
      // per-layer accumulation order never changes, and the result is
      // bit-identical no matter which thread runs which layer.
      const std::size_t ready = next_layer - first;
      if (ready > 1 && parallel::enabled() &&
          seg_count * elem >= (std::size_t{1} << 20)) {
        parallel::for_tiles(ready, /*grain=*/1, /*quantum=*/1,
                            [&](std::size_t, std::size_t lb, std::size_t le) {
                              for (std::size_t i = lb; i < le; ++i)
                                dot_layer(first + i);
                            });
      } else {
        for (std::size_t l = first; l < next_layer; ++l) dot_layer(l);
      }
    };
    // Finishing sequence shared by both receive paths: complete the dot
    // products across the 2d-rank group (line 16-17), then apply the combiner
    // per layer straight into the caller's storage (line 18). `combine_layer`
    // performs one layer's ca*a + cb*b; the compressed path passes a fused
    // kernel that decodes its operand off the held wire blob. Elements the
    // boundary table does not cover keep this rank's own contribution (they
    // never occur when the layers tile the payload).
    const auto finish = [&](auto&& combine_layer) {
      ADASUM_CHECK_EQ(next_layer, num_layers);
      const int d2 = 2 * d;
      const int group_base = (rank / d2) * d2;
      const std::span<int> subgroup =
          subgroup_all.subspan(0, static_cast<std::size_t>(d2));
      for (int i = 0; i < d2; ++i)
        subgroup[static_cast<std::size_t>(i)] = world_rank(group_base + i);
      comm.allreduce_sum_doubles_inplace(triples, subgroup, tag + 1);
      for (std::size_t l = 0; l < num_layers; ++l) {
        const SliceLocal loc = intersect(layers[l], seg_begin, seg_end);
        if (loc.count == 0) continue;
        const kernels::DotTriple t{triples[3 * l + 0], triples[3 * l + 1],
                                   triples[3 * l + 2]};
        combine_layer(loc, adasum_factors(t));
      }
    };
    // The view (when one is live) must survive past the dot triples: the
    // combiner reads the peer's span (or wire blob) again after the
    // allreduce. `held` keeps the uncompressed view alive to the end of the
    // iteration, whose close releases it — unblocking the neighbor's fence;
    // recv_apply holds the compressed blob view for the callback's body the
    // same way.
    if (wc.active()) {
      // A compressed half is reduced after the full blob lands (the scale
      // sideband precedes the payload), STRAIGHT OFF THE WIRE BYTES
      // (DESIGN.md §17): per layer, the fused decode-dot reads 1-4 bits or 1
      // byte per element of the neighbor's half plus this rank's own slice,
      // and the combiner re-decodes the slice fused with the scaled sum. No
      // decoded copy of the half is ever written; the wire stream itself
      // stays chunked. Bit contract: decompress_dot_triple_f32 and
      // decompress_combine_f32 are exactly decompress + dot_triple /
      // scaled_sum on the same dispatch level, so the result matches the
      // staged formulation bit for bit. `own` holds the left slice (a) when
      // this rank is left, the right slice (b) otherwise; the decoded half
      // takes the remaining operand slot.
      wc.recv_apply(
          world_rank(neighbor), seg_count, chunk, tag,
          [&](const std::byte* blob) {
            float* const own_f = reinterpret_cast<float*>(own);
            flush_dots(seg_count, [&](const SliceLocal& loc) {
              return decompress_dot_triple_f32(
                  blob, wc.options(), seg_count, loc.local_offset,
                  {own_f + loc.local_offset, loc.count},
                  /*deq_is_b=*/is_left);
            });
            finish([&](const SliceLocal& loc, const AdasumFactors& f) {
              decompress_combine_f32(
                  blob, wc.options(), seg_count, loc.local_offset,
                  {own_f + loc.local_offset, loc.count},
                  /*c_other=*/is_left ? f.ca : f.cb,
                  /*c_deq=*/is_left ? f.cb : f.ca,
                  /*deq_is_b=*/is_left,
                  {own_f + loc.local_offset, loc.count});
            });
          });
    } else {
      // Where the neighbor's half actually lives while we reduce over it:
      // the pooled scratch on the eager path, the PEER's published span on a
      // zero-copy transport (the recv_bulk callback rebinds it). `a` is
      // always the left subgroup's slice, `b` the right's.
      const std::byte* theirs = half;
      const auto a_ptr = [&]() { return is_left ? own : theirs; };
      const auto b_ptr = [&]() { return is_left ? theirs : own; };
      const auto staged_dot = [&](const SliceLocal& loc) {
        return kernels::dot_triple_bytes(a_ptr() + loc.local_offset * elem,
                                         b_ptr() + loc.local_offset * elem,
                                         loc.count, dtype);
      };
      BulkRecv held = comm.recv_bulk(
          world_rank(neighbor), {half, seg_count * elem}, chunk, tag,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            theirs = base;
            flush_dots((off + len) / elem, staged_dot);
          });
      const std::byte* const a = a_ptr();
      const std::byte* const b = b_ptr();
      finish([&](const SliceLocal& loc, const AdasumFactors& f) {
        kernels::scaled_sum_bytes(a + loc.local_offset * elem, f.ca,
                                  b + loc.local_offset * elem, f.cb,
                                  own + loc.local_offset * elem, loc.count,
                                  dtype);
      });
    }
  }

  // Allgather unwind (lines 22-24): send the combined segment, receive the
  // neighbor's half directly at its final offset in the caller's buffer,
  // both as chunk streams so consecutive levels' transfers interleave.
  // Compressed unwind: the sender requantizes (overwrites its own copy with
  // the decoded blob in the encode pass, then ships that blob), so partners
  // hold bit-identical segments at every level — and since the codec is
  // deterministic, the blobs they then emit upward are identical too,
  // keeping the whole group consistent.
  for (int l = levels - 1; l >= 0; --l) {
    const LevelRecord& r = records[static_cast<std::size_t>(l)];
    if (wc.active())
      wc.send_requantize(world_rank(r.neighbor), data + seg_begin * elem,
                         seg_count, chunk, r.tag + 2);
    else
      comm.send_bulk(world_rank(r.neighbor),
                     {data + seg_begin * elem, seg_count * elem}, chunk,
                     r.tag + 2);
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
      wc.recv_into(world_rank(r.neighbor), dest, dest_count, chunk, r.tag + 2);
    } else {
      // The landed segment is final output the caller reads much later, so
      // the zero-copy path deposits the peer's span with non-temporal
      // stores; the eager path already received straight into `dest`
      // (base == dest) and needs no copy at all.
      BulkRecv held = comm.recv_bulk(
          world_rank(r.neighbor), {dest, dest_count * elem}, chunk, r.tag + 2,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            if (base != dest)
              kernels::stream_copy_bytes(base + off, dest + off, len);
          });
    }
    seg_count = r.seg_count;
  }

  // Close the tail race: the last unwind views this rank published may still
  // be under the neighbor's memcpy. Past the fence the caller owns its
  // buffer again. (No-op on buffered transports.)
  comm.bulk_fence();

  ADASUM_CHECK_EQ(seg_begin, 0u);
  ADASUM_CHECK_EQ(seg_count, count);
}

void adasum_rvh_allreduce(Comm& comm, Tensor& tensor,
                          std::span<const TensorSlice> slices, int tag_base,
                          std::span<const int> group,
                          const CompressionOptions& compression) {
  adasum_rvh_allreduce(comm, tensor.data(), tensor.size(), tensor.dtype(),
                       slices, tag_base, group, compression);
}

}  // namespace adasum
