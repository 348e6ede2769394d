#include "collectives/primitives.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/compressed.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "tensor/kernels.h"

namespace adasum {

ChunkRange chunk_range(std::size_t count, int p, int c) {
  ADASUM_CHECK_GE(c, 0);
  ADASUM_CHECK_LE(c, p);
  return ChunkRange{
      count * static_cast<std::size_t>(c) / static_cast<std::size_t>(p),
      count * static_cast<std::size_t>(c + 1) / static_cast<std::size_t>(p)};
}

namespace {

// One ring over `group` as this rank walks it, with the per-call facts both
// phases share. Step s of a phase that starts at segment `first` sends
// segment first - s to `next` and receives segment first - s - 1 from
// `prev` (indices mod p): the reduce-scatter starts at the rank's own index,
// the allgather one past it, at the chunk the reduce-scatter left it owning.
struct Ring {
  Ring(Comm& comm, std::size_t n, DType dtype, std::span<const int> group,
       std::span<const std::size_t> chunk_bounds,
       const CompressionOptions& compression)
      : p(group.empty() ? comm.size() : static_cast<int>(group.size())),
        me(index_in_group(group, comm.rank())),
        bounds(chunk_bounds),
        count(n),
        elem(dtype_size(dtype)),
        chunk(comm.pipeline().chunk_bytes_for(elem)),
        comp(resolve_compression(comm, compression, dtype)) {
    ADASUM_CHECK_MSG(me >= 0, "calling rank must be in the group");
    if (!bounds.empty()) {
      ADASUM_CHECK_EQ(bounds.size(), static_cast<std::size_t>(p) + 1);
      ADASUM_CHECK_EQ(bounds.front(), 0u);
      ADASUM_CHECK_EQ(bounds.back(), count);
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
        ADASUM_CHECK_LE(bounds[i], bounds[i + 1]);
    }
    const auto at = [&](int i) {
      return group.empty() ? i : group[static_cast<std::size_t>(i)];
    };
    next = at((me + 1) % p);
    prev = at((me + p - 1) % p);
    for (int c = 0; c < p; ++c)
      max_count = std::max(max_count, segment(c).size());
  }

  // A single-rank group or an empty payload moves nothing.
  bool idle() const { return p == 1 || count == 0; }

  // Segment `c` (any integer, taken mod p).
  ChunkRange segment(int c) const {
    c = ((c % p) + p) % p;
    if (bounds.empty()) return chunk_range(count, p, c);
    return {bounds[static_cast<std::size_t>(c)],
            bounds[static_cast<std::size_t>(c) + 1]};
  }

  // Messages `elems` elements become on the wire: the formula the transfers
  // stream with, so a drift is an analyzer diff rather than a hang.
  std::size_t messages(std::size_t elems) const {
    return chunk_messages(wire_transfer_bytes(elems, elem, comp), chunk);
  }

  // Provisions the outgoing channel for the run-ahead and declares the
  // phase's schedule to a strict analyzer. A ring sender only stalls when
  // the dependency chain wraps back through its successor, so up to p-1
  // steps of chunk streams can queue on `next` first.
  void open(Comm& comm, analysis::EpochGuard& epoch, int first,
            int tag_base) const {
    comm.reserve_channel_depth(
        next, (static_cast<std::size_t>(p) + 2) * messages(max_count));
    if (!epoch.declaring()) return;
    analysis::EpochExpectation& ex = epoch.expect();
    for (int s = 0; s < p - 1; ++s) {
      for (std::size_t c = messages(segment(first - s).size()); c > 0; --c)
        ex.send(next, tag_base + s);
      for (std::size_t c = messages(segment(first - s - 1).size()); c > 0;
           --c)
        ex.recv(prev, tag_base + s);
    }
  }

  const int p;
  const int me;
  const std::span<const std::size_t> bounds;  // empty = chunk_range
  const std::size_t count;
  const std::size_t elem;
  const std::size_t chunk;  // 0 = monolithic
  const CompressionOptions comp;
  int next = 0;
  int prev = 0;
  std::size_t max_count = 0;  // largest segment, in elements
};

}  // namespace

void broadcast(Comm& comm, std::byte* data, std::size_t bytes,
               std::span<const int> group, int root_index, int tag_base) {
  const int p = static_cast<int>(group.size());
  ADASUM_CHECK_GT(p, 0);
  ADASUM_CHECK_GE(root_index, 0);
  ADASUM_CHECK_LT(root_index, p);
  const int me = index_in_group(group, comm.rank());
  ADASUM_CHECK_MSG(me >= 0, "calling rank must be in the broadcast group");
  if (p == 1) return;
  // Rotate so the root is virtual rank 0, then run a binomial tree: in round
  // k, ranks < 2^k send to rank + 2^k.
  const int vrank = (me - root_index + p) % p;
  // The binomial tree below, replayed: whether this rank sends or receives
  // in round k depends only on its virtual rank.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), "broadcast");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    bool have = vrank == 0;
    for (int dist = 1; dist < p; dist <<= 1) {
      if (have && vrank + dist < p) {
        ex.send(group[static_cast<std::size_t>(
                    (vrank + dist + root_index) % p)],
                tag_base);
      } else if (!have && vrank < 2 * dist) {
        ex.recv(group[static_cast<std::size_t>(
                    (vrank - dist + root_index + p) % p)],
                tag_base);
        have = true;
      }
    }
  }
  bool have_data = vrank == 0;
  for (int dist = 1; dist < p; dist <<= 1) {
    if (have_data && vrank + dist < p) {
      const int peer = group[static_cast<std::size_t>(
          (vrank + dist + root_index) % p)];
      comm.send_bytes(peer, {data, bytes}, tag_base);
    } else if (!have_data && vrank < 2 * dist) {
      const int peer = group[static_cast<std::size_t>(
          (vrank - dist + root_index + p) % p)];
      comm.recv_bytes_into(peer, {data, bytes}, tag_base);
      have_data = true;
    }
  }
}

void ring_reduce_scatter_sum(Comm& comm, std::byte* data, std::size_t count,
                             DType dtype, std::span<const int> group,
                             int tag_base, std::span<const std::size_t> bounds,
                             const CompressionOptions& compression) {
  const Ring ring(comm, count, dtype, group, bounds, compression);
  if (ring.idle()) return;
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(),
                             "ring_reduce_scatter_sum");
  ring.open(comm, epoch, ring.me, tag_base);
  const std::size_t elem = ring.elem;
  // An uncompressed step stages the incoming chunk stream in one pooled
  // buffer sized for the largest segment; a compressed one decode-adds
  // straight off the wire blob.
  WireCompressor wc(comm, dtype, ring.comp, ring.max_count);
  std::optional<PooledBuffer> scratch;
  if (!wc.active()) scratch.emplace(comm.pool(), ring.max_count * elem);
  for (int s = 0; s < ring.p - 1; ++s) {
    const int tag = tag_base + s;
    const ChunkRange sc = ring.segment(ring.me - s);
    const ChunkRange rc = ring.segment(ring.me - s - 1);
    std::byte* const out = data + sc.begin * elem;
    std::byte* const own = data + rc.begin * elem;
    if (wc.active()) {
      // The outgoing partial's local copy is overwritten by the allgather,
      // so it ships as a plain blob. Fused decode-add (DESIGN.md §17): the
      // incoming blob is reduced into the resident segment in one pass over
      // the wire bytes, through the double-accumulating kernel (§4.4.1),
      // bit-identical to decompress-then-add.
      wc.send(ring.next, out, sc.size(), ring.chunk, tag);
      wc.recv_apply(ring.prev, rc.size(), ring.chunk, tag,
                    [&](const std::byte* blob) {
                      decompress_add_f32(
                          blob, wc.options(), rc.size(), /*offset=*/0,
                          {reinterpret_cast<float*>(own), rc.size()});
                    });
    } else {
      // The sum is elementwise, so each chunk is added the moment it lands —
      // bit-identical to the whole-segment add, but overlapped with the
      // remaining transfers of the stream.
      comm.send_chunks(ring.next, {out, sc.size() * elem}, ring.chunk, tag);
      comm.recv_chunks_into(ring.prev, scratch->bytes(rc.size() * elem),
                            ring.chunk, tag,
                            [&](std::size_t off, std::size_t len) {
                              kernels::add_bytes(scratch->data() + off,
                                                 own + off, len / elem, dtype);
                            });
    }
  }
}

void ring_allgather(Comm& comm, std::byte* data, std::size_t count,
                    DType dtype, std::span<const int> group, int tag_base,
                    std::span<const std::size_t> bounds,
                    const CompressionOptions& compression) {
  const Ring ring(comm, count, dtype, group, bounds, compression);
  if (ring.idle()) return;
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), "ring_allgather");
  ring.open(comm, epoch, ring.me + 1, tag_base);
  const std::size_t elem = ring.elem;
  // Verbatim blob forwarding on a compressed wire: chunk c's blob is created
  // ONCE by its owner (the step-0 requantize, which also rewrites the
  // owner's copy with the decoded values) and forwarded unchanged hop to
  // hop, so every rank materializes chunk c from the same bytes. Re-encoding
  // at each hop would instead hand every rank a different quantization
  // generation. Slot `hold` carries the blob being forwarded while the next
  // lands in `incoming`.
  WireCompressor wc(comm, dtype, ring.comp, ring.max_count);
  int hold = 0;
  int incoming = 1;
  for (int s = 0; s < ring.p - 1; ++s) {
    const int tag = tag_base + s;
    const ChunkRange sc = ring.segment(ring.me + 1 - s);
    const ChunkRange rc = ring.segment(ring.me - s);
    if (wc.active()) {
      if (s == 0) wc.requantize(hold, data + sc.begin * elem, sc.size());
      wc.send_blob(ring.next, hold, sc.size(), ring.chunk, tag);
      wc.recv_blob(ring.prev, incoming, rc.size(), ring.chunk, tag);
      wc.decode(incoming, data + rc.begin * elem, rc.size());
      std::swap(hold, incoming);
    } else {
      comm.send_chunks(ring.next, {data + sc.begin * elem, sc.size() * elem},
                       ring.chunk, tag);
      // Deposit straight into the chunk's final position — no staging copy.
      comm.recv_chunks_into(ring.prev,
                            {data + rc.begin * elem, rc.size() * elem},
                            ring.chunk, tag);
    }
  }
}

void broadcast(Comm& comm, Tensor& tensor, std::span<const int> group,
               int root_index, int tag_base) {
  broadcast(comm, tensor.data(), tensor.nbytes(), group, root_index,
            tag_base);
}

}  // namespace adasum
