#include "collectives/adasum_rvh.h"

#include <algorithm>

#include "collectives/rvh_executor.h"
#include "core/adasum.h"

namespace adasum {
namespace {

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

// Algorithm 1's level reduce for the RVH executor: per layer the partial dot
// triple [a·b, a·a, b·b] over the kept half (line 15) as its spans land, the
// triple allreduce across the 2d-rank subgroup on tag + 1 (lines 16-17),
// then the combiner straight into the caller's storage (line 18). `a` is
// always the left subgroup's slice and `b` the right's: whichever belongs to
// this rank is the kept half, the other is the partner's. The partner's
// half (view or wire blob) stays held across the triple allreduce, because
// the combiner reads it again. The arithmetic and the message pattern are
// those of the copy-based formulation (adasum_rvh_reference.h), which tests
// hold bit-for-bit against this one.
class AdasumReducer {
 public:
  static constexpr const char* kEpoch = "adasum_rvh";

  AdasumReducer(const RvhContext& ctx, std::span<const TensorSlice> layers)
      : ctx_(ctx),
        layers_(layers),
        triples_buf_(ctx.comm.pool(), 3 * layers.size() * sizeof(double)),
        triples_(triples_buf_.as<double>(3 * layers.size())),
        subgroup_buf_(ctx.comm.pool(),
                      static_cast<std::size_t>(ctx.size) * sizeof(int)),
        subgroup_(subgroup_buf_.as<int>(static_cast<std::size_t>(ctx.size))) {
  }

  void declare(analysis::EpochExpectation& ex, const RvhLevel& lv,
               int level) {
    ex.allreduce_doubles(subgroup(level), ctx_.comm.rank(), lv.tag + 1);
  }

  // Dots each layer the moment the last element of its intersection with
  // the kept half lands, so the dot of chunk i overlaps the transfer of
  // chunk i+1; the accumulated doubles are the same for every chunk size.
  void span(const RvhHalf& h, const std::byte* theirs, std::size_t off,
            std::size_t len) {
    const std::size_t elem = ctx_.elem;
    const std::byte* const a = h.is_left ? h.own : theirs;
    const std::byte* const b = h.is_left ? theirs : h.own;
    flush_dots(h, (off + len) / elem, [&](const SliceLocal& loc) {
      return kernels::dot_triple_bytes(a + loc.local_offset * elem,
                                       b + loc.local_offset * elem, loc.count,
                                       ctx_.dtype);
    });
  }

  void landed(const RvhHalf& h, const std::byte* theirs) {
    const std::size_t elem = ctx_.elem;
    const std::byte* const a = h.is_left ? h.own : theirs;
    const std::byte* const b = h.is_left ? theirs : h.own;
    finish(h, [&](const SliceLocal& loc, const AdasumFactors& f) {
      kernels::scaled_sum_bytes(a + loc.local_offset * elem, f.ca,
                                b + loc.local_offset * elem, f.cb,
                                h.own + loc.local_offset * elem, loc.count,
                                ctx_.dtype);
    });
  }

  // A compressed half is reduced STRAIGHT OFF THE WIRE BYTES (DESIGN.md
  // §17): per layer the fused decode-dot, then the fused decode-combine; no
  // decoded copy of the half is written. Both are exactly decompress +
  // dot_triple / scaled_sum on the same dispatch level. The decoded half
  // takes the slot (a or b) the kept half does not.
  void blob(const RvhHalf& h, const std::byte* blob) {
    float* const own = reinterpret_cast<float*>(h.own);
    flush_dots(h, h.count, [&](const SliceLocal& loc) {
      return decompress_dot_triple_f32(blob, ctx_.comp, h.count,
                                       loc.local_offset,
                                       {own + loc.local_offset, loc.count},
                                       /*deq_is_b=*/h.is_left);
    });
    finish(h, [&](const SliceLocal& loc, const AdasumFactors& f) {
      decompress_combine_f32(blob, ctx_.comp, h.count, loc.local_offset,
                             {own + loc.local_offset, loc.count},
                             /*c_other=*/h.is_left ? f.ca : f.cb,
                             /*c_deq=*/h.is_left ? f.cb : f.ca,
                             /*deq_is_b=*/h.is_left,
                             {own + loc.local_offset, loc.count});
    });
  }

  // The fold's pairwise Adasum: a = this core member's payload, b = the
  // extra member's. The pair is complete here, so the dots stay local (no
  // triple allreduce).
  void fold(std::byte* own, const std::byte* theirs, std::size_t) const {
    for (const TensorSlice& s : layers_) {
      const std::size_t off = s.offset * ctx_.elem;
      const kernels::DotTriple t =
          kernels::dot_triple_bytes(own + off, theirs + off, s.count,
                                    ctx_.dtype);
      const AdasumFactors f = adasum_factors(t);
      kernels::scaled_sum_bytes(own + off, f.ca, theirs + off, f.cb, own + off,
                                s.count, ctx_.dtype);
    }
  }

 private:
  // Advances past every layer whose intersection with the kept half lies
  // within the first `received` elements and stores its triple; layers
  // disjoint from the half flush with zero triples. `layer_dot(loc)` returns
  // one layer's triple over its half-local slice.
  template <class LayerDot>
  void flush_dots(const RvhHalf& h, std::size_t received,
                  const LayerDot& layer_dot) {
    const std::size_t end = h.begin + h.count;
    while (next_layer_ < layers_.size()) {
      const SliceLocal loc = intersect(layers_[next_layer_], h.begin, end);
      if (loc.count > 0 && loc.local_offset + loc.count > received) break;
      kernels::DotTriple t;
      if (loc.count > 0) t = layer_dot(loc);
      triples_[3 * next_layer_ + 0] = t.ab;
      triples_[3 * next_layer_ + 1] = t.aa;
      triples_[3 * next_layer_ + 2] = t.bb;
      ++next_layer_;
    }
  }

  // Completes the dot triples across the 2d-rank subgroup, then applies
  // `combine_layer(loc, factors)` per layer. Elements the boundary table does
  // not cover keep this rank's own contribution (they never occur when the
  // layers tile the payload).
  template <class Combine>
  void finish(const RvhHalf& h, const Combine& combine_layer) {
    ADASUM_CHECK_EQ(next_layer_, layers_.size());
    next_layer_ = 0;  // every layer flushed: rewind for the next level
    ctx_.comm.allreduce_sum_doubles_inplace(triples_, subgroup(h.level),
                                            h.tag + 1);
    const std::size_t end = h.begin + h.count;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const SliceLocal loc = intersect(layers_[l], h.begin, end);
      if (loc.count == 0) continue;
      const kernels::DotTriple t{triples_[3 * l + 0], triples_[3 * l + 1],
                                 triples_[3 * l + 2]};
      combine_layer(loc, adasum_factors(t));
    }
  }

  // World ranks of the 2^(level+1)-rank subgroup this rank allreduces its
  // triples with at `level`.
  std::span<const int> subgroup(int level) {
    const std::size_t d2 = std::size_t{2} << level;
    const std::size_t base = static_cast<std::size_t>(ctx_.rank) / d2 * d2;
    for (std::size_t i = 0; i < d2; ++i)
      subgroup_[i] = ctx_.world_rank(static_cast<int>(base + i));
    return subgroup_.first(d2);
  }

  const RvhContext& ctx_;
  std::span<const TensorSlice> layers_;
  PooledBuffer triples_buf_;
  std::span<double> triples_;
  PooledBuffer subgroup_buf_;
  std::span<int> subgroup_;
  std::size_t next_layer_ = 0;
};

}  // namespace

void adasum_rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                          DType dtype, std::span<const TensorSlice> slices,
                          int tag_base, std::span<const int> group,
                          const CompressionOptions& compression) {
  // Whole payload as a single layer when no boundary table is given.
  const TensorSlice whole{"all", 0, count};
  rvh_allreduce<AdasumReducer>(
      comm, data, count, dtype, tag_base, group, compression,
      slices.empty() ? std::span<const TensorSlice>{&whole, 1} : slices);
}

void adasum_rvh_allreduce(Comm& comm, Tensor& tensor,
                          std::span<const TensorSlice> slices, int tag_base,
                          std::span<const int> group,
                          const CompressionOptions& compression) {
  adasum_rvh_allreduce(comm, tensor.data(), tensor.size(), tensor.dtype(),
                       slices, tag_base, group, compression);
}

}  // namespace adasum
