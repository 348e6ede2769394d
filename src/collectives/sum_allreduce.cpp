#include "collectives/sum_allreduce.h"

#include "collectives/compressed.h"
#include "collectives/primitives.h"
#include "collectives/rvh_executor.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

// The sum RVH level reduce for the executor in rvh_executor.h: the sum is
// elementwise, so each landed span is added the moment it lands, overlapping
// the rest of the stream; every read finishes inside the hook. A compressed
// half runs the fused decode-add straight off the (possibly zero-copy) blob:
// one pass over the wire bytes, no decoded staging copy, bit-identical to
// decompress-then-add with double accumulation.
class SumReducer {
 public:
  static constexpr const char* kEpoch = "rvh_allreduce_sum";

  explicit SumReducer(const RvhContext& ctx) : ctx_(ctx) {}

  void span(const RvhHalf& h, const std::byte* theirs, std::size_t off,
            std::size_t len) const {
    kernels::add_bytes(theirs + off, h.own + off, len / ctx_.elem,
                       ctx_.dtype);
  }
  void landed(const RvhHalf&, const std::byte*) const {}
  void blob(const RvhHalf& h, const std::byte* blob) const {
    decompress_add_f32(blob, ctx_.comp, h.count, /*offset=*/0,
                       {reinterpret_cast<float*>(h.own), h.count});
  }
  void fold(std::byte* own, const std::byte* theirs, std::size_t count) const {
    kernels::add_bytes(theirs, own, count, ctx_.dtype);
  }

 private:
  const RvhContext& ctx_;
};

}  // namespace

void ring_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                        DType dtype, int tag_base,
                        const CompressionOptions& compression) {
  // After the reduce-scatter rank r owns the full sum of chunk (r + 1) % p,
  // which is where the allgather starts circulating.
  ring_reduce_scatter_sum(comm, data, count, dtype, {}, tag_base, {},
                          compression);
  ring_allgather(comm, data, count, dtype, {}, tag_base + comm.size(), {},
                 compression);
}

void rvh_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                       DType dtype, int tag_base, std::span<const int> group,
                       const CompressionOptions& compression) {
  rvh_allreduce<SumReducer>(comm, data, count, dtype, tag_base, group,
                            compression);
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
