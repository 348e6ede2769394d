#include "collectives/allreduce.h"

#include <bit>

#include "base/check.h"
#include "collectives/adasum_linear.h"
#include "collectives/adasum_rvh.h"
#include "collectives/hierarchical.h"
#include "collectives/sum_allreduce.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

bool power_of_two(int n) {
  return std::has_single_bit(static_cast<unsigned>(n));
}

}  // namespace

void allreduce(Comm& comm, Tensor& tensor, const AllreduceOptions& options,
               int tag_base) {
  const int p = comm.size();
  if (p == 1 || tensor.empty()) return;
  const std::span<const TensorSlice> slices{options.slices};

  switch (options.op) {
    case ReduceOp::kSum:
    case ReduceOp::kAverage: {
      switch (options.algo) {
        case AllreduceAlgo::kRing:
          ring_allreduce_sum(comm, tensor, tag_base, options.compression);
          break;
        case AllreduceAlgo::kRvh:
          rvh_allreduce_sum(comm, tensor, tag_base, options.compression);
          break;
        case AllreduceAlgo::kHierarchical:
          hierarchical_allreduce(comm, tensor, options.ranks_per_node,
                                 /*use_adasum=*/false, slices, tag_base,
                                 options.compression);
          break;
        case AllreduceAlgo::kAuto:
          if (power_of_two(p))
            rvh_allreduce_sum(comm, tensor, tag_base, options.compression);
          else
            ring_allreduce_sum(comm, tensor, tag_base, options.compression);
          break;
      }
      if (options.op == ReduceOp::kAverage) {
        kernels::scale_bytes(1.0 / p, tensor.data(), tensor.size(),
                             tensor.dtype());
      }
      break;
    }
    case ReduceOp::kAdasum: {
      switch (options.algo) {
        case AllreduceAlgo::kRing:
          // The linear pairwise schedule stays exact: it is the reference
          // oracle the RVH variants are tested against.
          adasum_linear_allreduce(comm, tensor, slices, tag_base);
          break;
        case AllreduceAlgo::kAuto:
        case AllreduceAlgo::kRvh:
          // The RVH executor folds non-power-of-two groups, so RVH is the
          // automatic choice at every p.
          adasum_rvh_allreduce(comm, tensor, slices, tag_base, {},
                               options.compression);
          break;
        case AllreduceAlgo::kHierarchical:
          hierarchical_allreduce(comm, tensor, options.ranks_per_node,
                                 /*use_adasum=*/true, slices, tag_base,
                                 options.compression);
          break;
      }
      break;
    }
  }
}

void allreduce_fused(Comm& comm, const std::vector<Tensor*>& tensors,
                     const AllreduceOptions& options, int tag_base) {
  FusionBuffer scratch;
  allreduce_fused(comm, tensors, options, scratch, tag_base);
}

void allreduce_fused(Comm& comm, const std::vector<Tensor*>& tensors,
                     const AllreduceOptions& options, FusionBuffer& buffer,
                     int tag_base) {
  ADASUM_CHECK(!tensors.empty());
  std::vector<const Tensor*> views(tensors.begin(), tensors.end());
  FusedTensor& fused = buffer.pack(views);
  AllreduceOptions fused_options = options;
  fused_options.slices = fused.slices;
  allreduce(comm, fused.flat, fused_options, tag_base);
  buffer.unpack(tensors);
}

}  // namespace adasum
