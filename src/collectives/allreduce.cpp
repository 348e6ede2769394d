#include "collectives/allreduce.h"

#include <bit>
#include <cstring>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/adasum_linear.h"
#include "collectives/adasum_rvh.h"
#include "collectives/hierarchical.h"
#include "collectives/sum_allreduce.h"
#include "core/adasum.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

bool power_of_two(int n) {
  return std::has_single_bit(static_cast<unsigned>(n));
}

// Gather all gradients to rank 0, run the serial tree reduction of §3.4,
// broadcast the result. Used for non-power-of-two worlds where the RVH
// schedule does not apply; numerically identical to adasum_tree.
void adasum_gather_tree(Comm& comm, Tensor& tensor,
                        std::span<const TensorSlice> slices, int tag_base) {
  const int p = comm.size();
  if (p == 1) return;
  // Star schedule: every rank sends its gradient to rank 0 on tag_base and
  // receives the combined result back on tag_base + 1.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(),
                             "adasum_gather_tree");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    if (comm.rank() == 0) {
      for (int r = 1; r < p; ++r) {
        ex.recv(r, tag_base);
        ex.send(r, tag_base + 1);
      }
    } else {
      ex.send(0, tag_base);
      ex.recv(0, tag_base + 1);
    }
  }
  if (comm.rank() == 0) {
    std::vector<Tensor> grads;
    grads.reserve(p);
    grads.push_back(tensor.clone());
    for (int r = 1; r < p; ++r) {
      const std::vector<std::byte> raw = comm.recv_bytes(r, tag_base);
      ADASUM_CHECK_EQ(raw.size(), tensor.nbytes());
      Tensor g(tensor.shape(), tensor.dtype());
      std::memcpy(g.data(), raw.data(), raw.size());
      grads.push_back(std::move(g));
    }
    const Tensor combined =
        slices.empty() ? adasum_tree(grads)
                       : adasum_tree_layerwise(grads, slices);
    std::memcpy(tensor.data(), combined.data(), tensor.nbytes());
    for (int r = 1; r < p; ++r)
      comm.send_bytes(r, {tensor.data(), tensor.nbytes()}, tag_base + 1);
  } else {
    comm.send_bytes(0, {tensor.data(), tensor.nbytes()}, tag_base);
    const std::vector<std::byte> result = comm.recv_bytes(0, tag_base + 1);
    ADASUM_CHECK_EQ(result.size(), tensor.nbytes());
    std::memcpy(tensor.data(), result.data(), result.size());
  }
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
        case AllreduceAlgo::kRvh:
          adasum_rvh_allreduce(comm, tensor, slices, tag_base, {},
                               options.compression);
          break;
        case AllreduceAlgo::kHierarchical:
          hierarchical_allreduce(comm, tensor, options.ranks_per_node,
                                 /*use_adasum=*/true, slices, tag_base,
                                 options.compression);
          break;
        case AllreduceAlgo::kAuto:
          if (power_of_two(p))
            adasum_rvh_allreduce(comm, tensor, slices, tag_base, {},
                                 options.compression);
          else
            // Gather-tree ships whole vectors point-to-point; it is the
            // fallback correctness path and stays uncompressed.
            adasum_gather_tree(comm, tensor, slices, tag_base);
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
