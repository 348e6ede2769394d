// Tensor fusion with layer-boundary bookkeeping (paper §4.4.3).
//
// Horovod batches small per-layer tensors into one fused buffer so the
// transport is called once. Plain sum-allreduce can treat the fused buffer
// as one vector, but Adasum must NOT: the operator is applied per layer
// (§3.6), so the fused buffer carries the boundary table telling the
// reduction where each layer's slice begins and ends. The boundary table is
// identical on all ranks (same model, same fusion order), so it is kept
// locally and never communicated — exactly the paper's "this bookkeeping is
// stored locally and does not increase communication overheads".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace adasum {

// One layer's slice inside a fused flat buffer. Offsets/counts are in
// elements of the fused dtype.
struct TensorSlice {
  std::string name;
  std::size_t offset = 0;
  std::size_t count = 0;
};

// A flat buffer plus the boundary table describing the tensors packed in it.
struct FusedTensor {
  Tensor flat;                       // 1-D, dtype of the inputs
  std::vector<TensorSlice> slices;   // in packing order, contiguous
};

// Groups tensor indices so that each group's payload stays under
// `threshold_bytes` (the HOROVOD_FUSION_THRESHOLD analogue). A tensor larger
// than the threshold forms its own group. Order is preserved.
std::vector<std::vector<std::size_t>> make_fusion_groups(
    const std::vector<const Tensor*>& tensors, std::size_t threshold_bytes);

// Packs the given tensors (all the same dtype) into one fused buffer.
// Names in the boundary table are "t<i>" unless `names` is provided.
FusedTensor fuse(const std::vector<const Tensor*>& tensors,
                 const std::vector<std::string>* names = nullptr);

// Copies slices of `fused` back into the destination tensors, which must
// match the boundary table sizes in order.
void unfuse(const FusedTensor& fused, const std::vector<Tensor*>& tensors);

// Reusable fusion staging. fuse() allocates a fresh flat buffer and rebuilds
// the boundary table (N string constructions) every step; a training loop
// packs the same layer layout thousands of times. FusionBuffer keeps the
// backing Tensor and the table across pack() calls: when the total
// size/dtype repeat the buffer is reused in place, and when the layout
// (per-tensor sizes) is unchanged the table rebuild is skipped entirely, so
// a warm pack() performs only the payload memcpys. Its slices are named
// "t<i>"; callers that need layer names in the table use fuse().
class FusionBuffer {
 public:
  struct Stats {
    std::uint64_t packs = 0;          // total pack() calls
    std::uint64_t buffer_reuses = 0;  // packs that kept the backing tensor
    std::uint64_t table_reuses = 0;   // packs that kept the boundary table
  };

  // Packs tensors (all one dtype) into the internal fused buffer, reusing
  // storage where the layout allows, and returns it. The reference stays
  // valid until the next pack().
  FusedTensor& pack(const std::vector<const Tensor*>& tensors);

  // Copies the fused slices back out (same contract as unfuse()).
  void unpack(const std::vector<Tensor*>& tensors) const;

  FusedTensor& fused() { return fused_; }
  const FusedTensor& fused() const { return fused_; }
  const Stats& stats() const { return stats_; }

 private:
  FusedTensor fused_;
  Stats stats_;
};

}  // namespace adasum
