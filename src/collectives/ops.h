// Reduction-operation and algorithm selection types for allreduce.
#pragma once

#include <string>
#include <vector>

#include "tensor/compress/compress.h"
#include "tensor/fusion.h"

namespace adasum {

// What the allreduce computes across ranks. kSum and kAverage are the
// synchronous-SGD baselines ("Horovod's default Sum operator", §5.1.1);
// kAdasum is the paper's operator (op=hvd.Adasum).
enum class ReduceOp { kSum, kAverage, kAdasum };

inline std::string reduce_op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "Sum";
    case ReduceOp::kAverage: return "Average";
    case ReduceOp::kAdasum: return "Adasum";
  }
  return "?";
}

// Which schedule carries the reduction.
enum class AllreduceAlgo {
  kAuto,          // Adasum: RVH; Sum: RVH for power-of-two p, ring else
  kRvh,           // recursive vector halving (Algorithm 1 for Adasum), any p
  kRing,          // ring (sum) / chain (linear Adasum, §4.2.3)
  kHierarchical,  // §4.2.2: local reduce + cross-node RVH + local gather
};

struct AllreduceOptions {
  ReduceOp op = ReduceOp::kSum;
  AllreduceAlgo algo = AllreduceAlgo::kAuto;
  // Layer boundaries inside the (fused) payload; when non-empty, Adasum is
  // applied per layer (§3.6). Ignored for Sum/Average.
  std::vector<TensorSlice> slices;
  // For kHierarchical: how many consecutive ranks form one "node".
  int ranks_per_node = 1;
  // Wire compression for transferred payloads (DESIGN.md §13). kAuto defers
  // to the World's configuration (ADASUM_COMPRESS / World::set_compression);
  // fp32 payloads only — other dtypes transfer uncompressed.
  CompressionOptions compression;
};

}  // namespace adasum
