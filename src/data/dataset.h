// Dataset abstraction and the sharding data loader.
//
// Datasets synthesize examples deterministically from (seed, index) — no
// storage, fully reproducible, and every rank can materialize any shard.
// This is the substitution for MNIST/ImageNet/Wikipedia (DESIGN.md §1): the
// distributed-training phenomena under study depend on gradient statistics,
// not on the provenance of the pixels/tokens.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace adasum::data {

struct Batch {
  Tensor inputs;            // (B, ...) fp32
  std::vector<int> labels;  // B * labels_per_example(), -1 = ignore
};

class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual std::size_t size() const = 0;
  // Shape of one example (without the batch dimension).
  virtual std::vector<std::size_t> example_shape() const = 0;
  // 1 for classification; sequence length for token prediction.
  virtual std::size_t labels_per_example() const = 0;
  // Materialize example `index` into `input` (example_shape elements) and
  // `labels` (labels_per_example entries).
  virtual void fill_example(std::size_t index, std::span<float> input,
                            std::span<int> labels) const = 0;
};

// Assemble a batch from explicit indices.
Batch make_batch(const Dataset& dataset, std::span<const std::size_t> indices);

// Epoch-based loader that shards a dataset across `world_size` ranks.
// All ranks construct the loader with the same seed, producing the same
// global shuffle; rank r takes batches where (batch_index % world) == r's
// strided share — i.e. the global batch of a step is the concatenation of
// all ranks' microbatches, exactly the data-parallel layout the paper
// assumes ("the user is responsible for partitioning data across nodes").
//
// The permutation of an epoch is computed on the first batch() of that epoch
// and served from a cache until a batch of another epoch is asked for. The
// cache is not locked: each loader belongs to one rank thread (the Trainer
// and perfbench build one per rank), so do not share one across threads.
class DataLoader {
 public:
  DataLoader(const Dataset& dataset, std::size_t batch_size, int rank,
             int world_size, std::uint64_t seed, bool shuffle = true);

  // Microbatches this rank owns per epoch.
  std::size_t batches_per_epoch() const { return batches_per_epoch_; }

  // The `step`-th microbatch of epoch `epoch` for this rank. Deterministic:
  // (epoch, step) fully identifies the examples, whatever order the calls
  // come in.
  Batch batch(std::size_t epoch, std::size_t step) const;

 private:
  // The example order of `epoch`, the same on every rank.
  std::span<const std::size_t> order(std::size_t epoch) const;

  const Dataset& dataset_;
  std::size_t batch_size_;
  int rank_, world_size_;
  std::uint64_t seed_;
  bool shuffle_;
  std::size_t batches_per_epoch_;
  mutable std::vector<std::size_t> order_;  // empty until the first batch()
  mutable std::size_t order_epoch_ = 0;
};

}  // namespace adasum::data
