#include "data/dataset.h"

#include <numeric>

#include "base/check.h"
#include "base/rng.h"

namespace adasum::data {

Batch make_batch(const Dataset& dataset,
                 std::span<const std::size_t> indices) {
  ADASUM_CHECK(!indices.empty());
  const auto shape = dataset.example_shape();
  std::size_t example_elems = 1;
  for (std::size_t d : shape) example_elems *= d;
  const std::size_t lpe = dataset.labels_per_example();

  std::vector<std::size_t> batch_shape{indices.size()};
  batch_shape.insert(batch_shape.end(), shape.begin(), shape.end());
  Batch batch;
  batch.inputs = Tensor(std::move(batch_shape));
  batch.labels.assign(indices.size() * lpe, -1);
  auto in = batch.inputs.span<float>();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ADASUM_CHECK_LT(indices[i], dataset.size());
    dataset.fill_example(
        indices[i], in.subspan(i * example_elems, example_elems),
        std::span<int>(batch.labels).subspan(i * lpe, lpe));
  }
  return batch;
}

DataLoader::DataLoader(const Dataset& dataset, std::size_t batch_size,
                       int rank, int world_size, std::uint64_t seed,
                       bool shuffle)
    : dataset_(dataset),
      batch_size_(batch_size),
      rank_(rank),
      world_size_(world_size),
      seed_(seed),
      shuffle_(shuffle) {
  ADASUM_CHECK_GT(batch_size, 0u);
  ADASUM_CHECK_GE(rank, 0);
  ADASUM_CHECK_LT(rank, world_size);
  const std::size_t global_batches =
      dataset.size() / (batch_size * static_cast<std::size_t>(world_size));
  ADASUM_CHECK_MSG(global_batches > 0,
                   "dataset smaller than one global batch");
  batches_per_epoch_ = global_batches;
}

std::span<const std::size_t> DataLoader::order(std::size_t epoch) const {
  // Unshuffled, every epoch has the same order.
  if (!order_.empty() && (epoch == order_epoch_ || !shuffle_)) return order_;
  // The same permutation is derived on every rank from (seed, epoch).
  order_.resize(dataset_.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (shuffle_) {
    Rng rng = Rng(seed_).fork(epoch);
    rng.shuffle(order_);
  }
  order_epoch_ = epoch;
  return order_;
}

Batch DataLoader::batch(std::size_t epoch, std::size_t step) const {
  ADASUM_CHECK_LT(step, batches_per_epoch_);
  // Global step `step` consumes world_size*batch_size consecutive examples;
  // rank r takes the r-th slice.
  const std::size_t global_offset =
      step * batch_size_ * static_cast<std::size_t>(world_size_) +
      static_cast<std::size_t>(rank_) * batch_size_;
  return make_batch(dataset_, order(epoch).subspan(global_offset, batch_size_));
}

}  // namespace adasum::data
