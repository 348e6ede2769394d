// Tests for the synthetic datasets and the sharding data loader.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>

#include "data/synthetic.h"

namespace adasum::data {
namespace {

TEST(ClusterImages, DeterministicExamples) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 64;
  ClusterImageDataset a(opt), b(opt);
  std::vector<float> xa(28 * 28), xb(28 * 28);
  int la = 0, lb = 0;
  for (std::size_t i : {0u, 5u, 63u}) {
    a.fill_example(i, xa, {&la, 1});
    b.fill_example(i, xb, {&lb, 1});
    EXPECT_EQ(xa, xb);
    EXPECT_EQ(la, lb);
  }
}

TEST(ClusterImages, LabelsCoverAllClasses) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 100;
  opt.num_classes = 10;
  ClusterImageDataset ds(opt);
  std::vector<float> x(28 * 28);
  std::set<int> seen;
  for (std::size_t i = 0; i < 100; ++i) {
    int label = -1;
    ds.fill_example(i, x, {&label, 1});
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 10);
    seen.insert(label);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ClusterImages, SameClassCloserThanCrossClass) {
  // The prototypes separate classes: intra-class distance (noise only) is
  // smaller than inter-class distance in expectation.
  ClusterImageDataset::Options opt;
  opt.num_examples = 40;
  opt.num_classes = 4;
  opt.noise = 0.3;
  ClusterImageDataset ds(opt);
  const std::size_t n = 28 * 28;
  std::vector<float> a(n), b(n), c(n);
  int l;
  ds.fill_example(0, a, {&l, 1});   // class 0
  ds.fill_example(4, b, {&l, 1});   // class 0 (same)
  ds.fill_example(1, c, {&l, 1});   // class 1
  double same = 0, cross = 0;
  for (std::size_t i = 0; i < n; ++i) {
    same += (a[i] - b[i]) * (a[i] - b[i]);
    cross += (a[i] - c[i]) * (a[i] - c[i]);
  }
  EXPECT_LT(same, cross);
}

TEST(ClusterImages, NoiseControlsSpread) {
  ClusterImageDataset::Options low;
  low.noise = 0.01;
  ClusterImageDataset::Options high = low;
  high.noise = 2.0;
  ClusterImageDataset dl(low), dh(high);
  const std::size_t n = 28 * 28;
  std::vector<float> x0(n), x1(n);
  int l;
  dl.fill_example(0, x0, {&l, 1});
  dl.fill_example(10, x1, {&l, 1});  // same class, low noise
  double low_d = 0;
  for (std::size_t i = 0; i < n; ++i)
    low_d += (x0[i] - x1[i]) * (x0[i] - x1[i]);
  dh.fill_example(0, x0, {&l, 1});
  dh.fill_example(10, x1, {&l, 1});
  double high_d = 0;
  for (std::size_t i = 0; i < n; ++i)
    high_d += (x0[i] - x1[i]) * (x0[i] - x1[i]);
  EXPECT_LT(low_d, high_d);
}

TEST(MarkovText, DeterministicAndInRange) {
  MarkovTextDataset::Options opt;
  opt.num_examples = 32;
  opt.vocab = 16;
  opt.seq_len = 12;
  MarkovTextDataset a(opt), b(opt);
  std::vector<float> xa(12), xb(12);
  std::vector<int> la(12), lb(12);
  for (std::size_t i : {0u, 31u}) {
    a.fill_example(i, xa, la);
    b.fill_example(i, xb, lb);
    EXPECT_EQ(xa, xb);
    EXPECT_EQ(la, lb);
    for (float t : xa) {
      EXPECT_GE(t, 0.0f);
      EXPECT_LT(t, 16.0f);
    }
  }
}

TEST(MarkovText, LabelsAreNextTokens) {
  MarkovTextDataset::Options opt;
  opt.seq_len = 8;
  opt.burn_in = 2;
  MarkovTextDataset ds(opt);
  std::vector<float> x(8);
  std::vector<int> labels(8);
  ds.fill_example(3, x, labels);
  // Burn-in positions ignored.
  EXPECT_EQ(labels[0], -1);
  EXPECT_EQ(labels[1], -1);
  // Within the sequence, label[t] == token[t+1].
  for (std::size_t t = 2; t + 1 < 8; ++t)
    EXPECT_EQ(labels[t], static_cast<int>(x[t + 1]));
  EXPECT_GE(labels[7], 0);  // final label exists (the len+1-th token)
}

TEST(MarkovText, TransitionsAreLearnable) {
  // With zero noise, the next token is a deterministic function of the
  // previous two — verify by scanning many sequences.
  MarkovTextDataset::Options opt;
  opt.noise = 0.0;
  opt.seq_len = 16;
  opt.num_examples = 50;
  MarkovTextDataset ds(opt);
  std::map<std::pair<int, int>, int> observed;
  std::vector<float> x(16);
  std::vector<int> labels(16);
  for (std::size_t i = 0; i < 50; ++i) {
    ds.fill_example(i, x, labels);
    for (std::size_t t = 2; t < 16; ++t) {
      const auto key = std::make_pair(static_cast<int>(x[t - 1]),
                                      static_cast<int>(x[t]));
      if (labels[t] < 0) continue;
      const auto it = observed.find(key);
      if (it == observed.end())
        observed[key] = labels[t];
      else
        EXPECT_EQ(it->second, labels[t]) << "nondeterministic transition";
    }
  }
  EXPECT_GT(observed.size(), 10u);
}

TEST(MarkovText, BayesAccuracyFormula) {
  MarkovTextDataset::Options opt;
  opt.noise = 0.1;
  opt.vocab = 20;
  MarkovTextDataset ds(opt);
  EXPECT_NEAR(ds.bayes_accuracy(), 0.9 + 0.1 / 20, 1e-12);
}

// ---- loader -------------------------------------------------------------------

TEST(DataLoader, ShardsAreDisjointAndCoverGlobalBatch) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 256;
  ClusterImageDataset ds(opt);
  const int world = 4;
  const std::size_t bs = 8;
  // Reconstruct which example indices each rank consumed by matching inputs
  // is awkward; instead verify through the loader's deterministic contract:
  // all ranks use the same permutation, and their offsets tile it.
  std::vector<DataLoader> loaders;
  for (int r = 0; r < world; ++r) loaders.emplace_back(ds, bs, r, world, 99);
  EXPECT_EQ(loaders[0].batches_per_epoch(), 256u / (8 * 4));
  // Batches from different ranks at the same step must differ, batches from
  // the same rank at the same (epoch, step) must be identical across calls.
  const Batch b0 = loaders[0].batch(0, 0);
  const Batch b0_again = loaders[0].batch(0, 0);
  const Batch b1 = loaders[1].batch(0, 0);
  EXPECT_EQ(std::vector<float>(b0.inputs.span<float>().begin(),
                               b0.inputs.span<float>().end()),
            std::vector<float>(b0_again.inputs.span<float>().begin(),
                               b0_again.inputs.span<float>().end()));
  bool differs = false;
  for (std::size_t i = 0; i < b0.inputs.size(); ++i)
    if (b0.inputs.at(i) != b1.inputs.at(i)) {
      differs = true;
      break;
    }
  EXPECT_TRUE(differs);
}

TEST(DataLoader, EpochsReshuffle) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 64;
  ClusterImageDataset ds(opt);
  DataLoader loader(ds, 8, 0, 1, 7);
  const Batch e0 = loader.batch(0, 0);
  const Batch e1 = loader.batch(1, 0);
  bool differs = false;
  for (std::size_t i = 0; i < e0.inputs.size(); ++i)
    if (e0.inputs.at(i) != e1.inputs.at(i)) {
      differs = true;
      break;
    }
  EXPECT_TRUE(differs);
}

TEST(DataLoader, OutOfOrderRequestsMatchAFreshLoader) {
  // The loader caches one epoch's permutation; requests that jump between
  // epochs, back and forth, must still serve what a fresh loader serves.
  ClusterImageDataset::Options opt;
  opt.num_examples = 128;
  ClusterImageDataset ds(opt);
  const std::pair<std::size_t, std::size_t> requests[] = {
      {0, 0}, {2, 1}, {0, 3}, {1, 0}, {2, 1}, {2, 0}, {0, 1}, {1, 3}, {0, 0}};
  for (const bool shuffle : {true, false}) {
    SCOPED_TRACE(shuffle ? "shuffle" : "no shuffle");
    const DataLoader loader(ds, 8, 1, 2, 11, shuffle);
    ASSERT_EQ(loader.batches_per_epoch(), 8u);
    for (const auto& [epoch, step] : requests) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch << " step "
                                        << step);
      const Batch got = loader.batch(epoch, step);
      const Batch want = DataLoader(ds, 8, 1, 2, 11, shuffle).batch(epoch, step);
      EXPECT_EQ(got.labels, want.labels);
      ASSERT_EQ(got.inputs.shape(), want.inputs.shape());
      EXPECT_EQ(std::memcmp(got.inputs.data(), want.inputs.data(),
                            got.inputs.nbytes()),
                0);
    }
  }
}

TEST(DataLoader, NoShuffleIsSequential) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 64;
  opt.num_classes = 4;
  ClusterImageDataset ds(opt);
  DataLoader loader(ds, 4, 0, 1, 7, /*shuffle=*/false);
  const Batch b = loader.batch(0, 0);
  // Without shuffling, example i has label i % num_classes.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(b.labels[i], static_cast<int>(i % 4));
}

TEST(DataLoader, RejectsDatasetSmallerThanGlobalBatch) {
  ClusterImageDataset::Options opt;
  opt.num_examples = 16;
  ClusterImageDataset ds(opt);
  EXPECT_THROW(DataLoader(ds, 8, 0, 4, 1), CheckError);
}

TEST(MakeBatch, ShapesAndLabels) {
  MarkovTextDataset::Options opt;
  opt.seq_len = 10;
  MarkovTextDataset ds(opt);
  const std::vector<std::size_t> indices{1, 2, 3};
  const Batch b = make_batch(ds, indices);
  EXPECT_EQ(b.inputs.dim(0), 3u);
  EXPECT_EQ(b.inputs.dim(1), 10u);
  EXPECT_EQ(b.labels.size(), 30u);
}

}  // namespace
}  // namespace adasum::data
