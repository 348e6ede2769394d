// Unit + property tests for src/tensor: Tensor, kernels, fusion, scaling.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "base/rng.h"
#include "tensor/fusion.h"
#include "tensor/kernels.h"
#include "tensor/scaling.h"
#include "tensor/tensor.h"

namespace adasum {
namespace {

TEST(Tensor, ShapeAndSize) {
  Tensor t({3, 4}, DType::kFloat32);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.nbytes(), 48u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({100}, DType::kFloat64);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0);
}

TEST(Tensor, SetAtRoundTrip) {
  for (DType dtype : {DType::kFloat16, DType::kFloat32, DType::kFloat64}) {
    Tensor t({10}, dtype);
    t.set(3, 1.5);
    EXPECT_EQ(t.at(3), 1.5) << dtype_name(dtype);
    EXPECT_EQ(t.at(2), 0.0);
  }
}

TEST(Tensor, TypedSpanChecksDtype) {
  Tensor t({4}, DType::kFloat32);
  EXPECT_NO_THROW(t.span<float>());
  EXPECT_THROW(t.span<double>(), CheckError);
  EXPECT_THROW(t.span<Half>(), CheckError);
}

TEST(Tensor, CastPreservesValues) {
  Tensor t = Tensor::from_vector({1.0, -2.5, 3.25}, DType::kFloat32);
  const Tensor d = t.cast(DType::kFloat64);
  EXPECT_EQ(d.dtype(), DType::kFloat64);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(d.at(i), t.at(i));
  const Tensor h = t.cast(DType::kFloat16);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(h.at(i), t.at(i));
}

TEST(Tensor, ReshapeKeepsData) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({2, 3});
  EXPECT_EQ(r.dim(0), 2u);
  EXPECT_EQ(r.at(5), 6.0);
  EXPECT_THROW(t.reshaped({4, 2}), CheckError);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::from_vector({1, 2, 3});
  Tensor c = t.clone();
  c.set(0, 99);
  EXPECT_EQ(t.at(0), 1.0);
}

// ---- kernels ---------------------------------------------------------------

class KernelDtypeTest : public ::testing::TestWithParam<DType> {};

TEST_P(KernelDtypeTest, DotMatchesReference) {
  const DType dtype = GetParam();
  Rng rng(11);
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 1000u}) {
    Tensor a({n}, dtype), b({n}, dtype);
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, std::round(rng.uniform(-4, 4) * 8) / 8);  // fp16-exact values
      b.set(i, std::round(rng.uniform(-4, 4) * 8) / 8);
      expected += a.at(i) * b.at(i);
    }
    const double got = dispatch_dtype(dtype, [&]<typename T>() {
      return kernels::dot(a.span<T>(), b.span<T>());
    });
    EXPECT_NEAR(got, expected, 1e-9) << dtype_name(dtype) << " n=" << n;
  }
}

TEST_P(KernelDtypeTest, DotTripleConsistentWithDot) {
  const DType dtype = GetParam();
  Rng rng(12);
  const std::size_t n = 257;
  Tensor a({n}, dtype), b({n}, dtype);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, std::round(rng.uniform(-2, 2) * 16) / 16);
    b.set(i, std::round(rng.uniform(-2, 2) * 16) / 16);
  }
  dispatch_dtype(dtype, [&]<typename T>() {
    const auto t = kernels::dot_triple(a.span<T>(), b.span<T>());
    EXPECT_NEAR(t.ab, kernels::dot(a.span<T>(), b.span<T>()), 1e-9);
    EXPECT_NEAR(t.aa, kernels::norm_squared(a.span<T>()), 1e-9);
    EXPECT_NEAR(t.bb, kernels::norm_squared(b.span<T>()), 1e-9);
  });
}

TEST_P(KernelDtypeTest, AxpyScaleAddScaledSum) {
  const DType dtype = GetParam();
  const double tol = dtype == DType::kFloat16 ? 1e-2 : 1e-6;
  Tensor x = Tensor::from_vector({1, 2, 3, 4}, dtype);
  Tensor y = Tensor::from_vector({10, 20, 30, 40}, dtype);
  dispatch_dtype(dtype, [&]<typename T>() {
    kernels::axpy(2.0, x.span<T>(), y.span<T>());
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(y.at(i), 10.0 * (i + 1) + 2.0 * (i + 1), tol);
    kernels::scale(0.5, y.span<T>());
    EXPECT_NEAR(y.at(0), 6.0, tol);
    kernels::add(x.span<T>(), y.span<T>());
    EXPECT_NEAR(y.at(0), 7.0, tol);
    Tensor out({4}, dtype);
    kernels::scaled_sum(x.span<T>(), 3.0, y.span<T>(), -1.0, out.span<T>());
    EXPECT_NEAR(out.at(0), 3.0 * 1 - 7.0, tol);
  });
}

TEST_P(KernelDtypeTest, HasNonfiniteDetectsInfAndNan) {
  const DType dtype = GetParam();
  Tensor t({8}, dtype);
  dispatch_dtype(dtype, [&]<typename T>() {
    EXPECT_FALSE(kernels::has_nonfinite(std::span<const T>(t.span<T>())));
  });
  t.set(5, std::numeric_limits<double>::infinity());
  dispatch_dtype(dtype, [&]<typename T>() {
    EXPECT_TRUE(kernels::has_nonfinite(std::span<const T>(t.span<T>())));
  });
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, KernelDtypeTest,
                         ::testing::Values(DType::kFloat16, DType::kFloat32,
                                           DType::kFloat64),
                         [](const auto& param_info) {
                           return dtype_name(param_info.param);
                         });

TEST(Kernels, DoubleAccumulationBeatsFloatForManySmallValues) {
  // §4.4.1: with 1e6 values of 1e-4, a float accumulator loses precision
  // once the running sum dwarfs the addend; the double accumulator does not.
  const std::size_t n = 1 << 20;
  std::vector<float> v(n, 1e-4f);
  float float_acc = 0.0f;
  for (float x : v) float_acc += x * x;
  const double exact = static_cast<double>(n) * 1e-4 * 1e-4;
  const double kernel = kernels::norm_squared(std::span<const float>(v));
  EXPECT_GT(std::abs(float_acc - exact) / exact, 1e-4);  // float visibly off
  EXPECT_LT(std::abs(kernel - exact) / exact, 1e-7);     // kernel is not
}

TEST(Kernels, DotOfFp16PayloadAccumulatesInDouble) {
  // All products are representable in fp16 but their sum exceeds fp16 range;
  // the kernel must still produce the exact value.
  const std::size_t n = 4096;
  std::vector<Half> a(n, Half(16.0f)), b(n, Half(16.0f));
  const double got =
      kernels::dot(std::span<const Half>(a), std::span<const Half>(b));
  EXPECT_EQ(got, 256.0 * n);  // 1,048,576 — far beyond fp16 max 65504
}

TEST(Kernels, BytesVariantsMatchTyped) {
  Rng rng(13);
  const std::size_t n = 100;
  Tensor a({n}), b({n});
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.uniform(-1, 1));
    b.set(i, rng.uniform(-1, 1));
  }
  const auto t1 = kernels::dot_triple(a.span<float>(), b.span<float>());
  const auto t2 =
      kernels::dot_triple_bytes(a.data(), b.data(), n, DType::kFloat32);
  EXPECT_EQ(t1.ab, t2.ab);
  EXPECT_EQ(t1.aa, t2.aa);
  EXPECT_EQ(t1.bb, t2.bb);
}

// ---- fusion ----------------------------------------------------------------

TEST(Fusion, GroupsRespectThreshold) {
  Tensor a({100}), b({100}), c({500}), d({10});
  const std::vector<const Tensor*> ts{&a, &b, &c, &d};
  // threshold 900 bytes: a(400)+b(400)=800 fits, c(2000) alone, d joins after.
  const auto groups = make_fusion_groups(ts, 900);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(groups[2], (std::vector<std::size_t>{3}));
}

TEST(Fusion, SingleOversizedTensorGetsOwnGroup) {
  Tensor big({1000});
  const auto groups = make_fusion_groups({&big}, 16);
  ASSERT_EQ(groups.size(), 1u);
}

TEST(Fusion, PackUnpackRoundTrip) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  Tensor b = Tensor::from_vector({4, 5});
  Tensor c = Tensor::from_vector({6});
  const FusedTensor fused = fuse({&a, &b, &c});
  ASSERT_EQ(fused.flat.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(fused.flat.at(i), i + 1.0);
  ASSERT_EQ(fused.slices.size(), 3u);
  EXPECT_EQ(fused.slices[1].offset, 3u);
  EXPECT_EQ(fused.slices[1].count, 2u);

  Tensor a2({3}), b2({2}), c2({1});
  unfuse(fused, {&a2, &b2, &c2});
  EXPECT_EQ(a2.at(2), 3.0);
  EXPECT_EQ(b2.at(0), 4.0);
  EXPECT_EQ(c2.at(0), 6.0);
}

TEST(Fusion, NamedSlices) {
  Tensor a({2}), b({2});
  const std::vector<std::string> names{"conv1.w", "conv1.b"};
  const FusedTensor fused = fuse({&a, &b}, &names);
  EXPECT_EQ(fused.slices[0].name, "conv1.w");
  EXPECT_EQ(fused.slices[1].name, "conv1.b");
}

TEST(Fusion, MixedDtypeRejected) {
  Tensor a({2}, DType::kFloat32), b({2}, DType::kFloat64);
  EXPECT_THROW(fuse({&a, &b}), CheckError);
}

TEST(Fusion, UnfuseSizeMismatchRejected) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  const FusedTensor fused = fuse({&a});
  Tensor wrong({4});
  EXPECT_THROW(unfuse(fused, {&wrong}), CheckError);
}

TEST(FusionBuffer, ReusesBackingStoreAndTableAcrossSteps) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  Tensor b = Tensor::from_vector({4, 5});
  FusionBuffer buffer;

  FusedTensor& first = buffer.pack({&a, &b});
  const std::byte* backing = first.flat.data();
  ASSERT_EQ(first.flat.size(), 5u);
  EXPECT_EQ(buffer.stats().packs, 1u);
  EXPECT_EQ(buffer.stats().buffer_reuses, 0u);

  // Same layout next step: same storage, no table rebuild, fresh payload.
  a.set(0, 10.0);
  FusedTensor& second = buffer.pack({&a, &b});
  EXPECT_EQ(second.flat.data(), backing);
  EXPECT_EQ(second.flat.at(0), 10.0);
  EXPECT_EQ(buffer.stats().buffer_reuses, 1u);
  EXPECT_EQ(buffer.stats().table_reuses, 1u);

  Tensor a2({3}), b2({2});
  buffer.unpack({&a2, &b2});
  EXPECT_EQ(a2.at(0), 10.0);
  EXPECT_EQ(b2.at(1), 5.0);
}

TEST(FusionBuffer, LayoutChangeRebuildsBuffer) {
  Tensor a({4}), b({2}), c({6});
  FusionBuffer buffer;
  buffer.pack({&a, &b});
  FusedTensor& repacked = buffer.pack({&a, &c});
  EXPECT_EQ(repacked.flat.size(), 10u);
  ASSERT_EQ(repacked.slices.size(), 2u);
  EXPECT_EQ(repacked.slices[1].count, 6u);
  EXPECT_EQ(buffer.stats().buffer_reuses, 0u);
  EXPECT_EQ(buffer.stats().table_reuses, 0u);
}

// ---- dynamic scaling --------------------------------------------------------

TEST(DynamicScaler, BacksOffOnOverflow) {
  DynamicScaler s;
  const double initial = s.scale();
  EXPECT_FALSE(s.update(/*overflowed=*/true));
  EXPECT_EQ(s.scale(), initial * 0.5);
  EXPECT_EQ(s.num_backoffs(), 1);
}

TEST(DynamicScaler, GrowsAfterCleanWindow) {
  DynamicScaler::Options opt;
  opt.initial_scale = 8.0;
  opt.growth_interval = 3;
  DynamicScaler s(opt);
  EXPECT_TRUE(s.update(false));
  EXPECT_TRUE(s.update(false));
  EXPECT_EQ(s.scale(), 8.0);
  EXPECT_TRUE(s.update(false));
  EXPECT_EQ(s.scale(), 16.0);
  EXPECT_EQ(s.num_growths(), 1);
}

TEST(DynamicScaler, OverflowResetsGrowthWindow) {
  DynamicScaler::Options opt;
  opt.initial_scale = 8.0;
  opt.growth_interval = 2;
  DynamicScaler s(opt);
  s.update(false);
  s.update(true);  // reset
  s.update(false);
  EXPECT_EQ(s.scale(), 4.0);  // no growth yet after reset
}

TEST(DynamicScaler, RespectsScaleBounds) {
  DynamicScaler::Options opt;
  opt.initial_scale = 2.0;
  opt.min_scale = 1.0;
  opt.max_scale = 4.0;
  opt.growth_interval = 1;
  DynamicScaler s(opt);
  s.update(true);
  s.update(true);
  EXPECT_EQ(s.scale(), 1.0);  // clamped at min
  s.update(false);
  s.update(false);
  s.update(false);
  EXPECT_EQ(s.scale(), 4.0);  // clamped at max
}

TEST(Scaling, Fp16RoundTripWithScale) {
  Tensor t = Tensor::from_vector({1e-6, -2e-6, 3e-6});
  // Unscaled, these flush to zero in fp16 (below 2^-24 ≈ 6e-8? they are
  // above; choose a scale that preserves relative precision anyway).
  const double scale = 4096.0;
  const Tensor h = cast_to_fp16_scaled(t, scale);
  EXPECT_EQ(h.dtype(), DType::kFloat16);
  const Tensor back = cast_from_fp16_scaled(h, scale);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_NEAR(back.at(i), t.at(i), std::abs(t.at(i)) * 1e-3);
}

TEST(Scaling, OverflowDetection) {
  Tensor t = Tensor::from_vector({60000.0, 1.0});
  const Tensor h = cast_to_fp16_scaled(t, 2.0);  // 120000 > fp16 max -> inf
  EXPECT_TRUE(tensor_overflowed(h));
  const Tensor ok = cast_to_fp16_scaled(t, 1.0);
  EXPECT_FALSE(tensor_overflowed(ok));
}

}  // namespace
}  // namespace adasum
