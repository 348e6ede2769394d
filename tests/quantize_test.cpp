// Tests for the per-tensor int8 oracle (int8_oracle.h) and the wire codec's
// error feedback (ErrorFeedback in tensor/compress/compress.h).
#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.h"
#include "int8_oracle.h"
#include "tensor/compress/compress.h"

namespace adasum {
namespace {

TEST(QuantizeInt8, RoundTripErrorBounded) {
  Rng rng(1);
  std::vector<float> values(1000);
  for (auto& v : values) v = static_cast<float>(rng.normal(0, 2));
  const Int8Quantized q = quantize_int8(values);
  std::vector<float> back(values.size());
  dequantize_int8(q, back);
  // Max error is half a quantization step.
  const float step = q.scale;
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_LE(std::abs(back[i] - values[i]), step * 0.5f + 1e-7f) << i;
}

TEST(QuantizeInt8, ExtremesMapToFullRange) {
  std::vector<float> values{-10.0f, 0.0f, 10.0f};
  const Int8Quantized q = quantize_int8(values);
  EXPECT_EQ(q.data[0], -127);
  EXPECT_EQ(q.data[1], 0);
  EXPECT_EQ(q.data[2], 127);
}

TEST(QuantizeInt8, AllZerosStayZero) {
  std::vector<float> values(16, 0.0f);
  const Int8Quantized q = quantize_int8(values);
  EXPECT_EQ(q.scale, 0.0f);
  std::vector<float> back(16, 1.0f);
  dequantize_int8(q, back);
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeInt8, WireBytesAreQuarterOfFp32) {
  std::vector<float> values(1024, 1.0f);
  const Int8Quantized q = quantize_int8(values);
  EXPECT_EQ(q.wire_bytes(), 1024u + 4u);  // 4x smaller than 4096 fp32 bytes
}

TEST(QuantizeInt8, SymmetricUnderNegation) {
  Rng rng(2);
  std::vector<float> values(64), neg(64);
  for (std::size_t i = 0; i < 64; ++i) {
    values[i] = static_cast<float>(rng.normal());
    neg[i] = -values[i];
  }
  const Int8Quantized a = quantize_int8(values);
  const Int8Quantized b = quantize_int8(neg);
  EXPECT_EQ(a.scale, b.scale);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(a.data[i], -b.data[i]);
}

TEST(ErrorFeedbackTest, ResidualsAccumulateAndCompensate) {
  ErrorFeedback ef({3});
  std::vector<float> values{1.0f, 2.0f, 3.0f};
  std::vector<float> transmitted{0.9f, 2.1f, 3.0f};
  ef.record(0, values, transmitted);
  // Next round: the residual (0.1, -0.1, 0) is added back.
  std::vector<float> next{1.0f, 1.0f, 1.0f};
  ef.compensate(0, next);
  EXPECT_NEAR(next[0], 1.1f, 1e-6);
  EXPECT_NEAR(next[1], 0.9f, 1e-6);
  EXPECT_NEAR(next[2], 1.0f, 1e-6);
  // Compensating is not consuming: the banked residual is unchanged.
  std::vector<float> residual(3, 0.0f);
  ef.compensate(0, residual);
  double norm_squared = 0.0;
  for (float v : residual) norm_squared += static_cast<double>(v) * v;
  EXPECT_NEAR(norm_squared, 0.01 + 0.01, 1e-7);
}

TEST(ErrorFeedbackTest, LongRunResidualStaysBounded) {
  // Error feedback's defining property: the residual does not grow without
  // bound, so the compressed stream's cumulative sum tracks the true one.
  Rng rng(3);
  ErrorFeedback ef({128});
  std::vector<float> true_sum(128, 0.0f), sent_sum(128, 0.0f);
  for (int round = 0; round < 300; ++round) {
    std::vector<float> g(128);
    for (auto& v : g) v = static_cast<float>(rng.normal(0, 0.1));
    for (std::size_t i = 0; i < 128; ++i) true_sum[i] += g[i];
    ef.compensate(0, g);
    const Int8Quantized q = quantize_int8(g);
    std::vector<float> transmitted(128);
    dequantize_int8(q, transmitted);
    ef.record(0, g, transmitted);
    for (std::size_t i = 0; i < 128; ++i) sent_sum[i] += transmitted[i];
  }
  // Cumulative difference equals the final residual, which is one round's
  // quantization error — tiny compared to the 300-round sums.
  double diff = 0, total = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    diff += std::pow(true_sum[i] - sent_sum[i], 2);
    total += std::pow(true_sum[i], 2);
  }
  EXPECT_LT(std::sqrt(diff / std::max(total, 1e-12)), 0.05);
}

TEST(ErrorFeedbackTest, IndexBoundsChecked) {
  ErrorFeedback ef({4});
  std::vector<float> v(4, 0.0f);
  EXPECT_THROW(ef.compensate(1, v), CheckError);
  std::vector<float> wrong(5, 0.0f);
  EXPECT_THROW(ef.compensate(0, wrong), CheckError);
}

}  // namespace
}  // namespace adasum
