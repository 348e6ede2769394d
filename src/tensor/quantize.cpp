#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace adasum {

Int8Quantized quantize_int8(std::span<const float> values) {
  Int8Quantized q;
  q.data.assign(values.size(), 0);
  float max_abs = 0.0f;
  for (float v : values) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs == 0.0f) return q;
  q.scale = max_abs / 127.0f;
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float rounded = std::nearbyint(values[i] * inv);
    q.data[i] = static_cast<std::int8_t>(
        std::max(-127.0f, std::min(127.0f, rounded)));
  }
  return q;
}

void dequantize_int8(const Int8Quantized& q, std::span<float> out) {
  ADASUM_CHECK_EQ(out.size(), q.data.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(q.data[i]) * q.scale;
}

ErrorFeedback::ErrorFeedback(std::vector<std::size_t> sizes) {
  residuals_.reserve(sizes.size());
  for (std::size_t n : sizes) residuals_.emplace_back(n, 0.0f);
}

void ErrorFeedback::compensate(std::size_t index, std::span<float> values) {
  ADASUM_CHECK_LT(index, residuals_.size());
  const auto& r = residuals_[index];
  ADASUM_CHECK_EQ(values.size(), r.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] += r[i];
}

void ErrorFeedback::record(std::size_t index, std::span<const float> values,
                           std::span<const float> transmitted) {
  ADASUM_CHECK_LT(index, residuals_.size());
  auto& r = residuals_[index];
  ADASUM_CHECK_EQ(values.size(), r.size());
  ADASUM_CHECK_EQ(transmitted.size(), r.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    r[i] = values[i] - transmitted[i];
}

double ErrorFeedback::residual_norm_squared() const {
  double acc = 0.0;
  for (const auto& r : residuals_)
    for (float v : r) acc += static_cast<double>(v) * v;
  return acc;
}

}  // namespace adasum
