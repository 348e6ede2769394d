// Symmetric per-tensor int8 quantization (x ≈ q * scale, scale = max|x| /
// 127, round to nearest), written as plain scalar loops. It is the
// independent oracle of the blockwise wire codec: with one round-to-nearest
// block covering the tensor, compress_f32 must reproduce it bit for bit
// (CompressCodec.OneBlockRtnMatchesPerTensorOracle in compress_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "base/check.h"

namespace adasum {

struct Int8Quantized {
  std::vector<std::int8_t> data;
  float scale = 0.0f;  // x ≈ data[i] * scale

  std::size_t wire_bytes() const { return data.size() + sizeof(float); }
};

// Symmetric per-tensor quantization; an all-zero input yields scale 0.
inline Int8Quantized quantize_int8(std::span<const float> values) {
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

// out[i] = q.data[i] * q.scale. `out.size()` must equal `q.data.size()`.
inline void dequantize_int8(const Int8Quantized& q, std::span<float> out) {
  ADASUM_CHECK_EQ(out.size(), q.data.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(q.data[i]) * q.scale;
}

}  // namespace adasum
