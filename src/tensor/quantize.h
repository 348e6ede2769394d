// Per-tensor int8 quantization (the test oracle) and error feedback.
//
// The paper's §6 discusses gradient-compression methods (1-bit SGD, low-rank
// PowerSGD) as a complementary axis to Adasum: they shrink each
// communication round, Adasum reduces how many rounds are needed. This
// module keeps the two scalar building blocks of that axis:
//  * symmetric per-tensor int8 quantization (x ≈ q * scale, scale =
//    max|x| / 127, round to nearest) — the ancestor of the blockwise wire
//    codec (tensor/compress/compress.h). The codec reproduces it bit for bit
//    with one round-to-nearest block covering the tensor, which is how the
//    DistributedOptimizer's kInt8 runs; this struct API is the oracle the
//    codec tests compare against;
//  * the error-feedback residual that makes biased compressors converge
//    (Seide et al., the paper's [33]), the one implementation every
//    compressed optimizer path uses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace adasum {

struct Int8Quantized {
  std::vector<std::int8_t> data;
  float scale = 0.0f;  // x ≈ data[i] * scale

  std::size_t wire_bytes() const { return data.size() + sizeof(float); }
};

// Symmetric per-tensor quantization; an all-zero input yields scale 0.
Int8Quantized quantize_int8(std::span<const float> values);

// out[i] = q.data[i] * q.scale. `out.size()` must equal `q.data.size()`.
void dequantize_int8(const Int8Quantized& q, std::span<float> out);

// Error-feedback accumulator for a fixed-layout set of tensors: before
// compressing, add the residual left over from the previous round; after
// compressing, store the new residual (original - transmitted).
class ErrorFeedback {
 public:
  // `sizes` fixes the per-tensor element counts (layout must not change).
  explicit ErrorFeedback(std::vector<std::size_t> sizes);

  // Adds tensor `index`'s residual into `values` in place.
  void compensate(std::size_t index, std::span<float> values);
  // Records residual = values - transmitted for tensor `index`.
  void record(std::size_t index, std::span<const float> values,
              std::span<const float> transmitted);

  double residual_norm_squared() const;

 private:
  std::vector<std::vector<float>> residuals_;
};

}  // namespace adasum
