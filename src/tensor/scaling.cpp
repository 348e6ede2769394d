#include "tensor/scaling.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "tensor/kernels.h"

namespace adasum {

DynamicScaler::DynamicScaler(const Options& options)
    : options_(options), scale_(options.initial_scale) {
  ADASUM_CHECK_GT(options_.initial_scale, 0.0);
  ADASUM_CHECK_GT(options_.growth_factor, 1.0);
  ADASUM_CHECK_GT(options_.backoff_factor, 0.0);
  ADASUM_CHECK_LT(options_.backoff_factor, 1.0);
}

bool DynamicScaler::update(bool overflowed) {
  if (overflowed) {
    scale_ = std::max(options_.min_scale, scale_ * options_.backoff_factor);
    good_steps_ = 0;
    ++num_backoffs_;
    return false;
  }
  if (++good_steps_ >= options_.growth_interval) {
    scale_ = std::min(options_.max_scale, scale_ * options_.growth_factor);
    good_steps_ = 0;
    ++num_growths_;
  }
  return true;
}

namespace {

// Staging tile for the fp32 fast path below; matches the SIMD engine's fp16
// tile size so the bulk converter runs full-width (tensor/simd/kernels_avx2.cpp).
constexpr std::size_t kCastTile = 2048;

}  // namespace

Tensor cast_to_fp16_scaled(const Tensor& t, double scale) {
  Tensor out(t.shape(), DType::kFloat16);
  cast_to_fp16_scaled(t, scale, out);
  return out;
}

void cast_to_fp16_scaled(const Tensor& t, double scale, Tensor& out) {
  ADASUM_CHECK(out.dtype() == DType::kFloat16);
  ADASUM_CHECK_EQ(out.size(), t.size());
  auto dst = out.span<Half>();
  if (t.dtype() == DType::kFloat32) {
    // Hot path (fp16 gradient payloads start life as fp32): scale into a
    // stack tile, then one dispatched bulk float->half conversion per tile.
    // Same arithmetic as the generic loop: double multiply, one rounding to
    // float, round-to-nearest-even to half.
    const auto src = t.span<float>();
    float tile[kCastTile];
    for (std::size_t off = 0; off < src.size(); off += kCastTile) {
      const std::size_t m = std::min(kCastTile, src.size() - off);
      for (std::size_t j = 0; j < m; ++j)
        tile[j] =
            static_cast<float>(static_cast<double>(src[off + j]) * scale);
      kernels::float_to_half(std::span<const float>(tile, m),
                             dst.subspan(off, m));
    }
    return;
  }
  for (std::size_t i = 0; i < t.size(); ++i)
    dst[i] = Half(static_cast<float>(t.at(i) * scale));
}

Tensor cast_from_fp16_scaled(const Tensor& t, double scale) {
  Tensor out(t.shape(), DType::kFloat32);
  cast_from_fp16_scaled(t, scale, out);
  return out;
}

void cast_from_fp16_scaled(const Tensor& t, double scale, Tensor& out) {
  ADASUM_CHECK(t.dtype() == DType::kFloat16);
  ADASUM_CHECK(out.dtype() == DType::kFloat32);
  ADASUM_CHECK_EQ(out.size(), t.size());
  ADASUM_CHECK_GT(scale, 0.0);
  auto src = t.span<Half>();
  auto dst = out.span<float>();
  // Bulk half->float (exact), then the same double-divide/narrow sequence as
  // the seed's per-element loop.
  kernels::half_to_float(std::span<const Half>(src.data(), src.size()), dst);
  for (std::size_t i = 0; i < t.size(); ++i)
    dst[i] = static_cast<float>(static_cast<double>(dst[i]) / scale);
}

bool tensor_overflowed(const Tensor& t) {
  return dispatch_dtype(t.dtype(), [&]<typename T>() {
    return kernels::has_nonfinite(t.span<T>());
  });
}

}  // namespace adasum
