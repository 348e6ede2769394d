#include "nn/conv.h"

#include <algorithm>
#include <limits>

#include "base/check.h"
#include "nn/linear.h"

namespace adasum::nn {

namespace {

// Output elements Conv2d::forward accumulates together in registers: four
// SSE vectors on the baseline ISA.
constexpr std::size_t kLanes = 16;

}  // namespace

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel, Rng& rng,
               std::size_t stride, std::size_t padding)
    : name_(std::move(name)),
      in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(name_ + ".weight", {out_channels, in_channels, kernel, kernel}),
      bias_(name_ + ".bias", {out_channels}) {
  ADASUM_CHECK_GT(kernel_, 0u);
  ADASUM_CHECK_GT(stride_, 0u);
  he_init(weight_.value, in_c_ * kernel_ * kernel_, rng);
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  ADASUM_CHECK_EQ(x.dim(1), in_c_);
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  ADASUM_CHECK_MSG(h + 2 * padding_ >= kernel_ && w + 2 * padding_ >= kernel_,
                   "input smaller than the padded kernel");
  cached_input_ = x;
  const std::size_t oh = out_size(h), ow = out_size(w);
  const std::size_t positions = oh * ow, taps = kernel_ * kernel_;
  const std::size_t rows = in_c_ * taps;
  Tensor y({batch, out_c_, oh, ow});
  const auto xs = x.span<float>();
  const auto ws = weight_.value.span<float>();
  const auto bs = bias_.value.span<float>();
  auto ys = y.span<float>();

  // The scratch holds, for a tile of whole samples, the im2col matrix (one
  // row per (ic, ky, kx), column = sample * positions + pos) and the tile's
  // output (one row per oc). Rows are padded with zero columns to whole lane
  // groups.
  const auto ceil_div = [](std::size_t a, std::size_t b) {
    return (a + b - 1) / b;
  };
  const auto lane_cols = [&](std::size_t cols) {
    return ceil_div(cols, kLanes) * kLanes;
  };
  const std::size_t max_cols =
      kForwardScratchFloats / (rows + out_c_) / kLanes * kLanes;
  const std::size_t tile =
      std::max<std::size_t>(1, std::min(batch, max_cols / positions));
  float* const col =
      forward_scratch((rows + out_c_) * lane_cols(tile * positions));

  for (std::size_t b0 = 0; b0 < batch; b0 += tile) {
    const std::size_t samples = std::min(tile, batch - b0);
    const std::size_t n = lane_cols(samples * positions);
    for (std::size_t ic = 0; ic < in_c_; ++ic) {
      for (std::size_t ky = 0; ky < kernel_; ++ky) {
        for (std::size_t kx = 0; kx < kernel_; ++kx) {
          // Output columns [lo, hi) read inside the row; the rest are padding.
          const std::size_t lo = std::min(
              ow, kx >= padding_ ? 0 : ceil_div(padding_ - kx, stride_));
          const std::size_t hi = std::max(
              lo, kx >= w + padding_
                      ? 0
                      : std::min(ow, ceil_div(w + padding_ - kx, stride_)));
          float* const row_begin =
              col + ((ic * kernel_ + ky) * kernel_ + kx) * n;
          float* row = row_begin;
          for (std::size_t s = 0; s < samples; ++s) {
            const float* xplane = xs.data() + ((b0 + s) * in_c_ + ic) * h * w;
            for (std::size_t oy = 0; oy < oh; ++oy, row += ow) {
              const std::size_t iy = oy * stride_ + ky;
              if (iy < padding_ || iy - padding_ >= h) {
                std::fill_n(row, ow, 0.0f);
                continue;
              }
              const float* xrow = xplane + (iy - padding_) * w;
              std::fill_n(row, lo, 0.0f);
              for (std::size_t ox = lo; ox < hi; ++ox)
                row[ox] = xrow[ox * stride_ + kx - padding_];
              std::fill(row + hi, row + ow, 0.0f);
            }
          }
          std::fill(row, row_begin + n, 0.0f);
        }
      }
    }

    // Each output element starts at the bias, sums its taps in (ky, kx) order
    // per input channel and adds that partial sum in ic order: the direct
    // loop's order, with the lanes running across output elements. A padded
    // tap adds x * w = ±0, which leaves the sum's bits alone for finite w.
    float* const out = col + rows * n;
    for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        float o[kLanes];
        std::fill_n(o, kLanes, bs[oc]);
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          const float* wplane = ws.data() + (oc * in_c_ + ic) * taps;
          const float* crow = col + ic * taps * n + j0;
          float a[kLanes] = {};
          for (std::size_t t = 0; t < taps; ++t, crow += n)
            for (std::size_t l = 0; l < kLanes; ++l)
              a[l] += crow[l] * wplane[t];
          for (std::size_t l = 0; l < kLanes; ++l) o[l] += a[l];
        }
        std::copy_n(o, kLanes, out + oc * n + j0);
      }
    }
    for (std::size_t s = 0; s < samples; ++s)
      for (std::size_t oc = 0; oc < out_c_; ++oc)
        std::copy_n(out + oc * n + s * positions, positions,
                    ys.data() + ((b0 + s) * out_c_ + oc) * positions);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_size(h), ow = out_size(w);
  ADASUM_CHECK_EQ(grad_out.size(), batch * out_c_ * oh * ow);

  Tensor grad_in(x.shape());
  const auto xs = x.span<float>();
  const auto ws = weight_.value.span<float>();
  const auto gys = grad_out.span<float>();
  auto gxs = grad_in.span<float>();
  auto gws = weight_.grad.span<float>();
  auto gbs = bias_.grad.span<float>();

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* gyplane = gys.data() + (b * out_c_ + oc) * oh * ow;
      for (std::size_t i = 0; i < oh * ow; ++i) gbs[oc] += gyplane[i];
      for (std::size_t ic = 0; ic < in_c_; ++ic) {
        const float* xplane = xs.data() + (b * in_c_ + ic) * h * w;
        float* gxplane = gxs.data() + (b * in_c_ + ic) * h * w;
        const float* wplane =
            ws.data() + (oc * in_c_ + ic) * kernel_ * kernel_;
        float* gwplane = gws.data() + (oc * in_c_ + ic) * kernel_ * kernel_;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const float gy = gyplane[oy * ow + ox];
            if (gy == 0.0f) continue;
            for (std::size_t ky = 0; ky < kernel_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                    static_cast<std::ptrdiff_t>(padding_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t xi =
                    static_cast<std::size_t>(iy) * w +
                    static_cast<std::size_t>(ix);
                gwplane[ky * kernel_ + kx] += gy * xplane[xi];
                gxplane[xi] += gy * wplane[ky * kernel_ + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> Conv2d::parameters() { return {&weight_, &bias_}; }

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  cached_input_ = x;
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  ADASUM_CHECK_GT(oh, 0u);
  Tensor y({batch, c, oh, ow});
  argmax_.assign(y.size(), 0);
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  std::size_t oi = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xs.data() + (b * c + ch) * h * w;
      const std::size_t plane_base = (b * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t idx =
                  (oy * window_ + ky) * w + ox * window_ + kx;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          ys[oi] = best;
          argmax_[oi] = plane_base + best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  ADASUM_CHECK_EQ(grad_out.size(), argmax_.size());
  Tensor grad_in(cached_input_.shape());
  const auto gys = grad_out.span<float>();
  auto gxs = grad_in.span<float>();
  for (std::size_t i = 0; i < gys.size(); ++i) gxs[argmax_[i]] += gys[i];
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  cached_shape_ = x.shape();
  const std::size_t batch = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({batch, c});
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xs.data() + (b * c + ch) * hw;
      float acc = 0.0f;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      ys[b * c + ch] = acc / static_cast<float>(hw);
    }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const std::size_t batch = cached_shape_[0], c = cached_shape_[1],
                    hw = cached_shape_[2] * cached_shape_[3];
  ADASUM_CHECK_EQ(grad_out.size(), batch * c);
  Tensor grad_in(cached_shape_);
  const auto gys = grad_out.span<float>();
  auto gxs = grad_in.span<float>();
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = gys[b * c + ch] / static_cast<float>(hw);
      float* plane = gxs.data() + (b * c + ch) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  return grad_in;
}

}  // namespace adasum::nn
