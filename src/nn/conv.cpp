#include "nn/conv.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

#include "base/check.h"
#include "nn/linear.h"

namespace adasum::nn {

namespace {

// Output elements Conv2d::forward accumulates together in registers: four
// SSE vectors on the baseline ISA.
constexpr std::size_t kLanes = 16;

// y[0, n) = x[0, n). A run of at most 16 elements moves as two overlapping
// fixed-size blocks, which compile to a few vector moves; LeNet's im2col
// runs are 4 to 16 elements, where a memcpy call costs more than the copy.
// (A plain copy loop does not help: GCC turns it into that call.)
void copy_run(float* y, const float* x, std::size_t n) {
  if (n > 16) {
    std::memcpy(y, x, n * sizeof(float));
  } else if (n >= 8) {
    std::memcpy(y, x, 8 * sizeof(float));
    std::memcpy(y + n - 8, x + n - 8, 8 * sizeof(float));
  } else if (n >= 4) {
    std::memcpy(y, x, 4 * sizeof(float));
    std::memcpy(y + n - 4, x + n - 4, 4 * sizeof(float));
  } else if (n >= 2) {
    std::memcpy(y, x, 2 * sizeof(float));
    std::memcpy(y + n - 2, x + n - 2, 2 * sizeof(float));
  } else if (n == 1) {
    y[0] = x[0];
  }
}

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
  // The output positions [lo, hi) along one axis (input length `in`, output
  // length `out`) whose tap k reads inside the input; the rest are padding.
  const auto in_range = [&](std::size_t k, std::size_t in, std::size_t out) {
    const std::size_t lo =
        std::min(out, k >= padding_ ? 0 : ceil_div(padding_ - k, stride_));
    const std::size_t hi = std::max(
        lo, k >= in + padding_
                ? 0
                : std::min(out, ceil_div(in + padding_ - k, stride_)));
    return std::pair<std::size_t, std::size_t>{lo, hi};
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
        const auto [ylo, yhi] = in_range(ky, h, oh);
        for (std::size_t kx = 0; kx < kernel_; ++kx) {
          const auto [lo, hi] = in_range(kx, w, ow);
          // A padded layer zeroes the whole row once and then writes only
          // the input's runs; unpadded, the runs cover every column but the
          // lane padding.
          float* const row = col + ((ic * kernel_ + ky) * kernel_ + kx) * n;
          std::fill(padding_ > 0 ? row : row + samples * positions, row + n,
                    0.0f);
          if (ylo == yhi || lo == hi) continue;
          for (std::size_t s = 0; s < samples; ++s) {
            const float* xplane = xs.data() + ((b0 + s) * in_c_ + ic) * h * w;
            float* dst = row + s * positions + ylo * ow;
            for (std::size_t oy = ylo; oy < yhi; ++oy, dst += ow) {
              const float* xrow = xplane + (oy * stride_ + ky - padding_) * w;
              // At stride 1 the span is one run of the input row.
              if (stride_ == 1)
                copy_run(dst + lo, xrow + (lo + kx - padding_), hi - lo);
              else
                for (std::size_t ox = lo; ox < hi; ++ox)
                  dst[ox] = xrow[ox * stride_ + kx - padding_];
            }
          }
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

namespace {

struct ConvShape {
  std::size_t batch, in_c, out_c, h, w, oh, ow, kernel, stride, padding;
};

// y[0, K) += a * x[0, K), four elements per vector op and the rest one by
// one. A lane does the scalar statement's multiply and add for its element,
// so the bits do not depend on the split. The explicit vector (a GCC/Clang
// extension) keeps each op inside one row: left to itself, GCC vectorizes
// the caller's row loop instead, gathering strided x and running slower than
// scalar code.
template <std::size_t K>
void row_axpy(float* __restrict y, const float* __restrict x, float a) {
  using Lanes = float __attribute__((vector_size(16)));
  const Lanes av = {a, a, a, a};
  std::size_t i = 0;
  for (; i + 4 <= K; i += 4) {
    Lanes vy, vx;
    std::memcpy(&vy, y + i, sizeof vy);
    std::memcpy(&vx, x + i, sizeof vx);
    vy += av * vx;
    std::memcpy(y + i, &vy, sizeof vy);
  }
  for (; i < K; ++i) y[i] += a * x[i];
}

// The data gradients of Conv2d::backward (the bias gradient is the caller's).
// Every grad_w element sums over b, then raster order of the output; every
// grad_x element over oc, then raster order: the same adds in the same order
// as the direct loop b → oc → ic → raster that skips gy == 0. K is the kernel
// size for the whole-row path; K == 0 sends every entry through the clipped
// loop. Without kInputGrad, gxs is null and only grad_w is accumulated.
template <std::size_t K, bool kInputGrad>
void conv_backward(const ConvShape& s, const float* xs, const float* ws,
                   const float* gys, float* gxs, float* gws) {
  const std::size_t positions = s.oh * s.ow, taps = s.kernel * s.kernel;
  // Per output plane of one sample: the columns of its nonzero gradients in
  // raster order, then 3 * oh + 1 bounds splitting each row's entries into
  // those left of, inside and right of [xlo, xhi).
  const std::size_t per_plane = positions + 3 * s.oh + 1;
  std::size_t* const lists = index_scratch(s.out_c * per_plane);
  // [xlo, xhi): the output columns whose windows lie inside the input's
  // columns, ox * stride >= padding and ox * stride - padding + kernel <= w.
  std::size_t xhi = s.w + s.padding < s.kernel
                        ? 0
                        : std::min(s.ow, (s.w + s.padding - s.kernel) /
                                             s.stride + 1);
  std::size_t xlo = std::min(xhi, (s.padding + s.stride - 1) / s.stride);
  if (K == 0) xlo = xhi = s.ow;

  // The taps of one window that fall inside the input along one axis:
  // [k0, k1) for the window starting at o * stride in padded coordinates.
  const auto tap_range = [&](std::size_t o, std::size_t in) {
    const std::size_t at = o * s.stride, end = in + s.padding;
    return std::pair<std::size_t, std::size_t>{
        at < s.padding ? s.padding - at : 0,
        at + s.kernel <= end ? s.kernel : (end > at ? end - at : 0)};
  };

  for (std::size_t b = 0; b < s.batch; ++b) {
    const float* gysample = gys + b * s.out_c * positions;
    for (std::size_t oc = 0; oc < s.out_c; ++oc) {
      const float* gyplane = gysample + oc * positions;
      std::size_t* const ent = lists + oc * per_plane;
      std::size_t* const seg = ent + positions;
      std::size_t count = 0;
      seg[0] = 0;
      for (std::size_t oy = 0; oy < s.oh; ++oy) {
        const float* gyrow = gyplane + oy * s.ow;
        count += nonzero_indices(gyrow, xlo, 0, ent + count);
        seg[3 * oy + 1] = count;
        count += nonzero_indices(gyrow + xlo, xhi - xlo, xlo, ent + count);
        seg[3 * oy + 2] = count;
        count += nonzero_indices(gyrow + xhi, s.ow - xhi, xhi, ent + count);
        seg[3 * oy + 3] = count;
      }
    }
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
      const float* xplane = xs + (b * s.in_c + ic) * s.h * s.w;
      float* gxplane =
          kInputGrad ? gxs + (b * s.in_c + ic) * s.h * s.w : nullptr;
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        const float* gyplane = gysample + oc * positions;
        const std::size_t* ent = lists + oc * per_plane;
        const std::size_t* seg = ent + positions;
        const float* wplane = ws + (oc * s.in_c + ic) * taps;
        float* gwplane = gws + (oc * s.in_c + ic) * taps;
        for (std::size_t oy = 0; oy < s.oh; ++oy) {
          const float* gyrow = gyplane + oy * s.ow;
          const std::size_t* r = seg + 3 * oy;
          const auto [ky0, ky1] = tap_range(oy, s.h);
          // Input row of tap row ky is iy0 + ky; unsigned wrap-around in iy0
          // cancels for ky >= ky0, and so does it in a column base below.
          const std::size_t iy0 = oy * s.stride - s.padding;
          const auto clipped = [&](std::size_t e) {
            const std::size_t ox = ent[e], ix0 = ox * s.stride - s.padding;
            const float gy = gyrow[ox];
            const auto [kx0, kx1] = tap_range(ox, s.w);
            for (std::size_t ky = ky0; ky < ky1; ++ky) {
              const std::size_t row = (iy0 + ky) * s.w + ix0;
              for (std::size_t kx = kx0; kx < kx1; ++kx) {
                gwplane[ky * s.kernel + kx] += gy * xplane[row + kx];
                if constexpr (kInputGrad)
                  gxplane[row + kx] += gy * wplane[ky * s.kernel + kx];
              }
            }
          };
          for (std::size_t e = r[0]; e < r[1]; ++e) clipped(e);
          if constexpr (K != 0) {
            for (std::size_t e = r[1]; e < r[2]; ++e) {
              const std::size_t ox = ent[e], ix0 = ox * s.stride - s.padding;
              const float gy = gyrow[ox];
              for (std::size_t ky = ky0; ky < ky1; ++ky) {
                const std::size_t row = (iy0 + ky) * s.w + ix0;
                row_axpy<K>(gwplane + ky * K, xplane + row, gy);
                if constexpr (kInputGrad)
                  row_axpy<K>(gxplane + row, wplane + ky * K, gy);
              }
            }
          }
          for (std::size_t e = r[2]; e < r[3]; ++e) clipped(e);
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2d::backward(const Tensor& grad_out) {
  Tensor grad_in(cached_input_.shape());
  accumulate_gradients(grad_out, grad_in.span<float>().data());
  return grad_in;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  accumulate_gradients(grad_out, nullptr);
}

void Conv2d::accumulate_gradients(const Tensor& grad_out, float* gxs) {
  const Tensor& x = cached_input_;
  const ConvShape s{.batch = x.dim(0), .in_c = in_c_, .out_c = out_c_,
                    .h = x.dim(2), .w = x.dim(3), .oh = out_size(x.dim(2)),
                    .ow = out_size(x.dim(3)), .kernel = kernel_,
                    .stride = stride_, .padding = padding_};
  ADASUM_CHECK_EQ(grad_out.size(), s.batch * out_c_ * s.oh * s.ow);

  const float* xs = x.span<float>().data();
  const float* ws = weight_.value.span<float>().data();
  const float* gys = grad_out.span<float>().data();
  float* gws = weight_.grad.span<float>().data();
  auto gbs = bias_.grad.span<float>();

  // The bias gradient adds every element, zeros included (-0 + +0 is +0),
  // b then raster per channel; the channels run side by side so that their
  // add chains overlap.
  const std::size_t positions = s.oh * s.ow;
  for (std::size_t b = 0; b < s.batch; ++b) {
    const float* gysample = gys + b * out_c_ * positions;
    for (std::size_t i = 0; i < positions; ++i)
      for (std::size_t oc = 0; oc < out_c_; ++oc)
        gbs[oc] += gysample[oc * positions + i];
  }
  // LeNet's 5x5 kernels get the whole-row path. It was measured only there:
  // for K = 3, row_axpy would have no whole vector op.
  if (kernel_ == 5 && gxs != nullptr)
    conv_backward<5, true>(s, xs, ws, gys, gxs, gws);
  else if (kernel_ == 5)
    conv_backward<5, false>(s, xs, ws, gys, gxs, gws);
  else if (gxs != nullptr)
    conv_backward<0, true>(s, xs, ws, gys, gxs, gws);
  else
    conv_backward<0, false>(s, xs, ws, gys, gxs, gws);
}

std::vector<Parameter*> Conv2d::parameters() { return {&weight_, &bias_}; }

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  input_shape_ = x.shape();
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  ADASUM_CHECK_GT(oh, 0u);
  Tensor y({batch, c, oh, ow});
  argmax_.resize(y.size());  // every element is written below
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  std::size_t oi = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xs.data() + (b * c + ch) * h * w;
      const std::size_t plane_base = (b * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
          // A window with nothing above -inf (all -inf or all NaN) routes
          // its gradient to its own first element.
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = oy * window_ * w + ox * window_;
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
  Tensor grad_in(input_shape_);
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
