// The nn hot loops, one body per kernel (DESIGN.md §18). This file is built
// at baseline into nn::baseline and again, through nn/kernels_avx2.cpp, with
// -mavx2 -ffp-contract=off into nn::avx2; nn/kernels.h says how the layers
// pick one.
//
// It includes only <cstring>, <limits> (for a constant) and nn/kernels.h,
// calls no std:: function template, and keeps every helper file-local. An
// inline function it instantiated would be emitted in the AVX2 object with
// AVX encodings under a shared (weak) symbol, and the linker could hand that
// copy to a baseline caller on a CPU without AVX2. scripts/check.sh checks
// that the AVX2 object defines no weak symbol.
//
// Conv2d::forward lowers a tile of whole samples to im2col columns in the
// shared forward scratch, copying each row's in-range span as one block at
// stride 1, and accumulates each output channel with the lanes running
// across output elements, so it vectorizes while every element keeps the
// direct loop's summation order.
// Conv2d::backward (baseline build only, see below) lists each output
// plane's nonzero gradients without a branch per element and runs only
// those, with whole kernel rows as vector ops where the window's columns lie
// inside the input; every gradient element keeps the zero-skipping direct
// loop's adds and order.
#include <cstring>
#include <limits>

#include "nn/kernels.h"

#if defined(ADASUM_NN_AVX2)
#define ADASUM_NN_ISA avx2
#else
#define ADASUM_NN_ISA baseline
#endif
#define ADASUM_NN_STR(x) ADASUM_NN_STR_(x)
#define ADASUM_NN_STR_(x) #x

namespace adasum::nn::ADASUM_NN_ISA {
namespace {

std::size_t min_of(std::size_t a, std::size_t b) { return a < b ? a : b; }
std::size_t max_of(std::size_t a, std::size_t b) { return a < b ? b : a; }
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Zeroes y[0, n): +0.0f is all zero bits.
void zero(float* y, std::size_t n) { std::memset(y, 0, n * sizeof(float)); }

struct Range {
  std::size_t lo, hi;
};

// Output elements Conv2d::forward accumulates together in registers: four
// SSE vectors on the baseline ISA, two AVX vectors on AVX2 (32 lanes there
// measured no faster).
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

void conv_forward(const ConvShape& s, const float* xs, const float* ws,
                  const float* bs, float* ys) {
  const std::size_t positions = s.oh * s.ow, taps = s.kernel * s.kernel;
  const std::size_t rows = s.in_c * taps;

  // The scratch holds, for a tile of whole samples, the im2col matrix (one
  // row per (ic, ky, kx), column = sample * positions + pos) and the tile's
  // output (one row per oc). Rows are padded with zero columns to whole lane
  // groups.
  const auto lane_cols = [](std::size_t cols) {
    return ceil_div(cols, kLanes) * kLanes;
  };
  // The output positions [lo, hi) along one axis (input length `in`, output
  // length `out`) whose tap k reads inside the input; the rest are padding.
  const auto in_range = [&](std::size_t k, std::size_t in, std::size_t out) {
    const std::size_t lo =
        min_of(out, k >= s.padding ? 0 : ceil_div(s.padding - k, s.stride));
    const std::size_t hi = max_of(
        lo, k >= in + s.padding
                ? 0
                : min_of(out, ceil_div(in + s.padding - k, s.stride)));
    return Range{lo, hi};
  };
  const std::size_t max_cols =
      kForwardScratchFloats / (rows + s.out_c) / kLanes * kLanes;
  const std::size_t tile = max_of(1, min_of(s.batch, max_cols / positions));
  float* const col =
      forward_scratch((rows + s.out_c) * lane_cols(tile * positions));

  for (std::size_t b0 = 0; b0 < s.batch; b0 += tile) {
    const std::size_t samples = min_of(tile, s.batch - b0);
    const std::size_t n = lane_cols(samples * positions);
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
      for (std::size_t ky = 0; ky < s.kernel; ++ky) {
        const auto [ylo, yhi] = in_range(ky, s.h, s.oh);
        for (std::size_t kx = 0; kx < s.kernel; ++kx) {
          const auto [lo, hi] = in_range(kx, s.w, s.ow);
          // A padded layer zeroes the whole row once and then writes only
          // the input's runs; unpadded, the runs cover every column but the
          // lane padding.
          float* const row = col + ((ic * s.kernel + ky) * s.kernel + kx) * n;
          const std::size_t zero_from = s.padding > 0 ? 0 : samples * positions;
          zero(row + zero_from, n - zero_from);
          if (ylo == yhi || lo == hi) continue;
          for (std::size_t b = 0; b < samples; ++b) {
            const float* xplane = xs + ((b0 + b) * s.in_c + ic) * s.h * s.w;
            float* dst = row + b * positions + ylo * s.ow;
            for (std::size_t oy = ylo; oy < yhi; ++oy, dst += s.ow) {
              const float* xrow =
                  xplane + (oy * s.stride + ky - s.padding) * s.w;
              // At stride 1 the span is one run of the input row.
              if (s.stride == 1)
                copy_run(dst + lo, xrow + (lo + kx - s.padding), hi - lo);
              else
                for (std::size_t ox = lo; ox < hi; ++ox)
                  dst[ox] = xrow[ox * s.stride + kx - s.padding];
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
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        float o[kLanes];
        // Loaded once: with bs[oc] read inside the fill loop, GCC leaves the
        // AVX2 build's lane loop scalar, one multiply per lane.
        const float bias = bs[oc];
        for (std::size_t l = 0; l < kLanes; ++l) o[l] = bias;
        for (std::size_t ic = 0; ic < s.in_c; ++ic) {
          const float* wplane = ws + (oc * s.in_c + ic) * taps;
          const float* crow = col + ic * taps * n + j0;
          float a[kLanes] = {};
          for (std::size_t t = 0; t < taps; ++t, crow += n)
            for (std::size_t l = 0; l < kLanes; ++l)
              a[l] += crow[l] * wplane[t];
          for (std::size_t l = 0; l < kLanes; ++l) o[l] += a[l];
        }
        std::memcpy(out + oc * n + j0, o, sizeof o);
      }
    }
    for (std::size_t b = 0; b < samples; ++b)
      for (std::size_t oc = 0; oc < s.out_c; ++oc)
        std::memcpy(ys + ((b0 + b) * s.out_c + oc) * positions,
                    out + oc * n + b * positions, positions * sizeof(float));
  }
}

// Stores base + i for every i < n with v[i] != 0 (NaN counts, ±0 does not)
// to idx in increasing order and returns how many it stored. idx needs room
// for n: every index is stored and only the count decides whether it stays,
// so the loop has no data-dependent branch to mispredict.
std::size_t nonzero_indices(const float* v, std::size_t n, std::size_t base,
                            std::size_t* idx) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx[count] = base + i;
    count += v[i] != 0.0f;
  }
  return count;
}

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) zero(c, m * n);
  // i-k-j order: streams b and c rows, vectorizes the inner j loop. Each row
  // of a runs only its nonzero kk, in order, so every c element keeps the
  // adds a zero-skipping loop makes.
  std::size_t* const nz = index_scratch(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    const std::size_t count = nonzero_indices(arow, k, 0, nz);
    for (std::size_t e = 0; e < count; ++e) {
      const float av = arow[nz[e]];
      const float* brow = b + nz[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  // c[i,j] = sum_kk a[i,kk] * b[j,kk]. A column block of bᵀ is packed so the
  // inner j loop is contiguous; each c[i,j] still sums its products in kk
  // order into a zeroed accumulator before it is stored or added to c.
  const std::size_t block =
      max_of(1, min_of(n, kForwardScratchFloats / (k + 1)));
  float* const bt = forward_scratch((k + 1) * block);
  for (std::size_t j0 = 0; j0 < n; j0 += block) {
    const std::size_t nb = min_of(block, n - j0);
    float* const acc = bt + k * nb;
    for (std::size_t j = 0; j < nb; ++j)
      for (std::size_t kk = 0; kk < k; ++kk)
        bt[kk * nb + j] = b[(j0 + j) * k + kk];
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      zero(acc, nb);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* btrow = bt + kk * nb;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += av * btrow[j];
      }
      float* crow = c + i * n + j0;
      if (accumulate)
        for (std::size_t j = 0; j < nb; ++j) crow[j] += acc[j];
      else
        std::memcpy(crow, acc, nb * sizeof(float));
    }
  }
}

void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) zero(c, k * n);
  // c[kk,j] += a[i,kk] * b[i,j]: outer-product accumulation per i, over the
  // nonzero kk of row i only.
  std::size_t* const nz = index_scratch(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    const std::size_t count = nonzero_indices(arow, k, 0, nz);
    for (std::size_t e = 0; e < count; ++e) {
      const float av = arow[nz[e]];
      float* crow = c + nz[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void relu_forward(const float* xs, float* ys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) ys[i] = xs[i] > 0.0f ? xs[i] : 0.0f;
}

void relu_backward(const float* xs, const float* gs, float* os,
                   std::size_t n) {
  // gs[i] is loaded whether or not it is kept: a load under the condition
  // cannot be if-converted, and the loop would stay a branch per element.
  for (std::size_t i = 0; i < n; ++i) {
    const float g = gs[i];
    os[i] = xs[i] > 0.0f ? g : 0.0f;
  }
}

void maxpool_forward(const float* xs, float* ys, std::size_t* argmax,
                     std::size_t planes, std::size_t h, std::size_t w,
                     std::size_t window) {
  constexpr float kMinusInf = -std::numeric_limits<float>::infinity();
  const std::size_t oh = h / window, ow = w / window;
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = xs + p * h * w;
    const std::size_t plane_base = p * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
        // A window with nothing above -inf (all -inf or all NaN) routes
        // its gradient to its own first element.
        float best = kMinusInf;
        std::size_t best_idx = oy * window * w + ox * window;
        for (std::size_t ky = 0; ky < window; ++ky) {
          for (std::size_t kx = 0; kx < window; ++kx) {
            const std::size_t idx = (oy * window + ky) * w + ox * window + kx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        ys[oi] = best;
        argmax[oi] = plane_base + best_idx;
      }
    }
  }
}

void maxpool_backward(const float* gys, const std::size_t* argmax, float* gxs,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gxs[argmax[i]] += gys[i];
}

}  // namespace
}  // namespace adasum::nn::ADASUM_NN_ISA

// Conv2d::backward is compiled in the baseline build only, and the AVX2 table
// holds the baseline entry. Its time goes to the nonzero lists, the clipped
// border taps and row_axpy's 4-lane rows, none of which widens at K = 5: at
// LeNet's shapes the AVX2 build read 0.96-1.08x of the baseline
// (BENCH_kernels.json, DESIGN.md §18).
namespace adasum::nn::baseline {
void conv_backward(const ConvShape& s, const float* xs, const float* ws,
                   const float* gys, float* gxs, float* gws, float* gbs);
}  // namespace adasum::nn::baseline

#if !defined(ADASUM_NN_AVX2)
namespace adasum::nn::baseline {
namespace {

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
void data_gradients(const ConvShape& s, const float* xs, const float* ws,
                    const float* gys, float* gxs, float* gws) {
  const std::size_t positions = s.oh * s.ow, taps = s.kernel * s.kernel;
  // Per output plane of one sample: the columns of its nonzero gradients in
  // raster order, then 3 * oh + 1 bounds splitting each row's entries into
  // those left of, inside and right of [xlo, xhi).
  const std::size_t per_plane = positions + 3 * s.oh + 1;
  std::size_t* const lists = index_scratch(s.out_c * per_plane);
  // [xlo, xhi): the output columns whose windows lie inside the input's
  // columns, ox * stride >= padding and ox * stride - padding + kernel <= w.
  std::size_t xhi =
      s.w + s.padding < s.kernel
          ? 0
          : min_of(s.ow, (s.w + s.padding - s.kernel) / s.stride + 1);
  std::size_t xlo = min_of(xhi, (s.padding + s.stride - 1) / s.stride);
  if (K == 0) xlo = xhi = s.ow;

  // The taps of one window that fall inside the input along one axis:
  // [k0, k1) for the window starting at o * stride in padded coordinates.
  const auto tap_range = [&](std::size_t o, std::size_t in) {
    const std::size_t at = o * s.stride, end = in + s.padding;
    return Range{at < s.padding ? s.padding - at : 0,
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

void conv_backward(const ConvShape& s, const float* xs, const float* ws,
                   const float* gys, float* gxs, float* gws, float* gbs) {
  // The bias gradient adds every element, zeros included (-0 + +0 is +0),
  // b then raster per channel; the channels run side by side so that their
  // add chains overlap.
  const std::size_t positions = s.oh * s.ow;
  for (std::size_t b = 0; b < s.batch; ++b) {
    const float* gysample = gys + b * s.out_c * positions;
    for (std::size_t i = 0; i < positions; ++i)
      for (std::size_t oc = 0; oc < s.out_c; ++oc)
        gbs[oc] += gysample[oc * positions + i];
  }
  // LeNet's 5x5 kernels get the whole-row path. It was measured only there:
  // for K = 3, row_axpy would have no whole vector op.
  if (s.kernel == 5 && gxs != nullptr)
    data_gradients<5, true>(s, xs, ws, gys, gxs, gws);
  else if (s.kernel == 5)
    data_gradients<5, false>(s, xs, ws, gys, gxs, gws);
  else if (gxs != nullptr)
    data_gradients<0, true>(s, xs, ws, gys, gxs, gws);
  else
    data_gradients<0, false>(s, xs, ws, gys, gxs, gws);
}

}  // namespace adasum::nn::baseline
#endif

namespace adasum::nn::ADASUM_NN_ISA {

extern const Kernels kTable = {
    .name = ADASUM_NN_STR(ADASUM_NN_ISA),
    .conv_forward = conv_forward,
    .conv_backward = baseline::conv_backward,
    .matmul = matmul,
    .matmul_bt = matmul_bt,
    .matmul_at = matmul_at,
    .relu_forward = relu_forward,
    .relu_backward = relu_backward,
    .maxpool_forward = maxpool_forward,
    .maxpool_backward = maxpool_backward,
};

}  // namespace adasum::nn::ADASUM_NN_ISA
