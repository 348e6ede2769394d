// The nn hot loops behind a per-ISA function table (DESIGN.md §18).
//
// nn/kernels.cpp holds every body once. CMake compiles it at baseline into
// nn::baseline and, when the toolchain can target AVX2, a second time through
// nn/kernels_avx2.cpp with -mavx2 -ffp-contract=off (no FMA) into nn::avx2.
// The table the layers use is picked once from simd::active_level(), so
// ADASUM_SIMD=scalar runs the baseline build. Both builds give the same bits:
// the lanes run across output elements, and every element keeps its own
// rounded multiplies and adds in the same order.
//
// Like tensor/simd/kernel_table.h, this header is included by the AVX2
// translation unit and pulls in no inline function: only <cstddef> and the
// table header's Level.
#pragma once

#include <cstddef>

#include "tensor/simd/kernel_table.h"

namespace adasum::nn {

// One Conv2d call: NCHW input (batch, in_c, h, w), weight (out_c, in_c,
// kernel, kernel), output (batch, out_c, oh, ow).
struct ConvShape {
  std::size_t batch, in_c, out_c, h, w, oh, ow, kernel, stride, padding;
};

struct Kernels {
  const char* name;

  // Conv2d::forward: y = conv(x, w) + b.
  void (*conv_forward)(const ConvShape& s, const float* x, const float* w,
                       const float* b, float* y);
  // Conv2d::backward: accumulates the weight gradient into gw, the bias
  // gradient into gb and, when gx is not null, the input gradient into gx
  // (zeroed, the input's shape). Both tables hold the baseline build's
  // entry: these loops gain nothing at AVX2 width (nn/kernels.cpp).
  void (*conv_backward)(const ConvShape& s, const float* x, const float* w,
                        const float* gy, float* gx, float* gw, float* gb);

  // The GEMMs of nn/linear.h (matmul, matmul_bt, matmul_at), same contract.
  void (*matmul)(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate);
  void (*matmul_bt)(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate);
  void (*matmul_at)(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate);

  // ReLU: y = x > 0 ? x : 0; gx = x > 0 ? gy : 0.
  void (*relu_forward)(const float* x, float* y, std::size_t n);
  void (*relu_backward)(const float* x, const float* gy, float* gx,
                        std::size_t n);

  // MaxPool2d with stride == window over `planes` (h, w) planes: y gets each
  // window's max and argmax its flat input index; backward scatters gy back
  // through argmax into gx (zeroed, the input's shape).
  void (*maxpool_forward)(const float* x, float* y, std::size_t* argmax,
                          std::size_t planes, std::size_t h, std::size_t w,
                          std::size_t window);
  void (*maxpool_backward)(const float* gy, const std::size_t* argmax,
                           float* gx, std::size_t n);
};

namespace baseline {
extern const Kernels kTable;
}  // namespace baseline
namespace avx2 {
extern const Kernels kTable;  // defined only in AVX2-capable builds
}  // namespace avx2

// Table for a specific level, or nullptr when that level is unavailable (not
// compiled in, or the CPU lacks the ISA). Ignores ADASUM_SIMD, so tests can
// hold both tables in one process, like simd::table_for.
const Kernels* kernels_for(simd::Level level);

// Table for simd::active_level(); every layer routes through it.
const Kernels& active_kernels();

// Per-thread scratch for the forward kernels (matmul_bt's packed bᵀ, the
// Conv2d im2col tile), grown to at least `floats` and reused across calls.
// Callers size their tiles to kForwardScratchFloats (64 KiB) and exceed it
// only when a single row or sample cannot fit. Contents do not survive the
// next call.
inline constexpr std::size_t kForwardScratchFloats = 64 * 1024 / sizeof(float);
float* forward_scratch(std::size_t floats);

// Per-thread index buffer for the backward kernels' nonzero lists, grown to
// at least `n` and reused across calls. Contents do not survive the next call.
std::size_t* index_scratch(std::size_t n);

}  // namespace adasum::nn
