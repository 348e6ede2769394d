// AVX2+FMA+F16C kernel table.
//
// This is the ONLY translation unit compiled with -mavx2 -mfma -mf16c (see
// src/tensor/CMakeLists.txt; the nn kernels' AVX2 build takes -mavx2 alone);
// everything it defines is reached exclusively through the function pointers
// in avx2_table(), which dispatch.cpp hands out only after CPUID confirms the
// ISA. It deliberately includes no project
// header beyond kernel_table.h so no baseline-inline function can be emitted
// here with AVX encodings and then be chosen by the linker for scalar TUs.
//
// Numerical contract (DESIGN.md §10):
//  * §4.4.1 survives vectorization: reductions widen every lane to double
//    before multiplying and keep 64-bit accumulators; only the number of
//    independent partial sums differs from the scalar oracle, so results
//    agree to ulp-level reassociation error and are run-to-run deterministic
//    (fixed lane count, fixed unroll — no data-dependent reduction order).
//  * Elementwise kernels compute in double and round once to the payload
//    dtype, the same store sequence as the scalar path.
//  * fp16 payloads are staged through stack tiles with F16C bulk conversion
//    (exact in the fp16->fp32 direction), so the fp16 kernels are the fp32
//    loops plus two conversions — no pooled or heap allocation, preserving
//    the zero-allocation steady state from DESIGN.md §8.
#if defined(ADASUM_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd/kernel_table.h"

namespace adasum::simd {
namespace {

// fp16 staging tile: 2048 elements = 8 KiB per float tile, at most three
// tiles (16/24 KiB) of stack per kernel. A multiple of 16 so every tile but
// the last feeds the vector bodies with no intra-tile tail, keeping the
// accumulator lane assignment identical whether the payload arrived as one
// span or tile-by-tile.
constexpr std::size_t kTile = 2048;

// Widen 4 floats straight from memory: vcvtps2pd takes a 128-bit memory
// operand, so the load folds into the convert — no 256-bit load plus
// cross-lane extract. Narrowing stores likewise go out as 128-bit halves
// instead of paying a vinsertf128 per 8 elements; both halve the
// shuffle-port traffic that otherwise bounds these widen/narrow loops.
inline __m256d cvt4_pd(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
inline void store4_ps(float* p, __m256d v) {
  _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
}
inline double hsum(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// ---- bulk fp16 <-> fp32 conversion (F16C) --------------------------------

void h2f(const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i h0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i h1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 8));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h0));
    _mm256_storeu_ps(dst + i + 8, _mm256_cvtph_ps(h1));
  }
  if (i < n) {
    // Stage the tail through a zero-padded buffer: no out-of-bounds loads,
    // and the converted garbage lanes are never copied out.
    std::uint16_t hbuf[16] = {};
    float fbuf[16];
    std::memcpy(hbuf, src + i, (n - i) * sizeof(std::uint16_t));
    _mm256_storeu_ps(fbuf, _mm256_cvtph_ps(_mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(hbuf))));
    _mm256_storeu_ps(fbuf + 8, _mm256_cvtph_ps(_mm_loadu_si128(
                                   reinterpret_cast<const __m128i*>(hbuf + 8))));
    std::memcpy(dst + i, fbuf, (n - i) * sizeof(float));
  }
}

constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void f2h(const float* src, std::uint16_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i h0 = _mm256_cvtps_ph(_mm256_loadu_ps(src + i), kRound);
    const __m128i h1 = _mm256_cvtps_ph(_mm256_loadu_ps(src + i + 8), kRound);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 8), h1);
  }
  if (i < n) {
    float fbuf[16] = {};
    std::uint16_t hbuf[16];
    std::memcpy(fbuf, src + i, (n - i) * sizeof(float));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hbuf),
                     _mm256_cvtps_ph(_mm256_loadu_ps(fbuf), kRound));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hbuf + 8),
                     _mm256_cvtps_ph(_mm256_loadu_ps(fbuf + 8), kRound));
    std::memcpy(dst + i, hbuf, (n - i) * sizeof(std::uint16_t));
  }
}

// ---- reduction blocks (accumulators carried across fp16 tiles) -----------

void dot_f32_block(const float* a, const float* b, std::size_t n, __m256d s[4],
                   double& tail) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s[0] = _mm256_fmadd_pd(cvt4_pd(a + i), cvt4_pd(b + i), s[0]);
    s[1] = _mm256_fmadd_pd(cvt4_pd(a + i + 4), cvt4_pd(b + i + 4), s[1]);
    s[2] = _mm256_fmadd_pd(cvt4_pd(a + i + 8), cvt4_pd(b + i + 8), s[2]);
    s[3] = _mm256_fmadd_pd(cvt4_pd(a + i + 12), cvt4_pd(b + i + 12), s[3]);
  }
  for (; i + 4 <= n; i += 4)
    s[0] = _mm256_fmadd_pd(cvt4_pd(a + i), cvt4_pd(b + i), s[0]);
  for (; i < n; ++i)
    tail += static_cast<double>(a[i]) * static_cast<double>(b[i]);
}

void dot_f64_block(const double* a, const double* b, std::size_t n,
                   __m256d s[4], double& tail) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s[0] = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           s[0]);
    s[1] = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), s[1]);
    s[2] = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), s[2]);
    s[3] = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), s[3]);
  }
  for (; i + 4 <= n; i += 4)
    s[0] = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           s[0]);
  for (; i < n; ++i) tail += a[i] * b[i];
}

// One-pass {a·b, a·a, b·b} with 3x4-wide double accumulators (two unrolled
// sets so each FMA chain is one op per iteration).
void dot_triple_f32_block(const float* a, const float* b, std::size_t n,
                          __m256d t[6], double tail[3]) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = cvt4_pd(a + i), y0 = cvt4_pd(b + i);
    const __m256d x1 = cvt4_pd(a + i + 4), y1 = cvt4_pd(b + i + 4);
    t[0] = _mm256_fmadd_pd(x0, y0, t[0]);
    t[2] = _mm256_fmadd_pd(x0, x0, t[2]);
    t[4] = _mm256_fmadd_pd(y0, y0, t[4]);
    t[1] = _mm256_fmadd_pd(x1, y1, t[1]);
    t[3] = _mm256_fmadd_pd(x1, x1, t[3]);
    t[5] = _mm256_fmadd_pd(y1, y1, t[5]);
  }
  for (; i < n; ++i) {
    const double x = a[i], y = b[i];
    tail[0] += x * y;
    tail[1] += x * x;
    tail[2] += y * y;
  }
}

void dot_triple_f64_block(const double* a, const double* b, std::size_t n,
                          __m256d t[6], double tail[3]) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = _mm256_loadu_pd(a + i);
    const __m256d y0 = _mm256_loadu_pd(b + i);
    const __m256d x1 = _mm256_loadu_pd(a + i + 4);
    const __m256d y1 = _mm256_loadu_pd(b + i + 4);
    t[0] = _mm256_fmadd_pd(x0, y0, t[0]);
    t[2] = _mm256_fmadd_pd(x0, x0, t[2]);
    t[4] = _mm256_fmadd_pd(y0, y0, t[4]);
    t[1] = _mm256_fmadd_pd(x1, y1, t[1]);
    t[3] = _mm256_fmadd_pd(x1, x1, t[3]);
    t[5] = _mm256_fmadd_pd(y1, y1, t[5]);
  }
  for (; i < n; ++i) {
    const double x = a[i], y = b[i];
    tail[0] += x * y;
    tail[1] += x * x;
    tail[2] += y * y;
  }
}

double reduce4(const __m256d s[4], double tail) {
  return hsum(_mm256_add_pd(_mm256_add_pd(s[0], s[1]),
                            _mm256_add_pd(s[2], s[3]))) +
         tail;
}

void reduce_triple(const __m256d t[6], const double tail[3], double out[3]) {
  out[0] = hsum(_mm256_add_pd(t[0], t[1])) + tail[0];
  out[1] = hsum(_mm256_add_pd(t[2], t[3])) + tail[1];
  out[2] = hsum(_mm256_add_pd(t[4], t[5])) + tail[2];
}

// ---- elementwise blocks ---------------------------------------------------

void scaled_sum_f32_block(const float* a, double ca, const float* b, double cb,
                          float* out, std::size_t n) {
  const __m256d vca = _mm256_set1_pd(ca);
  const __m256d vcb = _mm256_set1_pd(cb);
  std::size_t i = 0;
  // Aliasing contract (tensor/kernels.h): out may equal a or b exactly. Each
  // 4-wide chunk is fully loaded before its store, and chunks are disjoint,
  // so the in-place combine is safe at any unroll depth.
  for (; i + 16 <= n; i += 16) {
    const __m256d r0 =
        _mm256_fmadd_pd(cvt4_pd(b + i), vcb, _mm256_mul_pd(cvt4_pd(a + i), vca));
    const __m256d r1 = _mm256_fmadd_pd(
        cvt4_pd(b + i + 4), vcb, _mm256_mul_pd(cvt4_pd(a + i + 4), vca));
    const __m256d r2 = _mm256_fmadd_pd(
        cvt4_pd(b + i + 8), vcb, _mm256_mul_pd(cvt4_pd(a + i + 8), vca));
    const __m256d r3 = _mm256_fmadd_pd(
        cvt4_pd(b + i + 12), vcb, _mm256_mul_pd(cvt4_pd(a + i + 12), vca));
    store4_ps(out + i, r0);
    store4_ps(out + i + 4, r1);
    store4_ps(out + i + 8, r2);
    store4_ps(out + i + 12, r3);
  }
  for (; i + 4 <= n; i += 4)
    store4_ps(out + i, _mm256_fmadd_pd(cvt4_pd(b + i), vcb,
                                       _mm256_mul_pd(cvt4_pd(a + i), vca)));
  for (; i < n; ++i)
    out[i] = static_cast<float>(ca * static_cast<double>(a[i]) +
                                cb * static_cast<double>(b[i]));
}

void axpy_f32_block(double alpha, const float* x, float* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_fmadd_pd(cvt4_pd(x + i), va, cvt4_pd(y + i));
    const __m256d r1 =
        _mm256_fmadd_pd(cvt4_pd(x + i + 4), va, cvt4_pd(y + i + 4));
    store4_ps(y + i, r0);
    store4_ps(y + i + 4, r1);
  }
  for (; i < n; ++i)
    y[i] = static_cast<float>(static_cast<double>(y[i]) +
                              alpha * static_cast<double>(x[i]));
}

void scale_f32_block(double alpha, float* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_mul_pd(cvt4_pd(x + i), va);
    const __m256d r1 = _mm256_mul_pd(cvt4_pd(x + i + 4), va);
    store4_ps(x + i, r0);
    store4_ps(x + i + 4, r1);
  }
  for (; i < n; ++i)
    x[i] = static_cast<float>(alpha * static_cast<double>(x[i]));
}

void add_f32_block(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_add_pd(cvt4_pd(x + i), cvt4_pd(y + i));
    const __m256d r1 = _mm256_add_pd(cvt4_pd(x + i + 4), cvt4_pd(y + i + 4));
    store4_ps(y + i, r0);
    store4_ps(y + i + 4, r1);
  }
  for (; i < n; ++i)
    y[i] = static_cast<float>(static_cast<double>(y[i]) +
                              static_cast<double>(x[i]));
}

// ---- typed kernel entry points -------------------------------------------

// fp32
double dot_f32(const std::byte* pa, const std::byte* pb, std::size_t n) {
  const auto* a = reinterpret_cast<const float*>(pa);
  const auto* b = reinterpret_cast<const float*>(pb);
  __m256d s[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail = 0.0;
  dot_f32_block(a, b, n, s, tail);
  return reduce4(s, tail);
}
double norm_squared_f32(const std::byte* pa, std::size_t n) {
  return dot_f32(pa, pa, n);
}
void dot_triple_f32(const std::byte* pa, const std::byte* pb, std::size_t n,
                    double out[3]) {
  const auto* a = reinterpret_cast<const float*>(pa);
  const auto* b = reinterpret_cast<const float*>(pb);
  __m256d t[6] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail[3] = {0.0, 0.0, 0.0};
  dot_triple_f32_block(a, b, n, t, tail);
  reduce_triple(t, tail, out);
}
void axpy_f32(double alpha, const std::byte* x, std::byte* y, std::size_t n) {
  axpy_f32_block(alpha, reinterpret_cast<const float*>(x),
                 reinterpret_cast<float*>(y), n);
}
void scale_f32(double alpha, std::byte* x, std::size_t n) {
  scale_f32_block(alpha, reinterpret_cast<float*>(x), n);
}
void scaled_sum_f32(const std::byte* a, double ca, const std::byte* b,
                    double cb, std::byte* out, std::size_t n) {
  scaled_sum_f32_block(reinterpret_cast<const float*>(a), ca,
                       reinterpret_cast<const float*>(b), cb,
                       reinterpret_cast<float*>(out), n);
}

// fp64
double dot_f64(const std::byte* pa, const std::byte* pb, std::size_t n) {
  const auto* a = reinterpret_cast<const double*>(pa);
  const auto* b = reinterpret_cast<const double*>(pb);
  __m256d s[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail = 0.0;
  dot_f64_block(a, b, n, s, tail);
  return reduce4(s, tail);
}
double norm_squared_f64(const std::byte* pa, std::size_t n) {
  return dot_f64(pa, pa, n);
}
void dot_triple_f64(const std::byte* pa, const std::byte* pb, std::size_t n,
                    double out[3]) {
  const auto* a = reinterpret_cast<const double*>(pa);
  const auto* b = reinterpret_cast<const double*>(pb);
  __m256d t[6] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail[3] = {0.0, 0.0, 0.0};
  dot_triple_f64_block(a, b, n, t, tail);
  reduce_triple(t, tail, out);
}
void axpy_f64(double alpha, const std::byte* px, std::byte* py,
              std::size_t n) {
  const auto* x = reinterpret_cast<const double*>(px);
  auto* y = reinterpret_cast<double*>(py);
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(_mm256_loadu_pd(x + i), va,
                                            _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i + 4,
                     _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4), va,
                                     _mm256_loadu_pd(y + i + 4)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}
void scale_f64(double alpha, std::byte* px, std::size_t n) {
  auto* x = reinterpret_cast<double*>(px);
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
    _mm256_storeu_pd(x + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

// fp16: stage through F16C-converted stack tiles, run the fp32 blocks, and
// (for mutating kernels) convert back with round-to-nearest-even — the same
// double -> float -> half rounding sequence as the scalar store<Half>() path.
double dot_f16(const std::byte* pa, const std::byte* pb, std::size_t n) {
  const auto* a = reinterpret_cast<const std::uint16_t*>(pa);
  const auto* b = reinterpret_cast<const std::uint16_t*>(pb);
  __m256d s[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail = 0.0;
  alignas(32) float ta[kTile], tb[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(a + off, ta, m);
    h2f(b + off, tb, m);
    dot_f32_block(ta, tb, m, s, tail);
  }
  return reduce4(s, tail);
}
double norm_squared_f16(const std::byte* pa, std::size_t n) {
  const auto* a = reinterpret_cast<const std::uint16_t*>(pa);
  __m256d s[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail = 0.0;
  alignas(32) float ta[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(a + off, ta, m);
    dot_f32_block(ta, ta, m, s, tail);
  }
  return reduce4(s, tail);
}
void dot_triple_f16(const std::byte* pa, const std::byte* pb, std::size_t n,
                    double out[3]) {
  const auto* a = reinterpret_cast<const std::uint16_t*>(pa);
  const auto* b = reinterpret_cast<const std::uint16_t*>(pb);
  __m256d t[6] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail[3] = {0.0, 0.0, 0.0};
  alignas(32) float ta[kTile], tb[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(a + off, ta, m);
    h2f(b + off, tb, m);
    dot_triple_f32_block(ta, tb, m, t, tail);
  }
  reduce_triple(t, tail, out);
}
void axpy_f16(double alpha, const std::byte* px, std::byte* py,
              std::size_t n) {
  const auto* x = reinterpret_cast<const std::uint16_t*>(px);
  auto* y = reinterpret_cast<std::uint16_t*>(py);
  alignas(32) float tx[kTile], ty[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(x + off, tx, m);
    h2f(y + off, ty, m);
    axpy_f32_block(alpha, tx, ty, m);
    f2h(ty, y + off, m);
  }
}
void scale_f16(double alpha, std::byte* px, std::size_t n) {
  auto* x = reinterpret_cast<std::uint16_t*>(px);
  alignas(32) float tx[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(x + off, tx, m);
    scale_f32_block(alpha, tx, m);
    f2h(tx, x + off, m);
  }
}
void add_f16(const std::byte* px, std::byte* py, std::size_t n) {
  const auto* x = reinterpret_cast<const std::uint16_t*>(px);
  auto* y = reinterpret_cast<std::uint16_t*>(py);
  alignas(32) float tx[kTile], ty[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    h2f(x + off, tx, m);
    h2f(y + off, ty, m);
    add_f32_block(tx, ty, m);
    f2h(ty, y + off, m);
  }
}
void scaled_sum_f16(const std::byte* pa, double ca, const std::byte* pb,
                    double cb, std::byte* pout, std::size_t n) {
  const auto* a = reinterpret_cast<const std::uint16_t*>(pa);
  const auto* b = reinterpret_cast<const std::uint16_t*>(pb);
  auto* out = reinterpret_cast<std::uint16_t*>(pout);
  alignas(32) float ta[kTile], tb[kTile], to[kTile];
  for (std::size_t off = 0; off < n; off += kTile) {
    const std::size_t m = n - off < kTile ? n - off : kTile;
    // Both operand tiles are fully staged before the f2h store, so exact
    // aliasing of out with a or b is safe tile-by-tile.
    h2f(a + off, ta, m);
    h2f(b + off, tb, m);
    scaled_sum_f32_block(ta, ca, tb, cb, to, m);
    f2h(to, out + off, m);
  }
}

// ---- has_nonfinite: exponent-mask compare with per-block early exit ------

bool has_nonfinite_f32(const std::byte* pa, std::size_t n) {
  const auto* p = reinterpret_cast<const float*>(pa);
  const __m256i mask = _mm256_set1_epi32(0x7f800000);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i hit = _mm256_setzero_si256();
    for (std::size_t k = 0; k < 32; k += 8) {
      const __m256i v = _mm256_castps_si256(_mm256_loadu_ps(p + i + k));
      hit = _mm256_or_si256(hit,
                            _mm256_cmpeq_epi32(_mm256_and_si256(v, mask),
                                               mask));
    }
    if (!_mm256_testz_si256(hit, hit)) return true;
  }
  for (; i < n; ++i)
    if (!std::isfinite(p[i])) return true;
  return false;
}
bool has_nonfinite_f64(const std::byte* pa, std::size_t n) {
  const auto* p = reinterpret_cast<const double*>(pa);
  const __m256i mask = _mm256_set1_epi64x(0x7ff0000000000000LL);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i hit = _mm256_setzero_si256();
    for (std::size_t k = 0; k < 16; k += 4) {
      const __m256i v = _mm256_castpd_si256(_mm256_loadu_pd(p + i + k));
      hit = _mm256_or_si256(hit,
                            _mm256_cmpeq_epi64(_mm256_and_si256(v, mask),
                                               mask));
    }
    if (!_mm256_testz_si256(hit, hit)) return true;
  }
  for (; i < n; ++i)
    if (!std::isfinite(p[i])) return true;
  return false;
}
bool has_nonfinite_f16(const std::byte* pa, std::size_t n) {
  const auto* p = reinterpret_cast<const std::uint16_t*>(pa);
  const __m256i mask = _mm256_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i hit = _mm256_setzero_si256();
    for (std::size_t k = 0; k < 64; k += 16) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p + i + k));
      hit = _mm256_or_si256(hit,
                            _mm256_cmpeq_epi16(_mm256_and_si256(v, mask),
                                               mask));
    }
    if (!_mm256_testz_si256(hit, hit)) return true;
  }
  for (; i < n; ++i)
    if ((p[i] & 0x7c00u) == 0x7c00u) return true;
  return false;
}

// ---- blockwise compression casts (DESIGN.md §13) --------------------------
//
// Bit-parity with the scalar oracle is a hard contract (tests/
// compress_test.cpp compares payload bytes with memcmp). Two rules keep it:
// every float operation mirrors the scalar sequence exactly (same op, same
// order, same single-precision intermediates), and no multiply is ever left
// feeding an add. GCC contracts mul-then-add into FMA across intrinsics as
// well as scalar code in this -mfma TU, so block tails run as MASKED full
// vectors instead of scalar cleanup loops, and the one add of the walk (the
// stochastic uniform) is written as an explicit exact FMA. Integer-only work
// (nibble packing, sign bits) cannot diverge.

inline __m256i lane_mask(std::size_t rem) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), idx);
}

inline __m256 abs_ps(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

// max is exact, so the reduction order is free — unlike the sums below.
// block_max_abs8 never hands this a NaN lane.
inline float hmax(__m256 v) {
  __m128 m =
      _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

inline float block_max_abs8(const float* src, std::size_t s, std::size_t e) {
  __m256 acc = _mm256_setzero_ps();
  for (std::size_t i = s; i < e; i += 8) {
    const std::size_t rem = e - i;
    const __m256 x = rem >= 8 ? _mm256_loadu_ps(src + i)
                              : _mm256_maskload_ps(src + i, lane_mask(rem));
    // Masked lanes are 0, like scalar. maxps returns its SECOND operand
    // when either is NaN, so with the accumulator second a NaN element is
    // dropped wherever it sits, as scalar std::max(m, |x|) drops it.
    acc = _mm256_max_ps(abs_ps(x), acc);
  }
  return hmax(acc);
}

// Counter-based stochastic rounding, vectorized (sr_uniform() in the scalar
// TU). Lane k of the group at element i hashes seed + (i + k) * kSrStride.
// The walk builds that counter once per block and then adds 8 * kSrStride
// per group: uint32 wraparound makes the running sum equal to the product,
// so the index multiply leaves the loop.
constexpr std::uint32_t kSrStride = 0x9E3779B9u;

inline __m256i sr_counter8(std::uint32_t seed, std::uint32_t i) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(seed)),
      _mm256_mullo_epi32(
          _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), idx),
          _mm256_set1_epi32(static_cast<int>(kSrStride))));
}

// murmur3 finalizer of the counter, returning its top 24 bits as an exact
// integer-valued float: the scalar uniform is this value times 2^-24.
inline __m256 sr_bits24(__m256i h) {
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
  h = _mm256_mullo_epi32(h, _mm256_set1_epi32(static_cast<int>(0x85EBCA6Bu)));
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 13));
  h = _mm256_mullo_epi32(h, _mm256_set1_epi32(static_cast<int>(0xC2B2AE35u)));
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
  return _mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8));
}

// One block's levels, 8 at a time, handed to emit(i, rem, levels) with the
// first `rem` int32 lanes valid. The rounding mode and the reciprocal-vs-
// division choice are template parameters so the element loop carries no
// branch on them. Per lane this is the scalar quantized_level exactly:
// floor(v + u) or round-to-nearest-even (_MM_FROUND_TO_NEAREST_INT is
// statically RTNE, matching nearbyint under the default rounding mode, the
// only mode this process runs in), clamped after rounding to the scalar
// min(kMax, max(-kMax, r)). maxps returns its SECOND operand when either is
// NaN, so r goes first: a NaN r becomes -kMax, as std::max(-kMax, r) makes
// it, instead of reaching the convert as INT_MIN (int8 level -128). Levels
// are exact small integers, so the truncating convert is exact.
template <int kMax, bool kStochastic, bool kUseInv, typename Emit>
void quantize_block_vec(const float* src, std::size_t s, std::size_t e,
                        float m, float inv, std::uint32_t seed, Emit& emit) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vm = _mm256_set1_ps(m);
  const __m256 vmax = _mm256_set1_ps(static_cast<float>(kMax));
  const __m256 vmin = _mm256_set1_ps(static_cast<float>(-kMax));
  const __m256 two_m24 = _mm256_set1_ps(1.0f / 16777216.0f);
  const __m256i step = _mm256_set1_epi32(static_cast<int>(8u * kSrStride));
  __m256i ctr = kStochastic ? sr_counter8(seed, static_cast<std::uint32_t>(s))
                            : _mm256_setzero_si256();
  for (std::size_t i = s; i < e; i += 8) {
    const std::size_t rem = e - i >= 8 ? std::size_t{8} : e - i;
    const __m256 x = rem == 8 ? _mm256_loadu_ps(src + i)
                              : _mm256_maskload_ps(src + i, lane_mask(rem));
    const __m256 v = kUseInv ? _mm256_mul_ps(x, vinv)
                             : _mm256_mul_ps(_mm256_div_ps(x, vm), vmax);
    __m256 r;
    if constexpr (kStochastic) {
      // v + u spelled as fmadd(bits, 2^-24, v). The product is exact, so
      // this is the scalar add's single rounding, and there is no product
      // left to contract: GCC contracts across intrinsics in this -mfma TU,
      // and a plain add_ps(v, u) was fused into fmadd(x, inv, u), which
      // skips v's rounding and changes levels.
      r = _mm256_floor_ps(_mm256_fmadd_ps(sr_bits24(ctr), two_m24, v));
      ctr = _mm256_add_epi32(ctr, step);
    } else {
      r = _mm256_round_ps(v, kRound);
    }
    emit(i, rem,
         _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(r, vmin), vmax)));
  }
}

// Shared int8/int4 block walk. The reciprocal path (one multiply per
// element) is the common case; when 1/scale is not finite (denormal block
// max) it divides by the max instead, as the scalar TU does.
template <int kMax, typename Emit>
void quantize_blocks_vec(const float* src, std::size_t n, std::size_t block,
                         std::uint32_t seed, bool stochastic, float* scales,
                         Emit&& emit) {
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = s + block < n ? s + block : n;
    const float m = block_max_abs8(src, s, e);
    const float scale = m / static_cast<float>(kMax);
    scales[b] = scale;
    if (m == 0.0f) {
      for (std::size_t i = s; i < e; i += 8)
        emit(i, e - i >= 8 ? std::size_t{8} : e - i, _mm256_setzero_si256());
      continue;
    }
    const float inv = 1.0f / scale;
    if (std::isfinite(inv)) {
      if (stochastic)
        quantize_block_vec<kMax, true, true>(src, s, e, m, inv, seed, emit);
      else
        quantize_block_vec<kMax, false, true>(src, s, e, m, inv, seed, emit);
    } else {
      if (stochastic)
        quantize_block_vec<kMax, true, false>(src, s, e, m, inv, seed, emit);
      else
        quantize_block_vec<kMax, false, false>(src, s, e, m, inv, seed, emit);
    }
  }
}

// Narrows 8 int32 levels to 8 int8 in the low 64 bits. The saturating packs
// are exact for levels in [-127, 127].
inline __m128i pack_levels8(__m256i lv) {
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(lv),
                                      _mm256_extracti128_si256(lv, 1));
  return _mm_packs_epi16(p16, p16);
}

void ax_quantize_int8(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t seed, bool stochastic, float* scales,
                      std::uint8_t* payload) {
  auto* q = reinterpret_cast<std::int8_t*>(payload);
  quantize_blocks_vec<127>(
      src, n, block, seed, stochastic, scales,
      [&](std::size_t i, std::size_t rem, __m256i lv) {
        if (rem == 8) {
          _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                           pack_levels8(lv));
        } else {
          alignas(32) std::int32_t tmp[8];
          _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), lv);
          for (std::size_t k = 0; k < rem; ++k)
            q[i + k] = static_cast<std::int8_t>(tmp[k]);
        }
      });
}

void ax_quantize_int4(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t seed, bool stochastic, float* scales,
                      std::uint8_t* packed) {
  quantize_blocks_vec<7>(
      src, n, block, seed, stochastic, scales,
      [&](std::size_t i, std::size_t rem, __m256i lv) {
        // Same nibble layout as the scalar TU: even index low, odd high.
        alignas(32) std::int32_t tmp[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), lv);
        for (std::size_t k = 0; k < rem; ++k) {
          const auto nib =
              static_cast<std::uint8_t>(static_cast<std::int8_t>(tmp[k])) &
              0x0Fu;
          const std::size_t gi = i + k;
          if ((gi & 1) == 0)
            packed[gi / 2] = static_cast<std::uint8_t>(nib);
          else
            packed[gi / 2] =
                static_cast<std::uint8_t>(packed[gi / 2] | (nib << 4));
        }
      });
}

void ax_quantize_sign(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t /*seed*/, bool /*stochastic*/,
                      float* scales, std::uint8_t* bits) {
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = s + block < n ? s + block : n;
    // 8-lane |x| accumulator; the horizontal add below IS the tree the
    // scalar oracle spells out, so the sums agree bit-for-bit.
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t i = s; i < e; i += 8) {
      const std::size_t rem = e - i;
      const __m256 x = rem >= 8 ? _mm256_loadu_ps(src + i)
                                : _mm256_maskload_ps(src + i, lane_mask(rem));
      acc = _mm256_add_ps(acc, abs_ps(x));
    }
    const __m128 q4 = _mm_add_ps(_mm256_castps256_ps128(acc),
                                 _mm256_extractf128_ps(acc, 1));
    const __m128 q2 = _mm_add_ps(q4, _mm_movehl_ps(q4, q4));
    const float total =
        _mm_cvtss_f32(q2) + _mm_cvtss_f32(_mm_shuffle_ps(q2, q2, 1));
    scales[b] = total / static_cast<float>(e - s);
    for (std::size_t i = s; i < e; ++i) {
      if ((i & 7) == 0) bits[i / 8] = 0;
      if (!std::signbit(src[i]))
        bits[i / 8] = static_cast<std::uint8_t>(bits[i / 8] | (1u << (i & 7)));
    }
  }
}

// Per-codec decode. dec1 is the scalar oracle's expression; dec8 decodes
// the 8 elements at global index gi with one splatted scale, and vec8(gi)
// says whether it may (int4 needs gi on a byte boundary). Each lane of dec8
// is dec1's single correctly-rounded multiply (for sign, its selection), so
// both decode the same bits.
struct FxInt8 {
  const std::int8_t* q;
  explicit FxInt8(const std::uint8_t* payload)
      : q(reinterpret_cast<const std::int8_t*>(payload)) {}
  static bool vec8(std::size_t) { return true; }
  __m256 dec8(std::size_t gi, __m256 vs) const {
    const __m128i b8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + gi));
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b8)), vs);
  }
  float dec1(std::size_t gi, float scale) const {
    return static_cast<float>(q[gi]) * scale;
  }
};

// The 8 nibbles at an even gi sit exactly in 4 bytes, so one 32-bit load +
// byte shuffles replace 8 scalar extracts. (nib ^ 8) - 8 in epi8 is the
// scalar sign-extension expression verbatim.
struct FxInt4 {
  const std::uint8_t* packed;
  static bool vec8(std::size_t gi) { return (gi & 1) == 0; }
  __m256 dec8(std::size_t gi, __m256 vs) const {
    std::uint32_t raw;
    std::memcpy(&raw, packed + gi / 2, sizeof raw);
    const __m128i v = _mm_cvtsi32_si128(static_cast<std::int32_t>(raw));
    const __m128i m15 = _mm_set1_epi8(0x0F);
    const __m128i lo = _mm_and_si128(v, m15);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), m15);
    __m128i nib = _mm_unpacklo_epi8(lo, hi);
    nib = _mm_sub_epi8(_mm_xor_si128(nib, _mm_set1_epi8(8)), _mm_set1_epi8(8));
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(nib)), vs);
  }
  float dec1(std::size_t gi, float scale) const {
    const int nib = (gi & 1) ? (packed[gi / 2] >> 4) : (packed[gi / 2] & 0x0F);
    return static_cast<float>((nib ^ 8) - 8) * scale;
  }
};

// Gathers the 8 bits into one byte (the second sideband byte exists whenever
// the shift is nonzero, because element gi+7 then lives in it), then selects
// scale vs -scale by sign-bit flip — IEEE negation IS the flip, so the lanes
// match the scalar ternary bit for bit, ±0 included.
struct FxSign {
  const std::uint8_t* bits;
  static bool vec8(std::size_t) { return true; }
  __m256 dec8(std::size_t gi, __m256 vs) const {
    const std::size_t sh = gi & 7;
    unsigned m = static_cast<unsigned>(bits[gi / 8]) >> sh;
    if (sh != 0) m |= static_cast<unsigned>(bits[gi / 8 + 1]) << (8 - sh);
    const __m128i lanes =
        _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, static_cast<char>(-128), 0, 0,
                      0, 0, 0, 0, 0, 0);
    const __m128i mb = _mm_set1_epi8(static_cast<char>(m));
    const __m128i on = _mm_cmpeq_epi8(_mm_and_si128(mb, lanes), lanes);
    const __m256 flip = _mm256_andnot_ps(
        _mm256_castsi256_ps(_mm256_cvtepi8_epi32(on)), _mm256_set1_ps(-0.0F));
    return _mm256_xor_ps(vs, flip);
  }
  float dec1(std::size_t gi, float scale) const {
    return ((bits[gi / 8] >> (gi & 7)) & 1) ? scale : -scale;
  }
};

// Two-pass decode, block by block. `block` is a multiple of 8, so every
// group of a block decodes in registers and only the last block's sub-8
// tail goes element by element. A single multiply per element leaves
// nothing for FMA contraction to fuse.
template <class Fx>
void ax_dequantize(const std::uint8_t* payload, std::size_t n,
                   std::size_t block, const float* scales, float* dst) {
  const Fx c{payload};
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = s + block < n ? s + block : n;
    const float scale = scales[b];
    const __m256 vs = _mm256_set1_ps(scale);
    std::size_t i = s;
    for (; i + 8 <= e && c.vec8(i); i += 8)
      _mm256_storeu_ps(dst + i, c.dec8(i, vs));
    for (; i < e; ++i) dst[i] = c.dec1(i, scale);
  }
}

// ---- fused dequantize-reduce (DESIGN.md §17) ------------------------------
//
// Bit contract: fused == the two-pass composition from THIS table, per
// element. The decoded value float(q)*scale is a single correctly-rounded
// multiply whether it comes from an 8-wide mul_ps lane or the scalar
// expression, so the walk is free to decode in registers wherever a group
// shares one scale. What is NOT free is the reduce arithmetic, and the
// bodies below keep each two-pass kernel's element partition:
//  * dequant_add's 8-wide body matches add_f32_block because the double add
//    + narrow is path-independent per lane; the sub-8 tail stages the
//    decoded floats and delegates to add_f32_block itself — composing the
//    decode multiply into the add expression lets -ffp-contract fuse them
//    into one single-precision FMA, which skips the product rounding.
//  * dequant_combine keeps scaled_sum_f32_block's FMA shape fmadd(b, cb,
//    mul(a, ca)) with the decoded operand in the slot `deq_is_b` selects.
//    That shape is per lane, so the 8-wide body equals the kernel's 4-lane
//    groups; the sub-8 tail delegates to scaled_sum_f32_block itself, which
//    runs its own 4-lane group and scalar tail with the same machine code
//    (FMA contraction of a spelled-out scalar expression is
//    toolchain-dependent inside this TU).
//  * dequant_dot_triple feeds dot_triple_f32_block's six accumulators in
//    its order: element j of the slice lands in t[0/2/4] (j % 8 < 4) or
//    t[1/3/5] of group j / 8, and the last n % 8 elements go to the scalar
//    tail through dot_triple_f32_block itself.

inline __m256d lo4_pd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d hi4_pd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// The one fused walk: decoded elements [offset, offset + n) of an encoded
// stream, block by block, in 8-groups counted from the slice start (the
// partition every two-pass kernel above uses). body(j, d) gets the group at
// slice index j as 8 floats in a register; tail(j, dq, rem) gets the last
// n % 8 decoded floats staged in dq. Inside a block the scale is loaded
// once and each group decodes in registers. Only a group that straddles a
// block boundary (or an int4 group on an odd nibble) and the tail decode
// per element through dq. An empty slice touches nothing, not even the
// scales: its blob may be a 0-byte message.
template <class Fx, class Body, class Tail>
void fused_walk(const Fx& c, const float* scales, std::size_t block,
                std::size_t offset, std::size_t n, Body&& body, Tail&& tail) {
  if (n == 0) return;
  std::size_t blk = offset / block;        // block of the walk's position,
  std::size_t bend = (blk + 1) * block;    // and the global index it ends at
  alignas(32) float dq[8];
  // Per-element decode of [gi, gi + len) into dq, following the blocks.
  const auto stage = [&](std::size_t gi, std::size_t len) {
    std::size_t b = blk;
    std::size_t e = bend;
    for (std::size_t k = 0; k < len; ++k) {
      while (gi + k >= e) {
        ++b;
        e += block;
      }
      dq[k] = c.dec1(gi + k, scales[b]);
    }
  };
  const std::size_t n8 = n - n % 8;
  std::size_t j = 0;
  while (j < n8) {
    const std::size_t gi = offset + j;
    while (gi >= bend) {
      ++blk;
      bend += block;
    }
    if (gi + 8 > bend) {
      stage(gi, 8);
      body(j, _mm256_load_ps(dq));
      j += 8;
      continue;
    }
    // Every group in [j, jend) lies inside block blk.
    const std::size_t jend = std::min(n8, j + (bend - gi) / 8 * 8);
    const float s = scales[blk];
    if (c.vec8(gi)) {
      const __m256 vs = _mm256_set1_ps(s);
      for (; j < jend; j += 8) body(j, c.dec8(offset + j, vs));
    } else {
      for (; j < jend; j += 8) {
        for (std::size_t k = 0; k < 8; ++k) dq[k] = c.dec1(offset + j + k, s);
        body(j, _mm256_load_ps(dq));
      }
    }
  }
  if (j < n) {
    while (offset + j >= bend) {
      ++blk;
      bend += block;
    }
    stage(offset + j, n - j);
    tail(j, static_cast<const float*>(dq), n - j);
  }
}

// dst[i] += decoded[offset+i], double add + narrow per element.
template <class Fx>
void fused_add_f32(const std::uint8_t* payload, const float* scales,
                   std::size_t offset, std::size_t n, std::size_t block,
                   float* dst) {
  fused_walk(
      Fx{payload}, scales, block, offset, n,
      [&](std::size_t j, __m256 d) {
        const __m256d r0 = _mm256_add_pd(lo4_pd(d), cvt4_pd(dst + j));
        const __m256d r1 = _mm256_add_pd(hi4_pd(d), cvt4_pd(dst + j + 4));
        store4_ps(dst + j, r0);
        store4_ps(dst + j + 4, r1);
      },
      [&](std::size_t j, const float* dq, std::size_t rem) {
        add_f32_block(dq, dst + j, rem);
      });
}

// out[i] = ca*a[i] + cb*b[i] with the decoded slice in the slot selected by
// kDeqIsB (a template parameter, so the group body carries no branch).
template <bool kDeqIsB, class Fx>
void fused_combine_walk(const Fx& c, const float* other, double c_other,
                        double c_deq, const float* scales, std::size_t offset,
                        std::size_t n, std::size_t block, float* out) {
  const __m256d vco = _mm256_set1_pd(c_other);
  const __m256d vcd = _mm256_set1_pd(c_deq);
  const auto combine4 = [&](__m256d dv, __m256d ov) {
    return kDeqIsB ? _mm256_fmadd_pd(dv, vcd, _mm256_mul_pd(ov, vco))
                   : _mm256_fmadd_pd(ov, vco, _mm256_mul_pd(dv, vcd));
  };
  fused_walk(
      c, scales, block, offset, n,
      [&](std::size_t j, __m256 d) {
        // Both halves of `other` are loaded before either store: out may
        // alias other exactly.
        const __m256d r0 = combine4(lo4_pd(d), cvt4_pd(other + j));
        const __m256d r1 = combine4(hi4_pd(d), cvt4_pd(other + j + 4));
        store4_ps(out + j, r0);
        store4_ps(out + j + 4, r1);
      },
      [&](std::size_t j, const float* dq, std::size_t rem) {
        float ot[8];
        const float* a = kDeqIsB ? other + j : dq;
        const float* b = kDeqIsB ? dq : other + j;
        scaled_sum_f32_block(a, kDeqIsB ? c_other : c_deq, b,
                             kDeqIsB ? c_deq : c_other, ot, rem);
        for (std::size_t k = 0; k < rem; ++k) out[j + k] = ot[k];
      });
}

template <class Fx>
void fused_combine_f32(const float* other, double c_other, double c_deq,
                       bool deq_is_b, const std::uint8_t* payload,
                       const float* scales, std::size_t offset, std::size_t n,
                       std::size_t block, float* out) {
  const Fx c{payload};
  if (deq_is_b)
    fused_combine_walk<true>(c, other, c_other, c_deq, scales, offset, n,
                             block, out);
  else
    fused_combine_walk<false>(c, other, c_other, c_deq, scales, offset, n,
                              block, out);
}

// {a·b, a·a, b·b} with the decoded slice as one operand. `other` always
// takes the x slot (products are exact in double, so fmadd(x, y) ==
// fmadd(y, x)); the slot only decides which squared-norm sum is a·a,
// swapped at the end.
template <class Fx>
void fused_dot_triple_f32(const float* other, bool deq_is_b,
                          const std::uint8_t* payload, const float* scales,
                          std::size_t offset, std::size_t n, std::size_t block,
                          double out[3]) {
  __m256d t[6] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd(), _mm256_setzero_pd()};
  double tail[3] = {0.0, 0.0, 0.0};
  fused_walk(
      Fx{payload}, scales, block, offset, n,
      [&](std::size_t j, __m256 d) {
        const __m256d x0 = cvt4_pd(other + j), y0 = lo4_pd(d);
        const __m256d x1 = cvt4_pd(other + j + 4), y1 = hi4_pd(d);
        t[0] = _mm256_fmadd_pd(x0, y0, t[0]);
        t[2] = _mm256_fmadd_pd(x0, x0, t[2]);
        t[4] = _mm256_fmadd_pd(y0, y0, t[4]);
        t[1] = _mm256_fmadd_pd(x1, y1, t[1]);
        t[3] = _mm256_fmadd_pd(x1, x1, t[3]);
        t[5] = _mm256_fmadd_pd(y1, y1, t[5]);
      },
      [&](std::size_t j, const float* dq, std::size_t rem) {
        dot_triple_f32_block(other + j, dq, rem, t, tail);
      });
  double r[3];
  reduce_triple(t, tail, r);
  out[0] = r[0];
  out[1] = deq_is_b ? r[1] : r[2];
  out[2] = deq_is_b ? r[2] : r[1];
}

// A codec's table entry: its quantize and the decode operations over Fx.
template <class Fx>
constexpr CodecKernels codec_kernels(
    decltype(CodecKernels::quantize) quantize) {
  return {quantize, ax_dequantize<Fx>, fused_add_f32<Fx>,
          fused_combine_f32<Fx>, fused_dot_triple_f32<Fx>};
}

// Non-temporal bulk copy. Below the threshold (or with a misaligned
// destination tail pattern) the cache-allocating memcpy wins — NT stores
// only pay off once the destination exceeds what the cache could usefully
// keep. 1 MiB is comfortably past L2 on everything this targets.
constexpr std::size_t kStreamCopyMin = 1u << 20;

void stream_copy_avx2(const std::byte* src, std::byte* dst,
                      std::size_t bytes) {
  if (bytes < kStreamCopyMin) {
    if (bytes != 0) std::memcpy(dst, src, bytes);
    return;
  }
  // Head: copy up to the destination's next 32-byte boundary so the NT
  // stores are aligned (movntdq requires it).
  const std::size_t mis =
      reinterpret_cast<std::uintptr_t>(dst) & std::uintptr_t{31};
  if (mis != 0) {
    const std::size_t head = 32 - mis;
    std::memcpy(dst, src, head);
    src += head;
    dst += head;
    bytes -= head;
  }
  std::size_t i = 0;
  for (; i + 128 <= bytes; i += 128) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 64));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 96));
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i), a);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 32), b);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 64), c);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 96), d);
  }
  if (i < bytes) std::memcpy(dst + i, src + i, bytes - i);
  // NT stores are weakly ordered: drain the write-combining buffers before
  // returning so the caller's subsequent release-store publication (the shm
  // slot epoch) actually covers these bytes.
  _mm_sfence();
}

}  // namespace

const KernelTable& avx2_table() {
  static constexpr KernelTable table = {
      "avx2",
      {dot_f16, dot_f32, dot_f64},
      {norm_squared_f16, norm_squared_f32, norm_squared_f64},
      {dot_triple_f16, dot_triple_f32, dot_triple_f64},
      {axpy_f16, axpy_f32, axpy_f64},
      {scale_f16, scale_f32, scale_f64},
      {add_f16, scalar_add_f32, scalar_add_f64},
      {scaled_sum_f16, scaled_sum_f32, scalar_scaled_sum_f64},
      {has_nonfinite_f16, has_nonfinite_f32, has_nonfinite_f64},
      h2f,
      f2h,
      stream_copy_avx2,
      {codec_kernels<FxInt8>(ax_quantize_int8),
       codec_kernels<FxInt4>(ax_quantize_int4),
       codec_kernels<FxSign>(ax_quantize_sign)},
  };
  return table;
}

}  // namespace adasum::simd

#endif  // ADASUM_SIMD_HAVE_AVX2
