// Numeric kernels used by the Adasum operator and the collectives.
//
// Two design rules from the paper are observed throughout:
//  * §4.4.1 — dot products and squared norms ACCUMULATE IN DOUBLE regardless
//    of the payload dtype (fp16/fp32/fp64). The improved floating-point
//    stability of the reduction scalars is what lets fp16 payloads converge.
//  * §4.4.2 — hot loops are explicitly vectorized. Every kernel here routes
//    through the runtime-dispatched SIMD engine (tensor/simd/simd.h): AVX2+
//    FMA+F16C implementations when the build and the CPU support them, the
//    seed scalar loops otherwise, selectable with ADASUM_SIMD=scalar|avx2|
//    auto. Typed and dtype-erased entry points hit the SAME function-pointer
//    table, so the in-place collectives, the copy-based reference oracle, the
//    resilient path and the optimizers compute bit-identical results by
//    construction (DESIGN.md §10).
//
// Typed overloads operate on spans; dtype-erased overloads operate on raw
// byte buffers + DType, which is what the collectives use since wire
// payloads are untyped.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "base/half.h"
#include "tensor/dtype.h"

namespace adasum::kernels {

// ---- typed kernels ---------------------------------------------------------

// sum_i a[i]*b[i], accumulated in double.
template <typename T>
double dot(std::span<const T> a, std::span<const T> b);

// sum_i a[i]^2, accumulated in double.
template <typename T>
double norm_squared(std::span<const T> a);

// Computes, in one pass: {dot(a,b), norm_squared(a), norm_squared(b)}.
// This is the v = [a·b, a·a, b·b] triple from Algorithm 1 line 15.
struct DotTriple {
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
};
template <typename T>
DotTriple dot_triple(std::span<const T> a, std::span<const T> b);

// y[i] += alpha * x[i]
template <typename T>
void axpy(double alpha, std::span<const T> x, std::span<T> y);

// x[i] *= alpha
template <typename T>
void scale(double alpha, std::span<T> x);

// y[i] += x[i]
template <typename T>
void add(std::span<const T> x, std::span<T> y);

// out[i] = a[i]*ca + b[i]*cb   (the Adasum local combine, Algorithm 1 line 18)
//
// Aliasing contract: `out` may alias `a` or `b` EXACTLY (same base pointer,
// same extent) — the in-place AdasumRVH combine and adasum_pair_inplace call
// it with out == a. Partially overlapping spans are NOT supported: vector
// implementations load and store in multi-element chunks and a store to a
// chunk that overlaps a later load would be observed. Regression tests for
// out==a, out==b and disjoint buffers on every dispatch level live in
// tests/simd_test.cpp.
template <typename T>
void scaled_sum(std::span<const T> a, double ca, std::span<const T> b,
                double cb, std::span<T> out);

// True if any element is NaN or +-inf (fp16 dynamic-scaling overflow check).
template <typename T>
bool has_nonfinite(std::span<const T> a);

// Bulk fp16 <-> fp32 conversion (paper §4.4.1 mixed-precision payloads).
// Dispatched: F16C vcvtph2ps/vcvtps2ph when available, a batched software
// loop (bit-identical to per-element Half access) otherwise. src and dst
// must not overlap. Round-to-nearest-even on narrowing, overflow to ±inf,
// subnormals and infinities preserved; NaNs stay NaN (the hardware path may
// quiet signaling NaN payloads where the software path drops them — both
// remain NaN, which is all the overflow check needs).
void half_to_float(std::span<const Half> src, std::span<float> dst);
void float_to_half(std::span<const float> src, std::span<Half> dst);

// Mutable-span convenience overloads: template deduction does not convert
// span<T> to span<const T>, so calls like dot(t.span<float>(), ...) need
// these forwarding shims.
template <typename T>
  requires(!std::is_const_v<T>)
double dot(std::span<T> a, std::span<T> b) {
  return dot(std::span<const T>(a), std::span<const T>(b));
}
template <typename T>
  requires(!std::is_const_v<T>)
double norm_squared(std::span<T> a) {
  return norm_squared(std::span<const T>(a));
}
template <typename T>
  requires(!std::is_const_v<T>)
DotTriple dot_triple(std::span<T> a, std::span<T> b) {
  return dot_triple(std::span<const T>(a), std::span<const T>(b));
}
template <typename T>
  requires(!std::is_const_v<T>)
void axpy(double alpha, std::span<T> x, std::span<T> y) {
  axpy(alpha, std::span<const T>(x), y);
}
template <typename T>
  requires(!std::is_const_v<T>)
void add(std::span<T> x, std::span<T> y) {
  add(std::span<const T>(x), y);
}
template <typename T>
  requires(!std::is_const_v<T>)
void scaled_sum(std::span<T> a, double ca, std::span<T> b, double cb,
                std::span<T> out) {
  scaled_sum(std::span<const T>(a), ca, std::span<const T>(b), cb, out);
}
template <typename T>
  requires(!std::is_const_v<T>)
bool has_nonfinite(std::span<T> a) {
  return has_nonfinite(std::span<const T>(a));
}

// ---- dtype-erased kernels (collectives operate on byte payloads) ----------

DotTriple dot_triple_bytes(const std::byte* a, const std::byte* b,
                           std::size_t count, DType dtype);
// Same aliasing contract as the typed scaled_sum: out may equal a or b.
void scaled_sum_bytes(const std::byte* a, double ca, const std::byte* b,
                      double cb, std::byte* out, std::size_t count,
                      DType dtype);
void add_bytes(const std::byte* x, std::byte* y, std::size_t count,
               DType dtype);
void scale_bytes(double alpha, std::byte* x, std::size_t count, DType dtype);
double norm_squared_bytes(const std::byte* a, std::size_t count, DType dtype);
// Straight payload copy (fusion pack/unpack); src and dst must not overlap.
void copy_bytes(const std::byte* src, std::byte* dst, std::size_t count,
                DType dtype);
// Raw byte copy tuned for one-shot landings the destination will not be
// re-read from soon (a zero-copy receive depositing a peer's span into the
// caller's buffer): uses non-temporal stores on large payloads where
// available, memcpy otherwise. Regions must not overlap.
void stream_copy_bytes(const std::byte* src, std::byte* dst,
                       std::size_t bytes);

}  // namespace adasum::kernels
