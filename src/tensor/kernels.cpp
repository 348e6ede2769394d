// Thin wrappers over the runtime-dispatched SIMD kernel table. All size and
// dtype checking happens here, once, so the per-ISA implementations in
// tensor/simd/ stay branch-free; typed and byte entry points index the same
// table, which is what keeps every caller — in-place collectives, reference
// oracle, optimizers — numerically identical per dispatch level.
#include "tensor/kernels.h"

#include <cstring>

#include "base/check.h"
#include "tensor/simd/simd.h"

namespace adasum::kernels {
namespace {

// The simd tables index kernels by the integer value of DType.
static_assert(static_cast<int>(DType::kFloat16) == simd::kF16);
static_assert(static_cast<int>(DType::kFloat32) == simd::kF32);
static_assert(static_cast<int>(DType::kFloat64) == simd::kF64);

template <typename T>
inline constexpr int kIdx = static_cast<int>(dtype_of<T>);

inline int idx(DType dtype) {
  const int i = static_cast<int>(dtype);
  ADASUM_CHECK(i >= 0 && i < simd::kNumDtypes);
  return i;
}

template <typename T>
const std::byte* bytes(const T* p) {
  return reinterpret_cast<const std::byte*>(p);
}
template <typename T>
std::byte* bytes(T* p) {
  return reinterpret_cast<std::byte*>(p);
}

}  // namespace

template <typename T>
double dot(std::span<const T> a, std::span<const T> b) {
  ADASUM_CHECK_EQ(a.size(), b.size());
  return simd::active_table().dot[kIdx<T>](bytes(a.data()), bytes(b.data()),
                                           a.size());
}

template <typename T>
double norm_squared(std::span<const T> a) {
  return simd::active_table().norm_squared[kIdx<T>](bytes(a.data()), a.size());
}

template <typename T>
DotTriple dot_triple(std::span<const T> a, std::span<const T> b) {
  ADASUM_CHECK_EQ(a.size(), b.size());
  double v[3];
  simd::active_table().dot_triple[kIdx<T>](bytes(a.data()), bytes(b.data()),
                                           a.size(), v);
  return DotTriple{v[0], v[1], v[2]};
}

template <typename T>
void axpy(double alpha, std::span<const T> x, std::span<T> y) {
  ADASUM_CHECK_EQ(x.size(), y.size());
  simd::active_table().axpy[kIdx<T>](alpha, bytes(x.data()),
                                      bytes(y.data()), x.size());
}

template <typename T>
void scale(double alpha, std::span<T> x) {
  scale_bytes(alpha, bytes(x.data()), x.size(), dtype_of<T>);
}

template <typename T>
void add(std::span<const T> x, std::span<T> y) {
  ADASUM_CHECK_EQ(x.size(), y.size());
  add_bytes(bytes(x.data()), bytes(y.data()), x.size(), dtype_of<T>);
}

template <typename T>
void scaled_sum(std::span<const T> a, double ca, std::span<const T> b,
                double cb, std::span<T> out) {
  ADASUM_CHECK_EQ(a.size(), b.size());
  ADASUM_CHECK_EQ(a.size(), out.size());
  scaled_sum_bytes(bytes(a.data()), ca, bytes(b.data()), cb,
                   bytes(out.data()), a.size(), dtype_of<T>);
}

template <typename T>
bool has_nonfinite(std::span<const T> a) {
  return simd::active_table().has_nonfinite[kIdx<T>](bytes(a.data()),
                                                     a.size());
}

void half_to_float(std::span<const Half> src, std::span<float> dst) {
  ADASUM_CHECK_EQ(src.size(), dst.size());
  simd::active_table().half_to_float(
      reinterpret_cast<const std::uint16_t*>(src.data()), dst.data(),
      src.size());
}

void float_to_half(std::span<const float> src, std::span<Half> dst) {
  ADASUM_CHECK_EQ(src.size(), dst.size());
  simd::active_table().float_to_half(
      src.data(), reinterpret_cast<std::uint16_t*>(dst.data()), src.size());
}

// Explicit instantiations for the three supported payload dtypes.
#define ADASUM_INSTANTIATE(T)                                                  \
  template double dot<T>(std::span<const T>, std::span<const T>);              \
  template double norm_squared<T>(std::span<const T>);                         \
  template DotTriple dot_triple<T>(std::span<const T>, std::span<const T>);    \
  template void axpy<T>(double, std::span<const T>, std::span<T>);             \
  template void scale<T>(double, std::span<T>);                                \
  template void add<T>(std::span<const T>, std::span<T>);                      \
  template void scaled_sum<T>(std::span<const T>, double, std::span<const T>,  \
                              double, std::span<T>);                           \
  template bool has_nonfinite<T>(std::span<const T>);

ADASUM_INSTANTIATE(Half)
ADASUM_INSTANTIATE(float)
ADASUM_INSTANTIATE(double)
#undef ADASUM_INSTANTIATE

DotTriple dot_triple_bytes(const std::byte* a, const std::byte* b,
                           std::size_t count, DType dtype) {
  double v[3];
  simd::active_table().dot_triple[idx(dtype)](a, b, count, v);
  return DotTriple{v[0], v[1], v[2]};
}

void scaled_sum_bytes(const std::byte* a, double ca, const std::byte* b,
                      double cb, std::byte* out, std::size_t count,
                      DType dtype) {
  simd::active_table().scaled_sum[idx(dtype)](a, ca, b, cb, out, count);
}

void add_bytes(const std::byte* x, std::byte* y, std::size_t count,
               DType dtype) {
  simd::active_table().add[idx(dtype)](x, y, count);
}

void scale_bytes(double alpha, std::byte* x, std::size_t count, DType dtype) {
  simd::active_table().scale[idx(dtype)](alpha, x, count);
}

double norm_squared_bytes(const std::byte* a, std::size_t count, DType dtype) {
  return simd::active_table().norm_squared[idx(dtype)](a, count);
}

bool has_nonfinite_bytes(const std::byte* a, std::size_t count, DType dtype) {
  return simd::active_table().has_nonfinite[idx(dtype)](a, count);
}

void copy_bytes(const std::byte* src, std::byte* dst, std::size_t count,
                DType dtype) {
  if (count == 0) return;
  std::memcpy(dst, src, count * dtype_size(dtype));
}

void stream_copy_bytes(const std::byte* src, std::byte* dst,
                       std::size_t bytes) {
  simd::active_table().stream_copy(src, dst, bytes);
}

}  // namespace adasum::kernels
