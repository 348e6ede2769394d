// Scalar kernel table: the seed loops from tensor/kernels.cpp, unchanged.
//
// This TU is compiled with the baseline ISA flags and doubles as the oracle
// for every vector path — the property tests in tests/simd_test.cpp hold the
// AVX2 table to ulp-bounded agreement with these loops, and ADASUM_SIMD=scalar
// forces the whole binary onto them. The loop structure (independent partial
// accumulators, double accumulation per §4.4.1) must therefore stay exactly
// as the seed wrote it: any change here silently moves the yardstick.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/half.h"
#include "tensor/simd/kernel_table.h"

namespace adasum::simd {
namespace {

// Loads an element as double. For Half this is the fp16->fp32->fp64 widening;
// for float/double it is a plain conversion the compiler folds into the loop.
template <typename T>
inline double load(const T& v) {
  return static_cast<double>(v);
}
inline double load(const Half& v) {
  return static_cast<double>(static_cast<float>(v));
}

template <typename T>
inline T store(double v) {
  return static_cast<T>(v);
}
template <>
inline Half store<Half>(double v) {
  return Half(static_cast<float>(v));
}

template <typename T>
double dot_impl(const T* a, const T* b, std::size_t n) {
  // Four independent accumulators: breaks the loop-carried dependence so the
  // compiler can vectorize / software-pipeline the reduction.
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += load(a[i + 0]) * load(b[i + 0]);
    s1 += load(a[i + 1]) * load(b[i + 1]);
    s2 += load(a[i + 2]) * load(b[i + 2]);
    s3 += load(a[i + 3]) * load(b[i + 3]);
  }
  for (; i < n; ++i) s0 += load(a[i]) * load(b[i]);
  return (s0 + s1) + (s2 + s3);
}

template <typename T>
void dot_triple_impl(const T* a, const T* b, std::size_t n, double out[3]) {
  double ab0 = 0, ab1 = 0, aa0 = 0, aa1 = 0, bb0 = 0, bb1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double x0 = load(a[i]), y0 = load(b[i]);
    const double x1 = load(a[i + 1]), y1 = load(b[i + 1]);
    ab0 += x0 * y0;
    aa0 += x0 * x0;
    bb0 += y0 * y0;
    ab1 += x1 * y1;
    aa1 += x1 * x1;
    bb1 += y1 * y1;
  }
  if (i < n) {
    const double x = load(a[i]), y = load(b[i]);
    ab0 += x * y;
    aa0 += x * x;
    bb0 += y * y;
  }
  out[0] = ab0 + ab1;
  out[1] = aa0 + aa1;
  out[2] = bb0 + bb1;
}

template <typename T>
void axpy_impl(double alpha, const T* x, T* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    y[i] = store<T>(load(y[i]) + alpha * load(x[i]));
}

template <typename T>
void scale_impl(double alpha, T* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = store<T>(alpha * load(x[i]));
}

template <typename T>
void add_impl(const T* x, T* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    y[i] = store<T>(load(y[i]) + load(x[i]));
}

template <typename T>
void scaled_sum_impl(const T* a, double ca, const T* b, double cb, T* out,
                     std::size_t n) {
  // Pure elementwise pass: out == a and out == b (exact aliasing) are safe.
  for (std::size_t i = 0; i < n; ++i)
    out[i] = store<T>(ca * load(a[i]) + cb * load(b[i]));
}

template <typename T>
bool has_nonfinite_impl(const T* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(load(a[i]))) return true;
  return false;
}

// ---- byte-signature shims filling the table ------------------------------

template <typename T>
const T* in(const std::byte* p) {
  return reinterpret_cast<const T*>(p);
}
template <typename T>
T* out_ptr(std::byte* p) {
  return reinterpret_cast<T*>(p);
}

template <typename T>
double k_dot(const std::byte* a, const std::byte* b, std::size_t n) {
  return dot_impl(in<T>(a), in<T>(b), n);
}
template <typename T>
double k_norm_squared(const std::byte* a, std::size_t n) {
  return dot_impl(in<T>(a), in<T>(a), n);
}
template <typename T>
void k_dot_triple(const std::byte* a, const std::byte* b, std::size_t n,
                  double out[3]) {
  dot_triple_impl(in<T>(a), in<T>(b), n, out);
}
template <typename T>
void k_axpy(double alpha, const std::byte* x, std::byte* y, std::size_t n) {
  axpy_impl(alpha, in<T>(x), out_ptr<T>(y), n);
}
template <typename T>
void k_scale(double alpha, std::byte* x, std::size_t n) {
  scale_impl(alpha, out_ptr<T>(x), n);
}
template <typename T>
void k_add(const std::byte* x, std::byte* y, std::size_t n) {
  add_impl(in<T>(x), out_ptr<T>(y), n);
}
template <typename T>
void k_scaled_sum(const std::byte* a, double ca, const std::byte* b, double cb,
                  std::byte* out, std::size_t n) {
  scaled_sum_impl(in<T>(a), ca, in<T>(b), cb, out_ptr<T>(out), n);
}
template <typename T>
bool k_has_nonfinite(const std::byte* a, std::size_t n) {
  return has_nonfinite_impl(in<T>(a), n);
}

// ---- blockwise compression casts (DESIGN.md §13) --------------------------
//
// The scalar reference for the compressed-collective wire format. Every
// floating-point operation here is mirrored one-for-one by the AVX2 TU
// (same op, same order, same single-precision intermediates), which is what
// makes the cross-TU bit-parity tests in tests/compress_test.cpp hold. This
// TU is compiled without FMA, so no contraction can reassociate the
// mul-then-add sequences below.

// Counter-based stochastic-rounding uniform: murmur3 finalizer of
// (seed + golden-ratio * index), mapped to [0, 1) through the top 24 bits so
// the int -> float conversion is exact. Pure integer math plus one exact
// multiply — identical in every TU by construction.
inline float sr_uniform(std::uint32_t seed, std::uint32_t i) {
  std::uint32_t h = seed + i * 0x9E3779B9u;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return static_cast<float>(h >> 8) * (1.0f / 16777216.0f);
}

inline float block_max_abs(const float* src, std::size_t s, std::size_t e) {
  float m = 0.0f;
  for (std::size_t i = s; i < e; ++i) m = std::max(m, std::fabs(src[i]));
  return m;
}

// Rounds v (= x/scale) to an integer level in [-kMax, kMax]. The clamp runs
// AFTER rounding: floor(v + u) can land exactly one level above kMax in
// float when v is already kMax-point-something.
template <int kMax>
inline float quantized_level(float v, std::uint32_t seed, std::uint32_t i,
                             bool stochastic) {
  const float r = stochastic ? std::floor(v + sr_uniform(seed, i))
                             : std::nearbyint(v);
  return std::min(static_cast<float>(kMax),
                  std::max(static_cast<float>(-kMax), r));
}

// Walks one block, handing each element's rounded level to `emit`. The
// reciprocal path (one multiply per element) is the common case; when
// 1/scale is not finite (denormal block max) it falls back to dividing by
// the max, which keeps every level exact instead of producing inf * 0.
template <int kMax, typename Emit>
void quantize_block(const float* src, std::size_t s, std::size_t e,
                    std::uint32_t seed, bool stochastic, float* scale_out,
                    Emit&& emit) {
  const float m = block_max_abs(src, s, e);
  const float scale = m / static_cast<float>(kMax);
  *scale_out = scale;
  if (m == 0.0f) {
    for (std::size_t i = s; i < e; ++i) emit(i, 0.0f);
    return;
  }
  const float inv = 1.0f / scale;
  if (std::isfinite(inv)) {
    for (std::size_t i = s; i < e; ++i)
      emit(i, quantized_level<kMax>(src[i] * inv, seed,
                                    static_cast<std::uint32_t>(i), stochastic));
  } else {
    for (std::size_t i = s; i < e; ++i)
      emit(i, quantized_level<kMax>((src[i] / m) * static_cast<float>(kMax),
                                    seed, static_cast<std::uint32_t>(i),
                                    stochastic));
  }
}

void sc_quantize_int8(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t seed, bool stochastic, float* scales,
                      std::uint8_t* payload) {
  auto* q = reinterpret_cast<std::int8_t*>(payload);
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = std::min(n, s + block);
    quantize_block<127>(src, s, e, seed, stochastic, &scales[b],
                        [&](std::size_t i, float r) {
                          q[i] = static_cast<std::int8_t>(r);
                        });
  }
}

void sc_quantize_int4(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t seed, bool stochastic, float* scales,
                      std::uint8_t* packed) {
  // `block` is a multiple of 8, so nibble pairs never straddle blocks and
  // byte i/2 is written low-nibble-first; an odd-length span leaves the
  // final high nibble zero.
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = std::min(n, s + block);
    quantize_block<7>(
        src, s, e, seed, stochastic, &scales[b], [&](std::size_t i, float r) {
          const auto nib =
              static_cast<std::uint8_t>(static_cast<std::int8_t>(r)) & 0x0Fu;
          if ((i & 1) == 0)
            packed[i / 2] = static_cast<std::uint8_t>(nib);
          else
            packed[i / 2] = static_cast<std::uint8_t>(packed[i / 2] | (nib << 4));
        });
  }
}

void sc_quantize_sign(const float* src, std::size_t n, std::size_t block,
                      std::uint32_t /*seed*/, bool /*stochastic*/,
                      float* scales, std::uint8_t* bits) {
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = std::min(n, s + block);
    // 8-lane-structured |x| sum with a fixed tree reduction — exactly the
    // shape an AVX2 accumulator plus its horizontal add produces, so the
    // scale matches bit-for-bit across TUs.
    float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = s; i < e; ++i) acc[(i - s) & 7] += std::fabs(src[i]);
    float s4[4];
    for (int j = 0; j < 4; ++j) s4[j] = acc[j] + acc[j + 4];
    const float total = (s4[0] + s4[2]) + (s4[1] + s4[3]);
    scales[b] = total / static_cast<float>(e - s);
    // Block starts are multiples of 8, so bit i%8 of byte i/8 never
    // straddles a block; each byte is zeroed when its first bit arrives.
    for (std::size_t i = s; i < e; ++i) {
      if ((i & 7) == 0) bits[i / 8] = 0;
      if (!std::signbit(src[i]))
        bits[i / 8] = static_cast<std::uint8_t>(bits[i / 8] | (1u << (i & 7)));
    }
  }
}

// Per-codec decoders: dec(i, scale) is element i of a payload decoded under
// its block's scale, the one expression every decode loop below applies.
struct DecInt8 {
  const std::int8_t* q;
  explicit DecInt8(const std::uint8_t* payload)
      : q(reinterpret_cast<const std::int8_t*>(payload)) {}
  float operator()(std::size_t i, float scale) const {
    return static_cast<float>(q[i]) * scale;
  }
};
struct DecInt4 {
  const std::uint8_t* packed;
  float operator()(std::size_t i, float scale) const {
    const int nib = (i & 1) ? (packed[i / 2] >> 4) : (packed[i / 2] & 0x0F);
    return static_cast<float>((nib ^ 8) - 8) * scale;  // sign-extend
  }
};
// Negation is exact, so a zero-scale block decodes to ±0 with the sign bit
// preserved — the parity tests compare these floats bitwise.
struct DecSign {
  const std::uint8_t* bits;
  float operator()(std::size_t i, float scale) const {
    return ((bits[i / 8] >> (i & 7)) & 1) ? scale : -scale;
  }
};

template <class Dec>
void sc_dequantize(const std::uint8_t* payload, std::size_t n,
                   std::size_t block, const float* scales, float* dst) {
  const Dec dec{payload};
  std::size_t b = 0;
  for (std::size_t s = 0; s < n; s += block, ++b) {
    const std::size_t e = std::min(n, s + block);
    const float scale = scales[b];
    for (std::size_t i = s; i < e; ++i) dst[i] = dec(i, scale);
  }
}

// ---- fused dequantize-reduce (DESIGN.md §17) -------------------------------
//
// Each fused loop composes the decoder expression of sc_dequantize with the
// add_impl / scaled_sum_impl / dot_triple_impl arithmetic, in the same
// order: the decoded value is one correctly-rounded float multiply either
// way, and the reduce is the exact double-precision expression of the
// two-pass kernel — so fused output is bitwise equal to the two-pass
// composition by construction. `g` is the GLOBAL element index (slice
// offset + local index): block lookup, nibble parity and sign bit all
// derive from it, which is what lets a caller reduce an arbitrary slice of
// an encoded span in place.
//
// The scale lookup is strength-reduced through ScaleCursor: `block` is a
// runtime divisor, so a literal scales[i / block] costs a hardware DIV per
// element that dominates the whole fused loop. The cursor pays one division
// at construction and a compare-and-bump per element after that. Only the
// LOOKUP changes — the decode multiply sees the identical scale value, so
// the bit contract is untouched.

// scales[g / block] for a non-decreasing stream of global indices g. `next`
// is the global index where the current scale expires and `blk` the block
// loaded next. Nothing is read before the first at(), so an empty slice
// touches no scale (its blob may be a 0-byte message).
struct ScaleCursor {
  const float* scales;
  std::size_t block;
  std::size_t blk;
  std::size_t next;
  float scale = 0.0f;

  ScaleCursor(const float* scales_, std::size_t block_, std::size_t start)
      : scales(scales_), block(block_), blk(start / block_),
        next(blk * block_) {}
  float at(std::size_t g) {
    while (g >= next) {
      scale = scales[blk];
      ++blk;
      next += block;
    }
    return scale;
  }
};

template <class Dec>
void sc_dequant_add(const std::uint8_t* payload, const float* scales,
                    std::size_t offset, std::size_t n, std::size_t block,
                    float* dst) {
  const Dec dec{payload};
  ScaleCursor cur(scales, block, offset);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = offset + i;
    dst[i] = static_cast<float>(static_cast<double>(dst[i]) +
                                static_cast<double>(dec(g, cur.at(g))));
  }
}

template <class Dec>
void sc_dequant_combine(const float* other, double c_other, double c_deq,
                        bool deq_is_b, const std::uint8_t* payload,
                        const float* scales, std::size_t offset,
                        std::size_t n, std::size_t block, float* out) {
  const Dec dec{payload};
  ScaleCursor cur(scales, block, offset);
  // scaled_sum(a, ca, b, cb) with the decoded value in the slot `deq_is_b`
  // selects; the operand order is kept literal so the composition argument
  // needs no commutativity reasoning.
  const double ca = deq_is_b ? c_other : c_deq;
  const double cb = deq_is_b ? c_deq : c_other;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = offset + i;
    const double o = static_cast<double>(other[i]);
    const double d = static_cast<double>(dec(g, cur.at(g)));
    const double av = deq_is_b ? o : d;
    const double bv = deq_is_b ? d : o;
    out[i] = static_cast<float>(ca * av + cb * bv);
  }
}

// dot_triple_impl's pairwise lanes with the decoded value as one operand.
// `other` always takes the x slot: a product of two floats is exact in
// double, so x*y == y*x and the only effect of the operand slot is which of
// the two squared-norm accumulators is a·a — swapped at the end.
template <class Dec>
void sc_dequant_dot_triple(const float* other, bool deq_is_b,
                           const std::uint8_t* payload, const float* scales,
                           std::size_t offset, std::size_t n,
                           std::size_t block, double out[3]) {
  const Dec dec{payload};
  ScaleCursor cur(scales, block, offset);
  const auto deq = [&](std::size_t g) { return dec(g, cur.at(g)); };
  double xy0 = 0, xy1 = 0, xx0 = 0, xx1 = 0, yy0 = 0, yy1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double x0 = other[i], y0 = deq(offset + i);
    const double x1 = other[i + 1], y1 = deq(offset + i + 1);
    xy0 += x0 * y0;
    xx0 += x0 * x0;
    yy0 += y0 * y0;
    xy1 += x1 * y1;
    xx1 += x1 * x1;
    yy1 += y1 * y1;
  }
  if (i < n) {
    const double x = other[i], y = deq(offset + i);
    xy0 += x * y;
    xx0 += x * x;
    yy0 += y * y;
  }
  out[0] = xy0 + xy1;
  out[1] = deq_is_b ? xx0 + xx1 : yy0 + yy1;
  out[2] = deq_is_b ? yy0 + yy1 : xx0 + xx1;
}

// A codec's table entry: its quantize and the decode operations over Dec.
template <class Dec>
constexpr CodecKernels codec_kernels(
    decltype(CodecKernels::quantize) quantize) {
  return {quantize, sc_dequantize<Dec>, sc_dequant_add<Dec>,
          sc_dequant_combine<Dec>, sc_dequant_dot_triple<Dec>};
}

// Batched software fp16 converters: the same bit logic as per-element Half
// access (half.h keeps it header-inline precisely so this loop and Half can
// never diverge), but in a flat loop the compiler can pipeline without a
// call per element.
void sw_half_to_float(const std::uint16_t* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Half::bits_to_float(src[i]);
}
void sw_float_to_half(const float* src, std::uint16_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Half::float_to_bits(src[i]);
}

// Baseline stream_copy: plain memcpy (no cache-bypass path without vector
// stores; the contract is only "copies the bytes").
void sw_stream_copy(const std::byte* src, std::byte* dst, std::size_t bytes) {
  if (bytes != 0) std::memcpy(dst, src, bytes);
}

}  // namespace

void scalar_add_f32(const std::byte* x, std::byte* y, std::size_t n) {
  k_add<float>(x, y, n);
}
void scalar_add_f64(const std::byte* x, std::byte* y, std::size_t n) {
  k_add<double>(x, y, n);
}
void scalar_scaled_sum_f64(const std::byte* a, double ca, const std::byte* b,
                           double cb, std::byte* out, std::size_t n) {
  k_scaled_sum<double>(a, ca, b, cb, out, n);
}

const KernelTable& scalar_table() {
  static constexpr KernelTable table = {
      "scalar",
      {k_dot<Half>, k_dot<float>, k_dot<double>},
      {k_norm_squared<Half>, k_norm_squared<float>, k_norm_squared<double>},
      {k_dot_triple<Half>, k_dot_triple<float>, k_dot_triple<double>},
      {k_axpy<Half>, k_axpy<float>, k_axpy<double>},
      {k_scale<Half>, k_scale<float>, k_scale<double>},
      {k_add<Half>, scalar_add_f32, scalar_add_f64},
      {k_scaled_sum<Half>, k_scaled_sum<float>, scalar_scaled_sum_f64},
      {k_has_nonfinite<Half>, k_has_nonfinite<float>, k_has_nonfinite<double>},
      sw_half_to_float,
      sw_float_to_half,
      sw_stream_copy,
      {codec_kernels<DecInt8>(sc_quantize_int8),
       codec_kernels<DecInt4>(sc_quantize_int4),
       codec_kernels<DecSign>(sc_quantize_sign)},
  };
  return table;
}

}  // namespace adasum::simd
