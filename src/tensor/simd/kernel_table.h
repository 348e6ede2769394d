// Function-pointer kernel table shared by the SIMD dispatch layer.
//
// This header is deliberately minimal: it is included by the ISA-specific
// translation units (kernels_avx2.cpp is compiled with -mavx2 -mfma -mf16c),
// and any inline function it pulled in could be emitted with AVX encodings
// there and then be picked by the linker for baseline TUs. Only <cstddef> and
// <cstdint> — no project headers.
//
// The elementwise and reduction entries are dtype-erased (std::byte* +
// element count) and indexed by the integer value of adasum::DType
// (kFloat16=0, kFloat32=1, kFloat64=2 — static_asserted in
// tensor/kernels.cpp); the wire codec entries are indexed by codec.
// Size/overlap preconditions are checked by the public wrappers in
// tensor/kernels.h and tensor/compress/compress.h, not here.
#pragma once

#include <cstddef>
#include <cstdint>

namespace adasum::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1 };

inline constexpr int kNumDtypes = 3;
inline constexpr int kF16 = 0;
inline constexpr int kF32 = 1;
inline constexpr int kF64 = 2;

// Wire codec indices into KernelTable::codec. The mapping from
// adasum::CompressionMode is static_asserted in tensor/compress/compress.cpp.
inline constexpr int kNumCodecs = 3;
inline constexpr int kCodecInt8 = 0;
inline constexpr int kCodecInt4 = 1;
inline constexpr int kCodecSign = 2;

// One blockwise wire codec (DESIGN.md §13): its encode, its decode and the
// fused decode-reduce entries (§17), all over the same stream layout.
//
// fp32 payloads only (the compress layer rejects other dtypes before
// dispatch). `block` is the block length in ELEMENTS — a multiple of 8 and
// at least 8, so int4 nibble pairs and sign bytes never straddle a block
// boundary; the final block may be short. `scales` holds ceil(n/block)
// floats, one per block; `payload` holds the packed levels.
//
// Contract shared by both TUs, bit-for-bit (tests/compress_test.cpp):
//  * int8:  scale_b = max|block| / 127, q in [-127, 127], one signed byte
//           per element, x ≈ q * scale_b.
//  * int4:  scale_b = max|block| / 7, q in [-7, 7], two elements per byte
//           with the EVEN index in the low nibble (two's complement).
//  * sign:  scale_b = mean|block| via an 8-lane-structured sum (the lane
//           assignment is part of the contract so scalar and AVX2 agree
//           exactly); payload bit i of byte i/8 (LSB first) is set when
//           the sign BIT of x is clear (so -0.0 counts as negative), and
//           x ≈ ±scale_b.
//  * An all-zero block stores scale 0 and a zero payload. When 1/scale_b
//    is not finite (denormal max), both TUs fall back to dividing by the
//    block max instead of multiplying by the reciprocal.
//  * `seed` plus the span-relative element index drive the counter-based
//    stochastic-rounding hash (floor(x/scale + u), u in [0,1) from a
//    murmur3 finalizer); stochastic=false rounds to nearest-even. Sign
//    ignores both.
//  * Both TUs leave a NaN element out of the int8/int4 block max, and in a
//    block with a nonzero max it quantizes to level -kMax. Detecting NaN
//    and Inf is the caller's job.
//
// Fused dequantize-reduce: single-pass decode + reduce for the compressed
// collectives — one read of the wire payload, one read-modify-write of the
// accumulator (or, for the dot triple, one read of the other operand), no
// decoded scratch pass. `payload` and `scales` address the WHOLE encoded
// span; `offset` is the global element index where this call's slice
// begins — block index, nibble parity and sign-bit position all derive from
// offset+i — and `n` is the slice length. `dst`/`other`/`out` address the
// slice directly (their element 0 is global element `offset`). An empty
// slice reads neither `payload` nor `scales`.
//
// Bit contract (tests/compress_test.cpp): within one table, dequant_add is
// bitwise equal to dequantize-then-add[kF32], dequant_combine to
// dequantize-then-scaled_sum[kF32] with the decoded operand in the position
// selected by `deq_is_b` (b when true, a when false) and coefficient
// `c_deq`, the in-memory operand taking the other slot with `c_other`, and
// dequant_dot_triple (out = {a·b, a·a, b·b}, operands placed the same way)
// to dequantize-then-dot_triple[kF32]. `out` may alias `other` exactly;
// partial overlap is forbidden.
struct CodecKernels {
  void (*quantize)(const float* src, std::size_t n, std::size_t block,
                   std::uint32_t seed, bool stochastic, float* scales,
                   std::uint8_t* payload);
  void (*dequantize)(const std::uint8_t* payload, std::size_t n,
                     std::size_t block, const float* scales, float* dst);
  void (*dequant_add)(const std::uint8_t* payload, const float* scales,
                      std::size_t offset, std::size_t n, std::size_t block,
                      float* dst);
  void (*dequant_combine)(const float* other, double c_other, double c_deq,
                          bool deq_is_b, const std::uint8_t* payload,
                          const float* scales, std::size_t offset,
                          std::size_t n, std::size_t block, float* out);
  void (*dequant_dot_triple)(const float* other, bool deq_is_b,
                             const std::uint8_t* payload, const float* scales,
                             std::size_t offset, std::size_t n,
                             std::size_t block, double out[3]);
};

struct KernelTable {
  const char* name;

  // Reductions accumulate in double regardless of payload dtype (§4.4.1).
  double (*dot[kNumDtypes])(const std::byte* a, const std::byte* b,
                            std::size_t n);
  double (*norm_squared[kNumDtypes])(const std::byte* a, std::size_t n);
  // out[0]=a·b, out[1]=a·a, out[2]=b·b in one pass (Algorithm 1 line 15).
  void (*dot_triple[kNumDtypes])(const std::byte* a, const std::byte* b,
                                 std::size_t n, double out[3]);

  // Elementwise ops; arithmetic in double, rounded once to the payload dtype.
  void (*axpy[kNumDtypes])(double alpha, const std::byte* x, std::byte* y,
                           std::size_t n);
  void (*scale[kNumDtypes])(double alpha, std::byte* x, std::size_t n);
  void (*add[kNumDtypes])(const std::byte* x, std::byte* y, std::size_t n);
  // out[i] = ca*a[i] + cb*b[i]. `out` may alias `a` or `b` exactly (the
  // in-place AdasumRVH combine writes over its own operand); implementations
  // must load each chunk before storing it. Partial overlap is forbidden.
  void (*scaled_sum[kNumDtypes])(const std::byte* a, double ca,
                                 const std::byte* b, double cb, std::byte* out,
                                 std::size_t n);
  bool (*has_nonfinite[kNumDtypes])(const std::byte* a, std::size_t n);

  // Bulk fp16 <-> fp32 conversion (F16C when available, batched software
  // otherwise). The uint16_t values are IEEE binary16 bit patterns — the
  // storage representation of adasum::Half.
  void (*half_to_float)(const std::uint16_t* src, float* dst, std::size_t n);
  void (*float_to_half)(const float* src, std::uint16_t* dst, std::size_t n);

  // Bulk byte copy for one-shot landings the destination will not re-read
  // soon (a zero-copy receive depositing a peer's published span into the
  // caller's buffer). The vector implementation uses non-temporal stores —
  // skipping the read-for-ownership of every destination cache line cuts the
  // copy's memory traffic from 3x to 2x the payload — and fences before
  // returning, so a subsequent release-publish of `dst` is safe. Regions
  // must not overlap; small or misaligned copies fall back to memcpy.
  void (*stream_copy)(const std::byte* src, std::byte* dst,
                      std::size_t bytes);

  // Wire codecs (DESIGN.md §13, §17), indexed by kCodecInt8/kInt4/kSign.
  CodecKernels codec[kNumCodecs];
};

// Defined in kernels_scalar.cpp; always available, bit-identical to the seed
// scalar loops — the oracle the property tests compare vector paths against.
const KernelTable& scalar_table();

// Scalar-TU entries the AVX2 table shares: BENCH_kernels.json measured no
// vector body for them that beats the scalar loop (`add` is one add per
// element against a widen/narrow shuffle chain; f64 `scaled_sum`'s FMA gains
// drown in the same port pressure), so both tables hold these pointers.
void scalar_add_f32(const std::byte* x, std::byte* y, std::size_t n);
void scalar_add_f64(const std::byte* x, std::byte* y, std::size_t n);
void scalar_scaled_sum_f64(const std::byte* a, double ca, const std::byte* b,
                           double cb, std::byte* out, std::size_t n);

#if defined(ADASUM_SIMD_HAVE_AVX2)
// Defined in kernels_avx2.cpp, which is only compiled (with per-TU ISA flags)
// when the toolchain probe in src/tensor/CMakeLists.txt succeeds.
const KernelTable& avx2_table();
#endif

}  // namespace adasum::simd
