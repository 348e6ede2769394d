// Function-pointer kernel table shared by the SIMD dispatch layer.
//
// This header is deliberately minimal: it is included by the ISA-specific
// translation units (kernels_avx2.cpp is compiled with -mavx2 -mfma -mf16c),
// and any inline function it pulled in could be emitted with AVX encodings
// there and then be picked by the linker for baseline TUs. Only <cstddef> and
// <cstdint> — no project headers.
//
// Entries are dtype-erased (std::byte* + element count) and indexed by the
// integer value of adasum::DType (kFloat16=0, kFloat32=1, kFloat64=2 —
// static_asserted in tensor/kernels.cpp). Size/overlap preconditions are
// checked by the public wrappers in tensor/kernels.h, not here.
#pragma once

#include <cstddef>
#include <cstdint>

namespace adasum::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1 };

inline constexpr int kNumDtypes = 3;
inline constexpr int kF16 = 0;
inline constexpr int kF32 = 1;
inline constexpr int kF64 = 2;

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

  // ---- blockwise compression casts (DESIGN.md §13) -------------------------
  //
  // fp32 payloads only (the compress layer rejects other dtypes before
  // dispatch). `block` is the block length in ELEMENTS — a multiple of 8 and
  // at least 8, so int4 nibble pairs and sign bytes never straddle a block
  // boundary; the final block may be short. `scales` holds ceil(n/block)
  // floats, one per block.
  //
  // Contract shared by both TUs, bit-for-bit (tests/compress_test.cpp):
  //  * int8:  scale_b = max|block| / 127, q in [-127, 127], x ≈ q * scale_b.
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
  //    murmur3 finalizer); stochastic=false rounds to nearest-even. Inputs
  //    must be finite — NaN/inf propagation is the caller's overflow check.
  void (*quantize_int8_blocks)(const float* src, std::size_t n,
                               std::size_t block, std::uint32_t seed,
                               bool stochastic, float* scales, std::int8_t* q);
  void (*dequantize_int8_blocks)(const std::int8_t* q, std::size_t n,
                                 std::size_t block, const float* scales,
                                 float* dst);
  void (*quantize_int4_blocks)(const float* src, std::size_t n,
                               std::size_t block, std::uint32_t seed,
                               bool stochastic, float* scales,
                               std::uint8_t* packed);
  void (*dequantize_int4_blocks)(const std::uint8_t* packed, std::size_t n,
                                 std::size_t block, const float* scales,
                                 float* dst);
  void (*quantize_sign_blocks)(const float* src, std::size_t n,
                               std::size_t block, float* scales,
                               std::uint8_t* bits);
  void (*dequantize_sign_blocks)(const std::uint8_t* bits, std::size_t n,
                                 std::size_t block, const float* scales,
                                 float* dst);

  // ---- fused dequantize-reduce (DESIGN.md §17) -----------------------------
  //
  // Single-pass decode + reduce for the compressed collectives: one read of
  // the wire payload, one read-modify-write of the accumulator (or, for the
  // dot triple, one read of the other operand), no decoded scratch pass.
  // `q`/`packed`/`bits` and `scales` address the WHOLE encoded span (same
  // layout as the casts above); `offset` is the global element
  // index where this call's slice begins — block index, nibble parity and
  // sign-bit position all derive from offset+i — and `n` is the slice length.
  // `dst`/`other`/`out` address the slice directly (their element 0 is global
  // element `offset`).
  //
  // Bit contract (tests/compress_test.cpp): within one TU, dequant_add_* is
  // bitwise equal to dequantize-then-add composed from the SAME table, and
  // dequant_combine_* to dequantize-then-scaled_sum with the decoded operand
  // in the position selected by `deq_is_b` (b when true, a when false) and
  // coefficient `c_deq`, the in-memory operand taking the other slot with
  // `c_other`. `out` may alias `other` exactly; partial overlap is forbidden.
  void (*dequant_add_int8)(const std::int8_t* q, const float* scales,
                           std::size_t offset, std::size_t n,
                           std::size_t block, float* dst);
  void (*dequant_add_int4)(const std::uint8_t* packed, const float* scales,
                           std::size_t offset, std::size_t n,
                           std::size_t block, float* dst);
  void (*dequant_add_sign)(const std::uint8_t* bits, const float* scales,
                           std::size_t offset, std::size_t n,
                           std::size_t block, float* dst);
  void (*dequant_combine_int8)(const float* other, double c_other,
                               double c_deq, bool deq_is_b,
                               const std::int8_t* q, const float* scales,
                               std::size_t offset, std::size_t n,
                               std::size_t block, float* out);
  void (*dequant_combine_int4)(const float* other, double c_other,
                               double c_deq, bool deq_is_b,
                               const std::uint8_t* packed, const float* scales,
                               std::size_t offset, std::size_t n,
                               std::size_t block, float* out);
  void (*dequant_combine_sign)(const float* other, double c_other,
                               double c_deq, bool deq_is_b,
                               const std::uint8_t* bits, const float* scales,
                               std::size_t offset, std::size_t n,
                               std::size_t block, float* out);
  // out = {a·b, a·a, b·b} over the slice, the decoded operand in slot b
  // (deq_is_b) or a and `other` in the remaining slot. Bit contract: equal to
  // dequantize-then-dot_triple[kF32] composed from the SAME table.
  void (*dequant_dot_triple_int8)(const float* other, bool deq_is_b,
                                  const std::int8_t* q, const float* scales,
                                  std::size_t offset, std::size_t n,
                                  std::size_t block, double out[3]);
  void (*dequant_dot_triple_int4)(const float* other, bool deq_is_b,
                                  const std::uint8_t* packed,
                                  const float* scales, std::size_t offset,
                                  std::size_t n, std::size_t block,
                                  double out[3]);
  void (*dequant_dot_triple_sign)(const float* other, bool deq_is_b,
                                  const std::uint8_t* bits,
                                  const float* scales, std::size_t offset,
                                  std::size_t n, std::size_t block,
                                  double out[3]);
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
