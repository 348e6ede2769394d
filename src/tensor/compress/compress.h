// Blockwise gradient compression for the allreduce wire (DESIGN.md §13).
//
// The paper's §6 positions gradient compression (1-bit SGD, its ref [33]) as
// a complementary axis to Adasum: compression shrinks each communication
// round, Adasum reduces how many rounds are needed. This module is the wire
// codec for that composition — three lossy fp32 payload encodings applied to
// TRANSFERRED bytes only, while every reduction (dot triples, sums) runs on
// decompressed values with double accumulation per §4.4.1:
//
//   int8  per-block scale = max|x|/127, 1 byte/elem   (~3.95x smaller)
//   int4  per-block scale = max|x|/7, packed nibbles  (~7.8x smaller)
//   sign  per-block scale = mean|x|, 1 bit/elem       (~24x smaller)
//
// Wire format per compressed span: [ceil(n/block) f32 scales][packed
// payload]. One round-to-nearest int8 block covering a whole tensor is the
// symmetric per-tensor int8 quantizer (scale = max|x|/127) that the codec
// tests keep as an independent oracle. Stochastic rounding is counter-based
// (a murmur3 finalizer of seed + element index), so the codec is a pure
// function of (bytes, options) with no RNG state: every rank compressing
// identical bytes produces an identical stream. Replicas stay bit-identical
// through the compressed collectives because each segment is encoded once,
// by its owner, and every rank decodes those bytes (see
// collectives/compressed.h).
//
// Runtime control: ADASUM_COMPRESS and ADASUM_COMPRESS_BLOCK seed the mode
// and block size of every World constructed afterwards (see the
// runtime-configuration table in README.md). Tests and benches set options
// programmatically via World::set_compression.
//
// The options struct and the byte accounting are header-only so comm/ can
// hold them without linking the codec; compress/decompress live in
// compress.cpp and route through the dispatched SIMD tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/runtime_config.h"
#include "tensor/kernels.h"

namespace adasum {

inline const char* compression_mode_name(CompressionMode mode) {
  switch (mode) {
    case CompressionMode::kAuto:
      return "auto";
    case CompressionMode::kNone:
      return "off";
    case CompressionMode::kInt8:
      return "int8";
    case CompressionMode::kInt4:
      return "int4";
    case CompressionMode::kSign:
      return "sign";
  }
  return "?";
}

struct CompressionOptions {
  CompressionMode mode = CompressionMode::kAuto;
  // Quantization granularity: bytes of fp32 payload sharing one scale.
  // 1 KiB = 256 elements keeps the scale sideband at ~0.4% of the payload
  // while isolating outliers to their own block.
  std::size_t block_bytes = 1024;
  // Stochastic rounding keeps the quantizer unbiased (the chi-square test in
  // tests/compress_test.cpp); round-to-nearest-even otherwise.
  bool stochastic = true;
  // Base of the rounding counter. Fixed by default so the codec is
  // reproducible: the serial simulations in the tests replay it bit for bit.
  // Replicas agree regardless, because each segment is encoded once by its
  // owner and decode never reads the seed (see file comment).
  std::uint32_t seed = 0x9E3779B9u;

  bool active() const {
    return mode != CompressionMode::kAuto && mode != CompressionMode::kNone;
  }

  // Block length in elements: block_bytes floored to a multiple of 8, never
  // below 8, so int4 nibble pairs and sign-bit bytes never straddle blocks
  // (a kernel-table precondition).
  std::size_t block_elems() const {
    std::size_t e = block_bytes / sizeof(float);
    e -= e % 8;
    return e < 8 ? 8 : e;
  }
};

// Index of an active mode's codec in the SIMD kernel table
// (simd::KernelTable::codec; the mapping is static_asserted in compress.cpp).
constexpr int codec_index(CompressionMode mode) {
  return static_cast<int>(mode) - static_cast<int>(CompressionMode::kInt8);
}

inline std::size_t compressed_num_blocks(std::size_t count,
                                         const CompressionOptions& opts) {
  const std::size_t be = opts.block_elems();
  return (count + be - 1) / be;
}

// Packed payload bytes, excluding the scale sideband.
inline std::size_t compressed_payload_bytes(std::size_t count,
                                            CompressionMode mode) {
  switch (mode) {
    case CompressionMode::kInt8:
      return count;
    case CompressionMode::kInt4:
      return (count + 1) / 2;
    case CompressionMode::kSign:
      return (count + 7) / 8;
    default:
      return count * sizeof(float);
  }
}

// Total bytes on the wire for `count` fp32 elements: the f32 scale sideband
// followed by the packed payload. Because of the sideband the MEASURED int8
// reduction is 4 / (1 + 4/block_elems) ≈ 3.95x at the default block, not a
// clean 4.0x — BENCH_compress.json reports both. Inactive options cost the
// uncompressed count * 4.
inline std::size_t compressed_wire_bytes(std::size_t count,
                                         const CompressionOptions& opts) {
  if (!opts.active() || count == 0) return count * sizeof(float);
  return compressed_num_blocks(count, opts) * sizeof(float) +
         compressed_payload_bytes(count, opts.mode);
}

// Codec entry points (compress.cpp). `dst`/`src` wire buffers hold
// compressed_wire_bytes(values.size(), opts) bytes, 4-byte aligned (the
// scale sideband is stored as raw floats; BufferPool leases satisfy this).
// `opts` must be active. Both route through the dispatched SIMD kernel
// table, and both are deterministic: scalar and AVX2 produce bit-identical
// streams (enforced by tests/compress_test.cpp).
//
// `decoded`, when non-empty, also receives what a receiver of `dst` decodes
// (values.size() floats): compress_f32 encodes in whole-block tiles of at
// most 32 KiB of fp32 and decodes each tile back while it is still in cache.
// Bit contract: identical to compress_f32 followed by decompress_f32 on the
// same dispatch level, for every input including NaN/Inf, because the
// decode reads the freshly written blob (tests/compress_test.cpp).
// `decoded` may alias `values` exactly (the requantize-in-place shape);
// partial overlap is forbidden.
void compress_f32(std::span<const float> values, const CompressionOptions& opts,
                  std::byte* dst, std::span<float> decoded = {});
void decompress_f32(const std::byte* src, const CompressionOptions& opts,
                    std::span<float> values);

// Fused single-pass decode-reduce (DESIGN.md §17). `src` is a wire stream
// encoding `total` elements; each call reduces the decoded slice
// [offset, offset + n) against the caller's span, touching the wire bytes
// once with no decoded staging pass:
//
//   decompress_add_f32:     dst[i]  = dst[i] + decoded[offset + i]
//   decompress_combine_f32: out[i]  = ca * a[i] + cb * b[i], with the decoded
//                           slice as operand b (deq_is_b) or a, coefficient
//                           c_deq, and `other` in the remaining slot with
//                           c_other. `out` may alias `other` exactly.
//   decompress_dot_triple_f32: {a·b, a·a, b·b} (Algorithm 1 line 15) with
//                           the decoded slice as b (deq_is_b) or a and
//                           `other` in the remaining slot.
//
// Bit contract: identical to decompress_f32 followed by kernels::add /
// scaled_sum / dot_triple on the same dispatch level
// (tests/compress_test.cpp).
void decompress_add_f32(const std::byte* src, const CompressionOptions& opts,
                        std::size_t total, std::size_t offset,
                        std::span<float> dst);
void decompress_combine_f32(const std::byte* src,
                            const CompressionOptions& opts, std::size_t total,
                            std::size_t offset, std::span<const float> other,
                            double c_other, double c_deq, bool deq_is_b,
                            std::span<float> out);
kernels::DotTriple decompress_dot_triple_f32(const std::byte* src,
                                             const CompressionOptions& opts,
                                             std::size_t total,
                                             std::size_t offset,
                                             std::span<const float> other,
                                             bool deq_is_b);

// Error-feedback accumulator for a fixed-layout set of tensors (Seide et
// al., the paper's [33]): before compressing, add the residual left over
// from the previous round; after compressing, store the new residual
// (original - transmitted). DistributedOptimizer's wire error feedback is
// its one user.
class ErrorFeedback {
 public:
  // `sizes` fixes the per-tensor element counts (layout must not change).
  explicit ErrorFeedback(std::vector<std::size_t> sizes);

  // Adds tensor `index`'s residual into `values` in place.
  void compensate(std::size_t index, std::span<float> values);
  // Records residual = values - transmitted for tensor `index`.
  void record(std::size_t index, std::span<const float> values,
              std::span<const float> transmitted);

 private:
  std::vector<std::vector<float>> residuals_;
};

}  // namespace adasum
