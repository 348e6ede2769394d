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
// payload]. The per-tensor int8 path in tensor/quantize.h is the scalar
// ancestor of this format — a single block covering the whole tensor with
// round-to-nearest — and stays the oracle the blockwise tests compare
// against. Stochastic rounding is counter-based (a murmur3 finalizer of
// seed + element index), so the codec is a pure function of (bytes, options)
// with no RNG state: every rank compressing identical bytes produces an
// identical stream. Replicas stay bit-identical through the compressed
// collectives because each segment is encoded once, by its owner, and every
// rank decodes those bytes (see collectives/compressed.h).
//
// Runtime control, mirroring ADASUM_PIPELINE: ADASUM_COMPRESS=off|int8|int4|
// sign|1bit selects the mode for every World constructed afterwards and
// ADASUM_COMPRESS_BLOCK overrides the block size (bytes of fp32 payload per
// scale). Tests and benches set options programmatically via
// World::set_compression.
//
// The options struct and the byte accounting are header-only so comm/ can
// hold them without linking the codec; compress/decompress live in
// compress.cpp and route through the dispatched SIMD tables.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <span>
#include <string_view>
#include <system_error>

#include "base/logging.h"
#include "tensor/kernels.h"

namespace adasum {

// kAuto defers to the enclosing configuration (AllreduceOptions defers to
// the World, the World's from_env defaults to kNone); the collectives only
// ever see a resolved concrete mode.
enum class CompressionMode : std::uint8_t { kAuto, kNone, kInt8, kInt4, kSign };

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
  // Base of the rounding counter. Fixed by default: determinism across
  // ranks is REQUIRED for replica consistency (see file comment).
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

  // Unknown values keep the defaults (off, 1 KiB) and warn once per
  // process, like ADASUM_TRANSPORT.
  static CompressionOptions from_env() {
    CompressionOptions o;
    o.mode = CompressionMode::kNone;
    if (const char* env = std::getenv("ADASUM_COMPRESS"); env != nullptr) {
      const std::string_view v(env);
      if (v == "int8") o.mode = CompressionMode::kInt8;
      else if (v == "int4") o.mode = CompressionMode::kInt4;
      else if (v == "sign" || v == "1bit") o.mode = CompressionMode::kSign;
      else if (v != "off") {
        static std::once_flag warned;
        std::call_once(warned, [&] {
          ADASUM_LOG(Warning) << "ADASUM_COMPRESS=" << v
                              << " is not a known mode (off|int8|int4|sign|"
                                 "1bit); using off";
        });
      }
    }
    if (const char* env = std::getenv("ADASUM_COMPRESS_BLOCK");
        env != nullptr) {
      const std::string_view v(env);
      std::size_t n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec == std::errc() && end == v.data() + v.size() && n > 0) {
        o.block_bytes = n;
      } else {
        static std::once_flag warned;
        std::call_once(warned, [&] {
          ADASUM_LOG(Warning) << "ADASUM_COMPRESS_BLOCK=" << v
                              << " is not a positive whole number of bytes; "
                                 "using "
                              << o.block_bytes;
        });
      }
    }
    return o;
  }
};

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

// Codec options that reproduce the per-tensor int8 of tensor/quantize.h for
// every tensor of up to `max_elems` elements: one round-to-nearest int8
// block covering the tensor (DistributedOptimizer's kInt8).
inline CompressionOptions per_tensor_int8(std::size_t max_elems) {
  CompressionOptions o;
  o.mode = CompressionMode::kInt8;
  o.block_bytes = (max_elems + 7) / 8 * 8 * sizeof(float);
  o.stochastic = false;
  return o;
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

}  // namespace adasum
