#include "tensor/compress/compress.h"

#include <algorithm>

#include "base/check.h"
#include "tensor/simd/simd.h"

namespace adasum {
namespace {

// The stochastic-rounding counter is indexed by the span-global element
// index; sr_uniform hashes seed + i * kSrIndexStride with uint32
// wraparound, so a writeback tile starting at element b reproduces the
// global hashes by shifting its seed base instead of its indices.
constexpr std::uint32_t kSrIndexStride = 0x9E3779B9u;

// compress_f32's tile: whole blocks, at most 32 KiB of fp32 (at least one
// block), so a `decoded` writeback re-reads the payload and scales the
// encode just wrote from L1/L2 instead of a second pass from memory.
constexpr std::size_t kWritebackTileBytes = std::size_t{32} << 10;

// Encodes elements [b, e) of a span of `n` into the wire stream `dst`; b is a
// block multiple.
void encode_range(const simd::KernelTable& t, const CompressionOptions& opts,
                  const float* values, std::size_t n, std::byte* dst,
                  std::size_t b, std::size_t e) {
  const std::size_t be = opts.block_elems();
  auto* scales = reinterpret_cast<float*>(dst);
  std::byte* payload = dst + compressed_num_blocks(n, opts) * sizeof(float);
  // b is a block multiple: scales, nibble pairs and sign bytes all start
  // fresh at b, and the shifted seed reproduces the global-index hashes.
  const std::uint32_t seed =
      opts.seed + static_cast<std::uint32_t>(b) * kSrIndexStride;
  float* sc = scales + b / be;
  const float* src = values + b;
  const std::size_t len = e - b;
  switch (opts.mode) {
    case CompressionMode::kInt8:
      t.quantize_int8_blocks(src, len, be, seed, opts.stochastic, sc,
                             reinterpret_cast<std::int8_t*>(payload) + b);
      break;
    case CompressionMode::kInt4:
      t.quantize_int4_blocks(src, len, be, seed, opts.stochastic, sc,
                             reinterpret_cast<std::uint8_t*>(payload) + b / 2);
      break;
    case CompressionMode::kSign:
      t.quantize_sign_blocks(src, len, be, sc,
                             reinterpret_cast<std::uint8_t*>(payload) + b / 8);
      break;
    default:
      ADASUM_CHECK(false);
  }
}

// Decodes elements [b, e) of the `n`-element wire stream `src`.
void decode_range(const simd::KernelTable& t, const CompressionOptions& opts,
                  const std::byte* src, std::size_t n, float* values,
                  std::size_t b, std::size_t e) {
  const std::size_t be = opts.block_elems();
  const auto* scales = reinterpret_cast<const float*>(src);
  const std::byte* payload =
      src + compressed_num_blocks(n, opts) * sizeof(float);
  const float* sc = scales + b / be;
  float* dst = values + b;
  const std::size_t len = e - b;
  switch (opts.mode) {
    case CompressionMode::kInt8:
      t.dequantize_int8_blocks(
          reinterpret_cast<const std::int8_t*>(payload) + b, len, be, sc,
          dst);
      break;
    case CompressionMode::kInt4:
      t.dequantize_int4_blocks(
          reinterpret_cast<const std::uint8_t*>(payload) + b / 2, len, be,
          sc, dst);
      break;
    case CompressionMode::kSign:
      t.dequantize_sign_blocks(
          reinterpret_cast<const std::uint8_t*>(payload) + b / 8, len, be,
          sc, dst);
      break;
    default:
      ADASUM_CHECK(false);
  }
}

}  // namespace

void compress_f32(std::span<const float> values, const CompressionOptions& opts,
                  std::byte* dst, std::span<float> decoded) {
  ADASUM_CHECK(opts.active());
  const std::size_t n = values.size();
  const bool writeback = !decoded.empty();
  if (writeback) {
    ADASUM_CHECK_EQ(decoded.size(), n);
    ADASUM_CHECK(decoded.data() == values.data() ||
                 decoded.data() + n <= values.data() ||
                 values.data() + n <= decoded.data());
  }
  const std::size_t be = opts.block_elems();
  const std::size_t tile =
      std::max(be, kWritebackTileBytes / sizeof(float) / be * be);
  const simd::KernelTable& t = simd::active_table();
  // Each tile is read whole by the encode before the decode overwrites it,
  // which is what makes exact aliasing of `decoded` and `values` safe.
  for (std::size_t tb = 0; tb < n; tb += tile) {
    const std::size_t te = std::min(n, tb + tile);
    encode_range(t, opts, values.data(), n, dst, tb, te);
    if (writeback) decode_range(t, opts, dst, n, decoded.data(), tb, te);
  }
}

void decompress_f32(const std::byte* src, const CompressionOptions& opts,
                    std::span<float> values) {
  ADASUM_CHECK(opts.active());
  decode_range(simd::active_table(), opts, src, values.size(), values.data(),
               0, values.size());
}

void decompress_add_f32(const std::byte* src, const CompressionOptions& opts,
                        std::size_t total, std::size_t offset,
                        std::span<float> dst) {
  ADASUM_CHECK(opts.active());
  ADASUM_CHECK(offset + dst.size() <= total);
  if (dst.empty()) return;  // an empty slice's blob may be a 0-byte message
  const std::size_t blocks = compressed_num_blocks(total, opts);
  const auto* scales = reinterpret_cast<const float*>(src);
  const std::byte* payload = src + blocks * sizeof(float);
  const std::size_t be = opts.block_elems();
  const simd::KernelTable& t = simd::active_table();
  const std::size_t len = dst.size();
  switch (opts.mode) {
    case CompressionMode::kInt8:
      t.dequant_add_int8(reinterpret_cast<const std::int8_t*>(payload), scales,
                         offset, len, be, dst.data());
      break;
    case CompressionMode::kInt4:
      t.dequant_add_int4(reinterpret_cast<const std::uint8_t*>(payload),
                         scales, offset, len, be, dst.data());
      break;
    case CompressionMode::kSign:
      t.dequant_add_sign(reinterpret_cast<const std::uint8_t*>(payload),
                         scales, offset, len, be, dst.data());
      break;
    default:
      ADASUM_CHECK(false);
  }
}

void decompress_combine_f32(const std::byte* src,
                            const CompressionOptions& opts, std::size_t total,
                            std::size_t offset, std::span<const float> other,
                            double c_other, double c_deq, bool deq_is_b,
                            std::span<float> out) {
  ADASUM_CHECK(opts.active());
  ADASUM_CHECK_EQ(other.size(), out.size());
  ADASUM_CHECK(offset + out.size() <= total);
  if (out.empty()) return;
  const std::size_t blocks = compressed_num_blocks(total, opts);
  const auto* scales = reinterpret_cast<const float*>(src);
  const std::byte* payload = src + blocks * sizeof(float);
  const std::size_t be = opts.block_elems();
  const simd::KernelTable& t = simd::active_table();
  const std::size_t len = out.size();
  switch (opts.mode) {
    case CompressionMode::kInt8:
      t.dequant_combine_int8(other.data(), c_other, c_deq, deq_is_b,
                             reinterpret_cast<const std::int8_t*>(payload),
                             scales, offset, len, be, out.data());
      break;
    case CompressionMode::kInt4:
      t.dequant_combine_int4(other.data(), c_other, c_deq, deq_is_b,
                             reinterpret_cast<const std::uint8_t*>(payload),
                             scales, offset, len, be, out.data());
      break;
    case CompressionMode::kSign:
      t.dequant_combine_sign(other.data(), c_other, c_deq, deq_is_b,
                             reinterpret_cast<const std::uint8_t*>(payload),
                             scales, offset, len, be, out.data());
      break;
    default:
      ADASUM_CHECK(false);
  }
}

kernels::DotTriple decompress_dot_triple_f32(const std::byte* src,
                                             const CompressionOptions& opts,
                                             std::size_t total,
                                             std::size_t offset,
                                             std::span<const float> other,
                                             bool deq_is_b) {
  ADASUM_CHECK(opts.active());
  ADASUM_CHECK(offset + other.size() <= total);
  if (other.empty()) return kernels::DotTriple{};
  const std::size_t blocks = compressed_num_blocks(total, opts);
  const auto* scales = reinterpret_cast<const float*>(src);
  const std::byte* payload = src + blocks * sizeof(float);
  const std::size_t be = opts.block_elems();
  const std::size_t n = other.size();
  const simd::KernelTable& t = simd::active_table();
  double v[3];
  switch (opts.mode) {
    case CompressionMode::kInt8:
      t.dequant_dot_triple_int8(other.data(), deq_is_b,
                                reinterpret_cast<const std::int8_t*>(payload),
                                scales, offset, n, be, v);
      break;
    case CompressionMode::kInt4:
      t.dequant_dot_triple_int4(other.data(), deq_is_b,
                                reinterpret_cast<const std::uint8_t*>(payload),
                                scales, offset, n, be, v);
      break;
    case CompressionMode::kSign:
      t.dequant_dot_triple_sign(other.data(), deq_is_b,
                                reinterpret_cast<const std::uint8_t*>(payload),
                                scales, offset, n, be, v);
      break;
    default:
      ADASUM_CHECK(false);
  }
  return kernels::DotTriple{v[0], v[1], v[2]};
}

}  // namespace adasum
