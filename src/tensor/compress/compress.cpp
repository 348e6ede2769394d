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

static_assert(codec_index(CompressionMode::kInt8) == simd::kCodecInt8);
static_assert(codec_index(CompressionMode::kInt4) == simd::kCodecInt4);
static_assert(codec_index(CompressionMode::kSign) == simd::kCodecSign);

// The active table's kernels for an active mode.
const simd::CodecKernels& active_codec(const CompressionOptions& opts) {
  ADASUM_CHECK(opts.active());
  return simd::active_table().codec[codec_index(opts.mode)];
}

// Byte offset of the packed payload in the wire stream of an n-element span.
std::size_t payload_offset(std::size_t n, const CompressionOptions& opts) {
  return compressed_num_blocks(n, opts) * sizeof(float);
}

// Encodes elements [b, e) of a span of `n` into the wire stream `dst`; b is a
// block multiple.
void encode_range(const simd::CodecKernels& k, const CompressionOptions& opts,
                  const float* values, std::size_t n, std::byte* dst,
                  std::size_t b, std::size_t e) {
  const std::size_t be = opts.block_elems();
  auto* payload =
      reinterpret_cast<std::uint8_t*>(dst + payload_offset(n, opts));
  // b is a multiple of the block, itself a multiple of 8 elements: scales,
  // nibble pairs and sign bytes all start fresh at b, so its payload bytes
  // begin at compressed_payload_bytes(b), and the shifted seed reproduces
  // the global-index hashes.
  const std::uint32_t seed =
      opts.seed + static_cast<std::uint32_t>(b) * kSrIndexStride;
  k.quantize(values + b, e - b, be, seed, opts.stochastic,
             reinterpret_cast<float*>(dst) + b / be,
             payload + compressed_payload_bytes(b, opts.mode));
}

// Decodes elements [b, e) of the `n`-element wire stream `src`; b is a block
// multiple.
void decode_range(const simd::CodecKernels& k, const CompressionOptions& opts,
                  const std::byte* src, std::size_t n, float* values,
                  std::size_t b, std::size_t e) {
  const std::size_t be = opts.block_elems();
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(src + payload_offset(n, opts));
  k.dequantize(payload + compressed_payload_bytes(b, opts.mode), e - b, be,
               reinterpret_cast<const float*>(src) + b / be, values + b);
}

}  // namespace

void compress_f32(std::span<const float> values, const CompressionOptions& opts,
                  std::byte* dst, std::span<float> decoded) {
  const simd::CodecKernels& k = active_codec(opts);
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
  // Each tile is read whole by the encode before the decode overwrites it,
  // which is what makes exact aliasing of `decoded` and `values` safe.
  for (std::size_t tb = 0; tb < n; tb += tile) {
    const std::size_t te = std::min(n, tb + tile);
    encode_range(k, opts, values.data(), n, dst, tb, te);
    if (writeback) decode_range(k, opts, dst, n, decoded.data(), tb, te);
  }
}

void decompress_f32(const std::byte* src, const CompressionOptions& opts,
                    std::span<float> values) {
  decode_range(active_codec(opts), opts, src, values.size(), values.data(), 0,
               values.size());
}

void decompress_add_f32(const std::byte* src, const CompressionOptions& opts,
                        std::size_t total, std::size_t offset,
                        std::span<float> dst) {
  const simd::CodecKernels& k = active_codec(opts);
  ADASUM_CHECK(offset + dst.size() <= total);
  if (dst.empty()) return;  // an empty slice's blob may be a 0-byte message
  k.dequant_add(
      reinterpret_cast<const std::uint8_t*>(src + payload_offset(total, opts)),
      reinterpret_cast<const float*>(src), offset, dst.size(),
      opts.block_elems(), dst.data());
}

void decompress_combine_f32(const std::byte* src,
                            const CompressionOptions& opts, std::size_t total,
                            std::size_t offset, std::span<const float> other,
                            double c_other, double c_deq, bool deq_is_b,
                            std::span<float> out) {
  const simd::CodecKernels& k = active_codec(opts);
  ADASUM_CHECK_EQ(other.size(), out.size());
  ADASUM_CHECK(offset + out.size() <= total);
  if (out.empty()) return;
  k.dequant_combine(
      other.data(), c_other, c_deq, deq_is_b,
      reinterpret_cast<const std::uint8_t*>(src + payload_offset(total, opts)),
      reinterpret_cast<const float*>(src), offset, out.size(),
      opts.block_elems(), out.data());
}

kernels::DotTriple decompress_dot_triple_f32(const std::byte* src,
                                             const CompressionOptions& opts,
                                             std::size_t total,
                                             std::size_t offset,
                                             std::span<const float> other,
                                             bool deq_is_b) {
  const simd::CodecKernels& k = active_codec(opts);
  ADASUM_CHECK(offset + other.size() <= total);
  if (other.empty()) return kernels::DotTriple{};
  double v[3];
  k.dequant_dot_triple(
      other.data(), deq_is_b,
      reinterpret_cast<const std::uint8_t*>(src + payload_offset(total, opts)),
      reinterpret_cast<const float*>(src), offset, other.size(),
      opts.block_elems(), v);
  return kernels::DotTriple{v[0], v[1], v[2]};
}

ErrorFeedback::ErrorFeedback(std::vector<std::size_t> sizes) {
  residuals_.reserve(sizes.size());
  for (std::size_t n : sizes) residuals_.emplace_back(n, 0.0f);
}

void ErrorFeedback::compensate(std::size_t index, std::span<float> values) {
  ADASUM_CHECK_LT(index, residuals_.size());
  const auto& r = residuals_[index];
  ADASUM_CHECK_EQ(values.size(), r.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] += r[i];
}

void ErrorFeedback::record(std::size_t index, std::span<const float> values,
                           std::span<const float> transmitted) {
  ADASUM_CHECK_LT(index, residuals_.size());
  auto& r = residuals_[index];
  ADASUM_CHECK_EQ(values.size(), r.size());
  ADASUM_CHECK_EQ(transmitted.size(), r.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    r[i] = values[i] - transmitted[i];
}

}  // namespace adasum
