// Tests for the blockwise wire codec (src/tensor/compress/, DESIGN.md §13)
// and the compressed collectives (src/collectives/compressed.h).
//
// Five layers of guarantees:
//  * codec kernels — scalar vs AVX2 bit parity for every mode across odd
//    tails, block sizes, stochastic rounding and unaligned inputs; per-block
//    scale edge cases (all-zero block, single huge outlier, denormal max,
//    negative zero); round-trip error bounds; and a chi-square test that the
//    counter-based stochastic rounding is unbiased.
//  * oracle — with one block covering the tensor and round-to-nearest, the
//    blockwise int8 codec reproduces the scalar per-tensor int8 of
//    int8_oracle.h bit-for-bit (the ancestor of the wire format).
//  * fused decode-reduce kernels — bitwise equal to dequantize-then-add /
//    dequantize-then-scaled_sum / dequantize-then-dot_triple composed from
//    the SAME kernel table, across modes, block sizes, stochastic rounding,
//    ragged tails, slice offsets, operand positions and exact aliasing, on
//    every compiled table; compress_f32's decoded writeback is bitwise
//    compress-then-decompress, in place and not, hostile blocks included.
//  * compressed collectives — every rank ends bit-identical (each final
//    segment is its owner's single blob, forwarded verbatim, pinned for RVH
//    against a serial simulation), results stay near the
//    uncompressed reduction, non-fp32 payloads pass through uncompressed,
//    and warm compressed iterations make zero pool allocations.
//  * systems composition — the strict protocol analyzer validates the
//    compressed schedules, and per-message corruption is still detected
//    through checksums with compression on (blobs are plain byte messages).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/runtime_config.h"
#include "collectives/allreduce.h"
#include "collectives/compressed.h"
#include "collectives/resilient.h"
#include "collectives/sum_allreduce.h"
#include "comm/fault_injector.h"
#include "comm/world.h"
#include "env_restore.h"
#include "int8_oracle.h"
#include "nn/models.h"
#include "tensor/compress/compress.h"
#include "tensor/kernels.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"
#include "chaos_util.h"

namespace adasum {
namespace {

using simd::kF32;
using simd::KernelTable;
using simd::Level;

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 float scale = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0, 1)) * scale;
  return v;
}

template <typename T>
std::vector<T> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<T>(
        static_cast<float>((i * 2654435761u + salt) % 1000) / 1000.0f - 0.5f);
  return v;
}

template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

CompressionOptions make_opts(CompressionMode mode, std::size_t block_bytes,
                             bool stochastic) {
  CompressionOptions o;
  o.mode = mode;
  o.block_bytes = block_bytes;
  o.stochastic = stochastic;
  return o;
}

// Codec options that reproduce the per-tensor int8 of int8_oracle.h for
// every tensor of up to `max_elems` elements: one round-to-nearest int8
// block covering the tensor.
CompressionOptions per_tensor_int8(std::size_t max_elems) {
  return make_opts(CompressionMode::kInt8,
                   (max_elems + 7) / 8 * 8 * sizeof(float),
                   /*stochastic=*/false);
}

// Runs one mode's quantize+dequantize through a specific kernel table,
// returning the raw compressed stream and the reconstruction.
struct CodecRun {
  std::vector<float> scales;
  std::vector<std::uint8_t> payload;
  std::vector<float> decoded;
};

CodecRun run_table(const KernelTable& table, CompressionMode mode,
                   std::span<const float> src, std::size_t block,
                   std::uint32_t seed, bool stochastic) {
  const std::size_t n = src.size();
  const std::size_t blocks = (n + block - 1) / block;
  CodecRun r;
  r.scales.assign(blocks, -1.0f);
  r.payload.assign(compressed_payload_bytes(n, mode), 0xAB);
  r.decoded.assign(n, -1.0f);
  switch (mode) {
    case CompressionMode::kInt8:
      table.quantize_int8_blocks(src.data(), n, block, seed, stochastic,
                                 r.scales.data(),
                                 reinterpret_cast<std::int8_t*>(
                                     r.payload.data()));
      table.dequantize_int8_blocks(
          reinterpret_cast<const std::int8_t*>(r.payload.data()), n, block,
          r.scales.data(), r.decoded.data());
      break;
    case CompressionMode::kInt4:
      table.quantize_int4_blocks(src.data(), n, block, seed, stochastic,
                                 r.scales.data(), r.payload.data());
      table.dequantize_int4_blocks(r.payload.data(), n, block,
                                   r.scales.data(), r.decoded.data());
      break;
    case CompressionMode::kSign:
      table.quantize_sign_blocks(src.data(), n, block, r.scales.data(),
                                 r.payload.data());
      table.dequantize_sign_blocks(r.payload.data(), n, block,
                                   r.scales.data(), r.decoded.data());
      break;
    default:
      ADD_FAILURE() << "inactive mode in codec run";
  }
  return r;
}

constexpr CompressionMode kModes[] = {CompressionMode::kInt8,
                                      CompressionMode::kInt4,
                                      CompressionMode::kSign};

TEST(CompressKernels, ScalarVsAvx2BitParity) {
  const KernelTable* avx2 = simd::table_for(Level::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const KernelTable& scalar = simd::scalar_table();
  const std::size_t sizes[] = {1, 7, 8, 9, 31, 64, 255, 256, 1000, 4099};
  const std::size_t blocks[] = {8, 64, 256};
  int cases = 0;
  for (const std::size_t n : sizes) {
    // +1 slack so the offset run reads from a misaligned base pointer.
    const std::vector<float> data = random_floats(n + 1, 7000 + n);
    for (const std::size_t block : blocks) {
      for (const bool stochastic : {false, true}) {
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
          const std::span<const float> src(data.data() + offset, n);
          for (const CompressionMode mode : kModes) {
            if (mode == CompressionMode::kSign && stochastic) continue;
            const CodecRun s =
                run_table(scalar, mode, src, block, 0x1234u, stochastic);
            const CodecRun v =
                run_table(*avx2, mode, src, block, 0x1234u, stochastic);
            ASSERT_EQ(0, std::memcmp(s.scales.data(), v.scales.data(),
                                     s.scales.size() * sizeof(float)))
                << "scales diverge: mode=" << static_cast<int>(mode)
                << " n=" << n << " block=" << block << " sr=" << stochastic
                << " off=" << offset;
            ASSERT_EQ(s.payload, v.payload)
                << "payload diverges: mode=" << static_cast<int>(mode)
                << " n=" << n << " block=" << block << " sr=" << stochastic
                << " off=" << offset;
            ASSERT_EQ(0, std::memcmp(s.decoded.data(), v.decoded.data(),
                                     n * sizeof(float)))
                << "decode diverges: mode=" << static_cast<int>(mode)
                << " n=" << n << " block=" << block << " sr=" << stochastic
                << " off=" << offset;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 200);
}

// Regression for FMA contraction in the AVX2 quantize walk. That TU is
// built with -mfma and GCC contracts mul-then-add across intrinsics, so a
// walk that leaves x * inv feeding the stochastic-rounding add gets one
// fused multiply-add that skips the product's rounding. That moves a level
// only for a few elements per million, so short parity sweeps pass; this
// test compares scalar and AVX2 blobs over 2^20 elements per seed, for
// stochastic int8 and int4, with every seventh block scaled to denormals so
// the division fallback is covered too. Inputs are finite on purpose: NaN
// already diverges across ISAs (ROADMAP item 4).
TEST(CompressKernels, StochasticScalarVsAvx2BitParityOverLongStreams) {
  const KernelTable* avx2 = simd::table_for(Level::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const KernelTable& scalar = simd::scalar_table();
  const std::size_t n = std::size_t{1} << 20;
  const std::size_t block = 256;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::vector<float> data = random_floats(n, 9100 + seed);
    for (std::size_t s = 0; s < n; s += 7 * block)
      for (std::size_t i = s; i < std::min(n, s + block); ++i)
        data[i] *= 1e-40f;
    for (const CompressionMode mode :
         {CompressionMode::kInt8, CompressionMode::kInt4}) {
      const auto sr_seed = static_cast<std::uint32_t>(0x9E3779B9u + seed);
      const CodecRun s = run_table(scalar, mode, data, block, sr_seed, true);
      const CodecRun v = run_table(*avx2, mode, data, block, sr_seed, true);
      ASSERT_EQ(0, std::memcmp(s.scales.data(), v.scales.data(),
                               s.scales.size() * sizeof(float)))
          << "scales diverge: mode=" << compression_mode_name(mode)
          << " seed=" << seed;
      const auto diff =
          std::mismatch(s.payload.begin(), s.payload.end(), v.payload.begin());
      EXPECT_TRUE(diff.first == s.payload.end())
          << "payload diverges: mode=" << compression_mode_name(mode)
          << " seed=" << seed << " first differing byte "
          << (diff.first - s.payload.begin());
    }
  }
}

TEST(CompressCodec, AllZeroBlockStoresZeroScaleAndDecodesZeros) {
  for (const CompressionMode mode : kModes) {
    const CompressionOptions opts = make_opts(mode, 32, false);  // block = 8
    std::vector<float> src(24, 0.0f);
    std::vector<std::byte> wire(compressed_wire_bytes(src.size(), opts),
                                std::byte{0x5C});
    compress_f32(src, opts, wire.data());
    float scales[3];
    std::memcpy(scales, wire.data(), sizeof(scales));
    for (const float s : scales) EXPECT_EQ(s, 0.0f);
    std::vector<float> out(src.size(), -1.0f);
    decompress_f32(wire.data(), opts, out);
    for (const float x : out) EXPECT_EQ(x, 0.0f);
  }
}

TEST(CompressCodec, SingleOutlierOwnsItsBlockScale) {
  // One huge element: its block's scale follows the outlier (and stays
  // finite through the reciprocal fallback); other blocks keep their small
  // scale, so blockwise quantization does NOT flush them to zero — the
  // whole point of per-block scales.
  const CompressionOptions opts = make_opts(CompressionMode::kInt8, 32, false);
  std::vector<float> src(16, 0.25f);
  src[3] = 1e30f;
  std::vector<std::byte> wire(compressed_wire_bytes(src.size(), opts));
  compress_f32(src, opts, wire.data());
  float scales[2];
  std::memcpy(scales, wire.data(), sizeof(scales));
  EXPECT_FLOAT_EQ(scales[0], 1e30f / 127.0f);
  EXPECT_FLOAT_EQ(scales[1], 0.25f / 127.0f);
  std::vector<float> out(src.size());
  decompress_f32(wire.data(), opts, out);
  EXPECT_NEAR(out[3], 1e30f, 1e30f / 127.0f);
  for (std::size_t i = 8; i < 16; ++i)
    EXPECT_NEAR(out[i], 0.25f, 0.25f / 127.0f);
  // The outlier's block neighbors are casualties of its scale — they round
  // to 0 — but blocks beyond it are untouched.
  EXPECT_EQ(out[0], 0.0f);
}

TEST(CompressCodec, DenormalBlockMaxSurvivesReciprocalFallback) {
  // max|block| so small that 1/scale overflows to inf: the kernels fall back
  // to dividing by the max. Quantized values must stay finite and the max
  // element must reconstruct near itself.
  const float tiny = 1e-41f;  // subnormal
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4}) {
    const CompressionOptions opts = make_opts(mode, 32, false);
    std::vector<float> src(8, tiny / 2);
    src[0] = tiny;
    src[1] = -tiny;
    std::vector<std::byte> wire(compressed_wire_bytes(src.size(), opts));
    compress_f32(src, opts, wire.data());
    std::vector<float> out(src.size(), NAN);
    decompress_f32(wire.data(), opts, out);
    for (const float x : out) ASSERT_TRUE(std::isfinite(x));
    EXPECT_NEAR(out[0], tiny, tiny / 2);
    EXPECT_NEAR(out[1], -tiny, tiny / 2);
  }
}

TEST(CompressCodec, SignFollowsTheSignBitIncludingNegativeZero) {
  // The contract is sign-BIT based: -0.0 transfers as negative, +0.0 as
  // positive, so scalar and AVX2 (which movemasks the sign bit) agree
  // exactly.
  const CompressionOptions opts = make_opts(CompressionMode::kSign, 32, false);
  std::vector<float> src = {-0.0f, 0.5f, -0.5f, 1.0f, -1.0f, -0.0f, 0.0f,
                            0.25f};
  std::vector<std::byte> wire(compressed_wire_bytes(src.size(), opts));
  compress_f32(src, opts, wire.data());
  std::vector<float> out(src.size());
  decompress_f32(wire.data(), opts, out);
  float scale;
  std::memcpy(&scale, wire.data(), sizeof(float));
  EXPECT_GT(scale, 0.0f);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(std::abs(out[i]), scale) << "i=" << i;
    EXPECT_EQ(std::signbit(out[i]), std::signbit(src[i])) << "i=" << i;
  }
}

TEST(CompressCodec, RoundTripErrorBounds) {
  const std::size_t n = 4096;
  const std::vector<float> src = random_floats(n, 42);
  for (const CompressionMode mode : kModes) {
    for (const bool stochastic : {false, true}) {
      if (mode == CompressionMode::kSign && stochastic) continue;
      const CompressionOptions opts = make_opts(mode, 1024, stochastic);
      std::vector<std::byte> wire(compressed_wire_bytes(n, opts));
      compress_f32(src, opts, wire.data());
      std::vector<float> out(n);
      decompress_f32(wire.data(), opts, out);
      const std::size_t be = opts.block_elems();
      for (std::size_t b = 0; b * be < n; ++b) {
        float mx = 0.0f, mean_abs = 0.0f;
        const std::size_t lo = b * be, hi = std::min(n, lo + be);
        for (std::size_t i = lo; i < hi; ++i) {
          mx = std::max(mx, std::abs(src[i]));
          mean_abs += std::abs(src[i]);
        }
        mean_abs /= static_cast<float>(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          switch (mode) {
            case CompressionMode::kInt8:
              // RTN: half a step; SR: anywhere within one step.
              ASSERT_LE(std::abs(out[i] - src[i]),
                        (stochastic ? 1.0f : 0.51f) * mx / 127.0f)
                  << "i=" << i;
              break;
            case CompressionMode::kInt4:
              ASSERT_LE(std::abs(out[i] - src[i]),
                        (stochastic ? 1.0f : 0.51f) * mx / 7.0f)
                  << "i=" << i;
              break;
            case CompressionMode::kSign:
              // The kernel's mean uses a fixed 8-lane tree sum, so it can
              // differ from this naive loop by a few ulps.
              ASSERT_NEAR(std::abs(out[i]), mean_abs, 1e-5f * mean_abs)
                  << "i=" << i;
              break;
            default:
              break;
          }
        }
      }
    }
  }
}

TEST(CompressCodec, StochasticRoundingIsUnbiasedChiSquare) {
  // One block spanning the tensor; src[0] pins scale = 0.01, every other
  // element sits at 10.3 quantization steps, so SR must emit 11 with
  // probability 0.3. Chi-square with 1 dof at p = 0.001 is 10.83; the
  // counter-based hash is deterministic, so this either always passes or
  // flags a real bias.
  const std::size_t n = 10000;  // one 10000-element block (multiple of 8)
  const CompressionOptions opts =
      make_opts(CompressionMode::kInt8, n * sizeof(float), true);
  ASSERT_EQ(opts.block_elems(), n);
  std::vector<float> src(n, 0.103f);
  src[0] = 1.27f;
  std::vector<std::byte> wire(compressed_wire_bytes(n, opts));
  compress_f32(src, opts, wire.data());
  float scale;
  std::memcpy(&scale, wire.data(), sizeof(float));
  EXPECT_FLOAT_EQ(scale, 1.27f / 127.0f);
  const auto* q = reinterpret_cast<const std::int8_t*>(wire.data() +
                                                       sizeof(float));
  const double frac = 0.103 / 0.01 - 10.0;  // exact step fraction
  double up = 0;
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_TRUE(q[i] == 10 || q[i] == 11) << "i=" << i << " q=" << int{q[i]};
    up += q[i] == 11;
  }
  const double trials = static_cast<double>(n - 1);
  const double expected_up = frac * trials;
  const double chi =
      (up - expected_up) * (up - expected_up) / expected_up +
      (trials - up - (trials - expected_up)) *
          (trials - up - (trials - expected_up)) / (trials - expected_up);
  EXPECT_LT(chi, 10.83) << "up=" << up << " expected=" << expected_up;
}

TEST(CompressCodec, OneBlockRtnMatchesPerTensorOracle) {
  // Block covering the whole tensor + round-to-nearest reproduces the
  // per-tensor int8 oracle bit-for-bit: same scale, same quantized bytes,
  // same reconstruction. per_tensor_int8 sizes one block from a set's
  // largest tensor and compress_f32 writes the decoded values back. Each
  // set below shares one block size — lone tensors around the 8-element
  // block quantum, and LeNet-5's parameter tensors (both input sizes) —
  // checked through the public codec on the active table and through the
  // raw kernels of the active and scalar tables.
  std::vector<std::vector<std::size_t>> rounds;
  for (const std::size_t n : {1, 7, 8, 9, 1000, 65537}) rounds.push_back({n});
  for (const std::size_t hw : {16, 28}) {
    Rng rng(hw);
    const auto model = nn::make_lenet5(10, rng, /*relu=*/true, hw);
    rounds.emplace_back();
    for (const nn::Parameter* p : model->parameters())
      rounds.back().push_back(p->value.size());
  }
  const KernelTable* tables[] = {&simd::active_table(),
                                 simd::table_for(Level::kScalar)};
  std::uint64_t seed = 99;
  for (const std::vector<std::size_t>& sizes : rounds) {
    const CompressionOptions opts =
        per_tensor_int8(*std::max_element(sizes.begin(), sizes.end()));
    for (const std::size_t n : sizes) {
      SCOPED_TRACE("n=" + std::to_string(n) + " block=" +
                   std::to_string(opts.block_elems()));
      const std::vector<float> src = random_floats(n, seed++);
      const Int8Quantized oracle = quantize_int8(src);
      std::vector<float> theirs(n);
      dequantize_int8(oracle, theirs);

      std::vector<std::byte> wire(compressed_wire_bytes(n, opts));
      std::vector<float> ours(n);
      compress_f32(src, opts, wire.data(), ours);
      float scale;
      std::memcpy(&scale, wire.data(), sizeof(float));
      EXPECT_EQ(scale, oracle.scale);
      EXPECT_EQ(0, std::memcmp(wire.data() + sizeof(float),
                               oracle.data.data(), n));
      EXPECT_EQ(0, std::memcmp(ours.data(), theirs.data(), n * sizeof(float)));

      for (const KernelTable* t : tables) {
        const CodecRun r = run_table(*t, CompressionMode::kInt8, src,
                                     opts.block_elems(), opts.seed,
                                     opts.stochastic);
        ASSERT_EQ(r.scales.size(), 1u) << t->name;
        EXPECT_EQ(r.scales[0], oracle.scale) << t->name;
        EXPECT_EQ(0, std::memcmp(r.payload.data(), oracle.data.data(), n))
            << t->name;
        EXPECT_EQ(0, std::memcmp(r.decoded.data(), theirs.data(),
                                 n * sizeof(float)))
            << t->name;
      }
    }
  }
  // The writeback span must match the input length.
  const std::vector<float> src(9, 1.0f);
  std::vector<float> short_out(8);
  std::vector<std::byte> wire(compressed_wire_bytes(9, per_tensor_int8(9)));
  EXPECT_THROW(compress_f32(src, per_tensor_int8(9), wire.data(), short_out),
               CheckError);
}

TEST(CompressCodec, DeterministicAcrossCalls) {
  // The codec is a pure function of (bytes, options) — the property replica
  // consistency rests on. Two calls, two buffers, identical streams, and
  // both equal to one whole-span kernel call: the larger size spans several
  // of compress_f32's 32 KiB writeback tiles, so the stochastic seed rebase
  // per tile must reproduce the untiled hashes.
  for (const std::size_t n : {std::size_t{2048}, std::size_t{3 * 8192 + 5}}) {
    const std::vector<float> src = random_floats(n, 1234);
    for (const CompressionMode mode : kModes) {
      const CompressionOptions opts = make_opts(mode, 256, true);
      std::vector<std::byte> a(compressed_wire_bytes(n, opts),
                               std::byte{0x00});
      std::vector<std::byte> b(a.size(), std::byte{0xFF});
      compress_f32(src, opts, a.data());
      compress_f32(src, opts, b.data());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));
      const CodecRun whole =
          run_table(simd::active_table(), mode, src, opts.block_elems(),
                    opts.seed, opts.stochastic);
      const std::size_t scale_bytes = whole.scales.size() * sizeof(float);
      EXPECT_EQ(0, std::memcmp(a.data(), whole.scales.data(), scale_bytes))
          << "n=" << n << " mode=" << compression_mode_name(mode);
      EXPECT_EQ(0, std::memcmp(a.data() + scale_bytes, whole.payload.data(),
                               whole.payload.size()))
          << "n=" << n << " mode=" << compression_mode_name(mode);
    }
  }
}

// ADASUM_COMPRESS / ADASUM_COMPRESS_BLOCK read from the process environment:
// known values apply, anything else keeps the default (off, 1 KiB) instead
// of being half-parsed.
TEST(CompressCodec, FromEnvRejectsUnknownValues) {
  const EnvRestore restore_mode("ADASUM_COMPRESS");
  const EnvRestore restore_block("ADASUM_COMPRESS_BLOCK");
  const auto mode_for = [](const char* v) {
    setenv("ADASUM_COMPRESS", v, 1);
    return RuntimeConfig::from_env().compress;
  };
  EXPECT_EQ(mode_for("int8"), CompressionMode::kInt8);
  EXPECT_EQ(mode_for("int4"), CompressionMode::kInt4);
  EXPECT_EQ(mode_for("sign"), CompressionMode::kSign);
  EXPECT_EQ(mode_for("1bit"), CompressionMode::kSign);
  EXPECT_EQ(mode_for("off"), CompressionMode::kNone);
  EXPECT_EQ(mode_for("int-8"), CompressionMode::kNone);
  EXPECT_EQ(mode_for(""), CompressionMode::kNone);
  unsetenv("ADASUM_COMPRESS");
  EXPECT_EQ(RuntimeConfig::from_env().compress, CompressionMode::kNone);

  const std::size_t def = RuntimeConfig{}.compress_block;
  const auto block_for = [](const char* v) {
    setenv("ADASUM_COMPRESS_BLOCK", v, 1);
    return RuntimeConfig::from_env().compress_block;
  };
  EXPECT_EQ(block_for("4096"), 4096u);
  EXPECT_EQ(block_for("32"), 32u);
  for (const char* bad : {"-1", "4k", "0", "", " 64", "+64", "1e3",
                          "99999999999999999999999"})
    EXPECT_EQ(block_for(bad), def) << "ADASUM_COMPRESS_BLOCK=" << bad;
  unsetenv("ADASUM_COMPRESS_BLOCK");
  EXPECT_EQ(RuntimeConfig::from_env().compress_block, def);
}

// ---- fused decode-reduce: bitwise equal to the two-pass composition --------

struct FusedCase {
  CompressionMode mode;
  std::size_t block_elems;
  bool stochastic;
};

std::vector<FusedCase> fused_cases() {
  std::vector<FusedCase> cases;
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4, CompressionMode::kSign})
    for (const std::size_t be : {std::size_t{8}, std::size_t{32},
                                 std::size_t{256}})
      for (const bool sr : {false, true})
        cases.push_back({mode, be, sr});
  return cases;
}

std::vector<const KernelTable*> compiled_tables() {
  std::vector<const KernelTable*> tables{simd::table_for(Level::kScalar)};
  if (const KernelTable* avx2 = simd::table_for(Level::kAvx2))
    tables.push_back(avx2);
  return tables;
}

// Slice offsets and lengths around block edges: offsets inside, at and past
// a 256-element block boundary; lengths below, at and past one 8-lane group,
// one that straddles a block, and (kFusedRest) the rest of the stream.
constexpr std::size_t kFusedRest = ~std::size_t{0};
constexpr std::size_t kFusedLens[] = {0,   1,   7,   8,    9,         255,
                                      256, 257, 259, 1000, kFusedRest};
constexpr std::size_t kFusedOffsets[] = {0, 1, 3, 8, 17, 255, 256, 517};

// One encoded stream as the fused kernels see it: per-block scales and the
// packed payload, plus its two-pass decode from the table under test.
struct FusedStream {
  CompressionMode mode;
  std::size_t block;
  std::string label;
  std::size_t total;
  const float* scales;
  const std::byte* payload;
};

void run_fused_mode(const KernelTable& t, const FusedStream& st,
                    const std::vector<float>& dec) {
  const float* scales = st.scales;
  const std::byte* payload = st.payload;
  const std::size_t be = st.block;
  const auto bytes_of = [](const float* p) {
    return reinterpret_cast<const std::byte*>(p);
  };
  for (const std::size_t want : kFusedLens) {
    for (const std::size_t off : kFusedOffsets) {
      const std::size_t len = want == kFusedRest ? st.total - off : want;
      if (off + len > st.total) continue;
      SCOPED_TRACE("mode=" + std::string(compression_mode_name(st.mode)) +
                   " block=" + std::to_string(be) + " len=" +
                   std::to_string(len) + " off=" + std::to_string(off) +
                   " " + st.label + " table=" + t.name);
      // dequant_add vs dequantize-then-add from the same table.
      {
        const std::vector<float> dst0 = pattern<float>(len, 77);
        std::vector<float> ref = dst0, got = dst0;
        t.add[kF32](bytes_of(dec.data() + off),
                    reinterpret_cast<std::byte*>(ref.data()), len);
        switch (st.mode) {
          case CompressionMode::kInt8:
            t.dequant_add_int8(
                reinterpret_cast<const std::int8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          case CompressionMode::kInt4:
            t.dequant_add_int4(
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          default:
            t.dequant_add_sign(
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
        }
        EXPECT_TRUE(bytes_equal(ref, got)) << "dequant_add mismatch";
      }
      // dequant_combine vs dequantize-then-scaled_sum, both operand
      // positions, out aliasing other exactly (the RVH combine shape).
      for (const bool deq_is_b : {true, false}) {
        const double c_other = 0.9980469, c_deq = 1.0113281;
        const std::vector<float> other = pattern<float>(len, 99);
        std::vector<float> ref(len);
        const float* a = deq_is_b ? other.data() : dec.data() + off;
        const float* b = deq_is_b ? dec.data() + off : other.data();
        const double ca = deq_is_b ? c_other : c_deq;
        const double cb = deq_is_b ? c_deq : c_other;
        t.scaled_sum[kF32](bytes_of(a), ca, bytes_of(b), cb,
                           reinterpret_cast<std::byte*>(ref.data()), len);
        std::vector<float> got = other;  // out aliases other
        switch (st.mode) {
          case CompressionMode::kInt8:
            t.dequant_combine_int8(
                got.data(), c_other, c_deq, deq_is_b,
                reinterpret_cast<const std::int8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          case CompressionMode::kInt4:
            t.dequant_combine_int4(
                got.data(), c_other, c_deq, deq_is_b,
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          default:
            t.dequant_combine_sign(
                got.data(), c_other, c_deq, deq_is_b,
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
        }
        EXPECT_TRUE(bytes_equal(ref, got))
            << "dequant_combine mismatch, deq_is_b=" << deq_is_b;
      }
      // dequant_dot_triple vs dequantize-then-dot_triple, both operand
      // positions: the three doubles must match bit for bit.
      for (const bool deq_is_b : {true, false}) {
        const std::vector<float> other = pattern<float>(len, 123);
        const float* a = deq_is_b ? other.data() : dec.data() + off;
        const float* b = deq_is_b ? dec.data() + off : other.data();
        std::vector<double> ref(3), got(3);
        t.dot_triple[kF32](bytes_of(a), bytes_of(b), len, ref.data());
        switch (st.mode) {
          case CompressionMode::kInt8:
            t.dequant_dot_triple_int8(
                other.data(), deq_is_b,
                reinterpret_cast<const std::int8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          case CompressionMode::kInt4:
            t.dequant_dot_triple_int4(
                other.data(), deq_is_b,
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
          default:
            t.dequant_dot_triple_sign(
                other.data(), deq_is_b,
                reinterpret_cast<const std::uint8_t*>(payload), scales, off,
                len, be, got.data());
            break;
        }
        EXPECT_TRUE(bytes_equal(ref, got))
            << "dequant_dot_triple mismatch, deq_is_b=" << deq_is_b;
      }
    }
  }
}

// Decodes a whole stream with table `t`'s two-pass decoder.
std::vector<float> two_pass_decode(const KernelTable& t,
                                   const FusedStream& st) {
  std::vector<float> dec(st.total);
  const auto* p8 = reinterpret_cast<const std::int8_t*>(st.payload);
  const auto* pu = reinterpret_cast<const std::uint8_t*>(st.payload);
  switch (st.mode) {
    case CompressionMode::kInt8:
      t.dequantize_int8_blocks(p8, st.total, st.block, st.scales, dec.data());
      break;
    case CompressionMode::kInt4:
      t.dequantize_int4_blocks(pu, st.total, st.block, st.scales, dec.data());
      break;
    default:
      t.dequantize_sign_blocks(pu, st.total, st.block, st.scales, dec.data());
      break;
  }
  return dec;
}

// Every fused kernel equals the two-pass composition from its own table at
// every slice/block alignment. The codec's own blocks (8, 32 and 256
// elements, both rounding modes) come from compress_f32. Blocks of 1 and 3
// elements, below the codec's 8-element floor, come from synthetic streams
// (random levels and scales): there nearly every 8-lane group straddles a
// block, which drives the walks' per-element straddle path everywhere.
TEST(FusedKernels, MatchTwoPassBitwiseOnEveryCompiledTable) {
  const std::size_t total = 1536;
  const std::vector<float> src = pattern<float>(total, 5);
  for (const FusedCase& c : fused_cases()) {
    CompressionOptions opts;
    opts.mode = c.mode;
    opts.block_bytes = c.block_elems * sizeof(float);
    opts.stochastic = c.stochastic;
    ASSERT_EQ(opts.block_elems(), c.block_elems);
    std::vector<std::byte> blob(compressed_wire_bytes(total, opts));
    compress_f32(src, opts, blob.data());
    const FusedStream st{
        c.mode,
        c.block_elems,
        c.stochastic ? "sr" : "rne",
        total,
        reinterpret_cast<const float*>(blob.data()),
        blob.data() + compressed_num_blocks(total, opts) * sizeof(float)};
    for (const KernelTable* t : compiled_tables())
      run_fused_mode(*t, st, two_pass_decode(*t, st));
  }
  Rng rng(17);
  std::vector<std::byte> payload(total);
  for (std::byte& b : payload)
    b = static_cast<std::byte>(rng.uniform_int(256));
  for (std::byte& b : payload)  // int8 levels live in [-127, 127]
    if (b == std::byte{0x80}) b = std::byte{0};
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}}) {
    std::vector<float> scales((total + block - 1) / block);
    for (float& v : scales) v = static_cast<float>(rng.uniform(0.0, 2.0));
    scales[1] = 0.0f;
    for (const CompressionMode mode :
         {CompressionMode::kInt8, CompressionMode::kInt4,
          CompressionMode::kSign}) {
      const FusedStream st{mode,          block,         "synthetic",
                           total,         scales.data(), payload.data()};
      for (const KernelTable* t : compiled_tables())
        run_fused_mode(*t, st, two_pass_decode(*t, st));
    }
  }
}

// An empty slice reads nothing: not the payload, not even the scale of its
// offset's block. In the compressed RVH an empty half (p ranks, n < p
// elements) arrives as a 0-byte message that is read in place, so its
// "blob" is no memory at all. Every fused table entry and every public
// entry point must accept n = 0 with null pointers.
TEST(FusedKernels, EmptySliceTouchesNoBlob) {
  for (const KernelTable* t : compiled_tables()) {
    SCOPED_TRACE(t->name);
    for (const std::size_t off : {std::size_t{0}, std::size_t{300}}) {
      t->dequant_add_int8(nullptr, nullptr, off, 0, 256, nullptr);
      t->dequant_add_int4(nullptr, nullptr, off, 0, 256, nullptr);
      t->dequant_add_sign(nullptr, nullptr, off, 0, 256, nullptr);
      for (const bool deq_is_b : {true, false}) {
        t->dequant_combine_int8(nullptr, 0.5, 0.5, deq_is_b, nullptr, nullptr,
                                off, 0, 256, nullptr);
        t->dequant_combine_int4(nullptr, 0.5, 0.5, deq_is_b, nullptr, nullptr,
                                off, 0, 256, nullptr);
        t->dequant_combine_sign(nullptr, 0.5, 0.5, deq_is_b, nullptr, nullptr,
                                off, 0, 256, nullptr);
        double v[3] = {1.0, 1.0, 1.0};
        t->dequant_dot_triple_int8(nullptr, deq_is_b, nullptr, nullptr, off, 0,
                                   256, v);
        EXPECT_TRUE(v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0);
        t->dequant_dot_triple_int4(nullptr, deq_is_b, nullptr, nullptr, off, 0,
                                   256, v);
        EXPECT_TRUE(v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0);
        t->dequant_dot_triple_sign(nullptr, deq_is_b, nullptr, nullptr, off, 0,
                                   256, v);
        EXPECT_TRUE(v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0);
      }
    }
  }
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign}) {
    CompressionOptions opts;
    opts.mode = mode;
    decompress_add_f32(nullptr, opts, 700, 300, {});
    decompress_combine_f32(nullptr, opts, 700, 300, {}, 0.5, 0.5, true, {});
    const kernels::DotTriple d =
        decompress_dot_triple_f32(nullptr, opts, 700, 300, {}, false);
    EXPECT_TRUE(d.ab == 0.0 && d.aa == 0.0 && d.bb == 0.0);
  }
}

// The public fused entry points must match decompress + public add /
// scaled_sum (the dispatched composition the collectives replaced) — this is
// the exact substitution adasum_rvh.cpp and sum_allreduce.cpp perform.
TEST(FusedKernels, PublicEntryPointsMatchTwoPass) {
  const std::size_t total = 400001;  // many AVX2 decode tiles, ragged tail
  const std::vector<float> src = pattern<float>(total, 6);
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign}) {
    CompressionOptions opts;
    opts.mode = mode;
    std::vector<std::byte> blob(compressed_wire_bytes(total, opts));
    compress_f32(src, opts, blob.data());
    std::vector<float> dec(total);
    decompress_f32(blob.data(), opts, dec);

    std::vector<float> add_ref = pattern<float>(total, 7);
    std::vector<float> add_got = add_ref;
    kernels::add(std::span<const float>(dec), std::span<float>(add_ref));
    std::vector<float> comb_other = pattern<float>(total, 8);
    std::vector<float> comb_ref(total);
    kernels::scaled_sum(std::span<const float>(comb_other), 0.75,
                        std::span<const float>(dec), -1.25,
                        std::span<float>(comb_ref));
    decompress_add_f32(blob.data(), opts, total, 0, add_got);
    EXPECT_TRUE(bytes_equal(add_ref, add_got))
        << compression_mode_name(mode) << " add";
    std::vector<float> out = comb_other;
    decompress_combine_f32(blob.data(), opts, total, 0, out, 0.75, -1.25,
                           /*deq_is_b=*/true, out);
    EXPECT_TRUE(bytes_equal(comb_ref, out))
        << compression_mode_name(mode) << " combine";
    // The dot triple spans many of the AVX2 body's decode tiles here; one
    // call per operand slot suffices.
    const std::size_t off = 13;
    const std::span<const float> other(comb_other.data() + off, total - off);
    const std::span<const float> deq(dec.data() + off, total - off);
    for (const bool deq_is_b : {true, false}) {
      const kernels::DotTriple ref =
          deq_is_b ? kernels::dot_triple(other, deq)
                   : kernels::dot_triple(deq, other);
      const kernels::DotTriple got = decompress_dot_triple_f32(
          blob.data(), opts, total, off, other, deq_is_b);
      EXPECT_EQ(0, std::memcmp(&ref, &got, sizeof ref))
          << compression_mode_name(mode) << " dot triple deq_is_b "
          << deq_is_b;
    }
  }
}

// compress_f32's `decoded` output must be exactly compress-then-
// decompress_f32, into a separate buffer and in place, with the blob itself
// unchanged. The payload covers the hostile blocks too — NaN, ±Inf, a
// denormal maximum (the reciprocal fallback) and all zeros — because the
// writeback decodes the blob it just wrote rather than recomputing levels.
// Sizes span several 32 KiB writeback tiles and a block larger than one
// tile.
TEST(FusedKernels, CompressWritebackMatchesCompressThenDecompress) {
  const std::size_t total = 300001;  // many writeback tiles, ragged tail
  std::vector<float> src = pattern<float>(total, 9);
  const auto fill = [&](std::size_t at, std::size_t len, float v) {
    std::fill_n(src.begin() + static_cast<std::ptrdiff_t>(at), len, v);
  };
  fill(4096, 256, 0.0f);
  fill(9216, 256, 1e-40f);
  src[20003] = std::numeric_limits<float>::quiet_NaN();
  src[40000] = std::numeric_limits<float>::infinity();
  src[40001] = -std::numeric_limits<float>::infinity();
  src[123457] = -std::numeric_limits<float>::quiet_NaN();
  src[total - 1] = std::numeric_limits<float>::infinity();
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign}) {
    for (const std::size_t block_bytes :
         {std::size_t{32}, std::size_t{1024}, std::size_t{65536}}) {
      for (const bool sr : {false, true}) {
        CompressionOptions opts;
        opts.mode = mode;
        opts.block_bytes = block_bytes;
        opts.stochastic = sr;
        const std::size_t wire = compressed_wire_bytes(total, opts);
        std::vector<std::byte> ref_blob(wire);
        std::vector<float> ref_dec(total);
        compress_f32(src, opts, ref_blob.data());
        decompress_f32(ref_blob.data(), opts, ref_dec);
        SCOPED_TRACE(std::string(compression_mode_name(mode)) + " block " +
                     std::to_string(block_bytes) + (sr ? " sr" : " rne"));
        std::vector<std::byte> blob(wire);
        std::vector<float> dec(total);
        compress_f32(src, opts, blob.data(), dec);
        EXPECT_TRUE(bytes_equal(ref_blob, blob)) << "separate: blob";
        EXPECT_TRUE(bytes_equal(ref_dec, dec)) << "separate: decoded";
        std::vector<float> inplace = src;
        std::vector<std::byte> blob2(wire);
        compress_f32(inplace, opts, blob2.data(), inplace);
        EXPECT_TRUE(bytes_equal(ref_blob, blob2)) << "aliased: blob";
        EXPECT_TRUE(bytes_equal(ref_dec, inplace)) << "aliased: decoded";
      }
    }
  }
}

// ---- compressed collectives ------------------------------------------------

// gtest prints a CollectiveCase as its raw bytes, and those bytes become part
// of the test names. The struct therefore has no padding: padding would carry
// stack garbage into the names, which under ASLR differs from one run to the
// next.
struct CollectiveCase {
  AllreduceAlgo algo;
  ReduceOp op;
  std::int64_t ranks;
  std::size_t count;
  CompressionMode mode;
  bool pipeline;
  std::int16_t ranks_per_node = 1;
  std::int32_t unused = 0;
};
static_assert(std::has_unique_object_representations_v<CollectiveCase>);

class CompressedCollectivesTest
    : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CompressedCollectivesTest, AllRanksEndBitIdentical) {
  const CollectiveCase c = GetParam();
  World world(static_cast<int>(c.ranks));
  if (c.pipeline) {
    PipelineOptions pipe;
    pipe.enabled = true;
    pipe.chunk_bytes = 512;  // many chunks even for small payloads
    world.set_pipeline(pipe);
  }
  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < c.ranks; ++r)
    inputs.push_back(random_floats(c.count, 500 + static_cast<unsigned>(r)));
  std::vector<std::vector<float>> outputs(
      static_cast<std::size_t>(c.ranks));
  world.run([&](Comm& comm) {
    Tensor t(std::vector<std::size_t>{c.count}, DType::kFloat32);
    const auto& in = inputs[static_cast<std::size_t>(comm.rank())];
    std::memcpy(t.data(), in.data(), c.count * sizeof(float));
    AllreduceOptions opts;
    opts.op = c.op;
    opts.algo = c.algo;
    opts.ranks_per_node = c.ranks_per_node;
    opts.compression.mode = c.mode;
    allreduce(comm, t, opts, /*tag_base=*/0);
    const auto v = t.span<float>();
    outputs[static_cast<std::size_t>(comm.rank())].assign(v.begin(),
                                                          v.end());
  });
  for (int r = 1; r < c.ranks; ++r)
    ASSERT_EQ(0, std::memcmp(outputs[0].data(),
                             outputs[static_cast<std::size_t>(r)].data(),
                             c.count * sizeof(float)))
        << "rank " << r << " diverged from rank 0";

  // Compressed sums must stay NEAR the exact sum (lossy, but bounded): the
  // int8 grid is ~1/254 of each transfer's block max per hop.
  if (c.op == ReduceOp::kSum && c.mode == CompressionMode::kInt8) {
    std::vector<double> exact(c.count, 0.0);
    for (const auto& in : inputs)
      for (std::size_t i = 0; i < c.count; ++i) exact[i] += in[i];
    double num = 0, den = 0;
    for (std::size_t i = 0; i < c.count; ++i) {
      const double d = outputs[0][i] - exact[i];
      num += d * d;
      den += exact[i] * exact[i];
    }
    EXPECT_LT(std::sqrt(num / den), 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedCollectivesTest,
    ::testing::Values(
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 2, 255,
                       CompressionMode::kInt8, false},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 4, 1024,
                       CompressionMode::kInt8, true},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 8, 257,
                       CompressionMode::kInt4, false},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 4, 4096,
                       CompressionMode::kSign, true},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kSum, 4, 1000,
                       CompressionMode::kInt8, false},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kSum, 8, 4096,
                       CompressionMode::kInt8, true},
        CollectiveCase{AllreduceAlgo::kRing, ReduceOp::kSum, 3, 1000,
                       CompressionMode::kInt8, false},
        CollectiveCase{AllreduceAlgo::kRing, ReduceOp::kSum, 5, 2048,
                       CompressionMode::kInt8, true},
        CollectiveCase{AllreduceAlgo::kRing, ReduceOp::kSum, 4, 513,
                       CompressionMode::kInt4, false},
        CollectiveCase{AllreduceAlgo::kHierarchical, ReduceOp::kAdasum, 8,
                       1024, CompressionMode::kInt8, false, 2},
        CollectiveCase{AllreduceAlgo::kHierarchical, ReduceOp::kSum, 8, 777,
                       CompressionMode::kInt8, true, 4},
        // RVH unwind sub-blob edge cases: count < p leaves some final
        // segments (and their sub-blobs) empty; at p = 16 a ragged count
        // over 512-byte chunks streams runs whose chunk boundaries cross
        // sub-blob boundaries; hierarchical Adasum runs the executor over
        // its cross-node group.
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 4, 3,
                       CompressionMode::kInt8, false},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kSum, 4, 3,
                       CompressionMode::kSign, true},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kAdasum, 16, 5001,
                       CompressionMode::kInt8, true},
        CollectiveCase{AllreduceAlgo::kRvh, ReduceOp::kSum, 16, 4099,
                       CompressionMode::kInt4, true},
        CollectiveCase{AllreduceAlgo::kHierarchical, ReduceOp::kAdasum, 16,
                       3001, CompressionMode::kSign, true, 2}),
    [](const auto& param_info) {
      const CollectiveCase& c = param_info.param;
      std::string name = c.algo == AllreduceAlgo::kRvh    ? "rvh"
                         : c.algo == AllreduceAlgo::kRing ? "ring"
                                                          : "hier";
      name += c.op == ReduceOp::kAdasum ? "_adasum" : "_sum";
      name += "_r" + std::to_string(c.ranks) + "_n" +
              std::to_string(c.count) + "_";
      name += compression_mode_name(c.mode);
      if (c.pipeline) name += "_pipe";
      return name;
    });

// Serial simulation of compressed sum RVH under the owner-encodes-once
// unwind: at each level every rank's sent half is encoded and fused
// decode-added into its partner's kept half; then each rank's final segment
// is encoded ONCE, and that one blob's decode is every rank's copy of it.
std::vector<float> simulate_compressed_rvh_sum(
    std::vector<std::vector<float>> bufs, const CompressionOptions& comp) {
  const std::size_t p = bufs.size();
  const std::size_t count = bufs[0].size();
  std::vector<std::size_t> begin(p, 0);
  std::vector<std::size_t> len(p, count);
  for (std::size_t d = 1; d < p; d *= 2) {
    std::vector<std::vector<std::byte>> blobs(p);
    for (std::size_t r = 0; r < p; ++r) {
      const bool left = (r / d) % 2 == 0;
      const std::size_t mid = len[r] / 2;
      const std::size_t sb = left ? begin[r] + mid : begin[r];
      const std::size_t sn = left ? len[r] - mid : mid;
      blobs[r].resize(compressed_wire_bytes(sn, comp));
      if (sn > 0) compress_f32({bufs[r].data() + sb, sn}, comp, blobs[r].data());
    }
    for (std::size_t r = 0; r < p; ++r) {
      const bool left = (r / d) % 2 == 0;
      const std::size_t mid = len[r] / 2;
      if (!left) begin[r] += mid;
      len[r] = left ? mid : len[r] - mid;
      const std::size_t partner = left ? r + d : r - d;
      if (len[r] > 0)
        decompress_add_f32(blobs[partner].data(), comp, len[r], 0,
                           {bufs[r].data() + begin[r], len[r]});
    }
  }
  std::vector<float> out(count);
  for (std::size_t r = 0; r < p; ++r) {
    if (len[r] == 0) continue;
    std::vector<std::byte> blob(compressed_wire_bytes(len[r], comp));
    compress_f32({bufs[r].data() + begin[r], len[r]}, comp, blob.data());
    decompress_f32(blob.data(), comp, {out.data() + begin[r], len[r]});
  }
  return out;
}

// The compressed RVH contract: every final segment is the decode of its
// owner's single blob, on every rank. The unwind is reducer-independent
// executor code, so the sum pins Adasum's unwind too. A count that is no
// block multiple gives ragged final segments whose sub-blobs need padding.
TEST(CompressedRvh, FinalSegmentsAreTheOwnersSingleBlob) {
  const std::size_t count = 3001;
  for (const CompressionMode mode : kModes) {
    const CompressionOptions comp = make_opts(mode, 1024, /*stochastic=*/true);
    for (const int p : {2, 4, 8}) {
      SCOPED_TRACE(std::string(compression_mode_name(mode)) + " p=" +
                   std::to_string(p));
      std::vector<std::vector<float>> inputs;
      for (int r = 0; r < p; ++r)
        inputs.push_back(random_floats(count, 1700 + static_cast<unsigned>(r)));
      const std::vector<float> expected =
          simulate_compressed_rvh_sum(inputs, comp);
      std::vector<std::vector<float>> outputs(static_cast<std::size_t>(p));
      World world(p);
      world.run([&](Comm& comm) {
        std::vector<float> v = inputs[static_cast<std::size_t>(comm.rank())];
        rvh_allreduce_sum(comm, reinterpret_cast<std::byte*>(v.data()), count,
                          DType::kFloat32, /*tag_base=*/0, {}, comp);
        outputs[static_cast<std::size_t>(comm.rank())] = std::move(v);
      });
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(0, std::memcmp(expected.data(),
                                 outputs[static_cast<std::size_t>(r)].data(),
                                 count * sizeof(float)))
            << "rank " << r << " differs from the owner-encodes-once result";
    }
  }
}

TEST(CompressedCollectives, NonF32PayloadsPassThroughUncompressed) {
  // The codec is fp32-only; an f64 allreduce under a world-level compression
  // default must still be EXACT.
  const int ranks = 4;
  const std::size_t count = 333;
  World world(ranks);
  CompressionOptions comp;
  comp.mode = CompressionMode::kInt8;
  world.set_compression(comp);
  std::vector<std::vector<double>> inputs;
  for (int r = 0; r < ranks; ++r) {
    Rng rng(900 + static_cast<unsigned>(r));
    std::vector<double> v(count);
    for (auto& x : v) x = rng.normal(0, 1);
    inputs.push_back(std::move(v));
  }
  std::vector<double> expected(count, 0.0);
  for (const auto& in : inputs)
    for (std::size_t i = 0; i < count; ++i) expected[i] += in[i];
  world.run([&](Comm& comm) {
    Tensor t(std::vector<std::size_t>{count}, DType::kFloat64);
    std::memcpy(t.data(),
                inputs[static_cast<std::size_t>(comm.rank())].data(),
                count * sizeof(double));
    AllreduceOptions opts;
    opts.op = ReduceOp::kSum;
    opts.algo = AllreduceAlgo::kRvh;
    allreduce(comm, t, opts, 0);
    const auto v = t.span<double>();
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(v[i], expected[i], 1e-9) << "i=" << i;
  });
}

TEST(CompressedCollectives, WarmCompressedIterationsMakeNoPoolAllocations) {
  const int ranks = 4;
  const std::size_t count = 4096;
  const int steady_iters = 10;
  World world(ranks);
  CompressionOptions comp;
  comp.mode = CompressionMode::kInt8;
  world.set_compression(comp);
  BufferPool::Stats warm{};
  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < ranks; ++r)
    inputs.push_back(random_floats(count, 116 + static_cast<unsigned>(r)));
  world.run([&](Comm& comm) {
    Tensor t(std::vector<std::size_t>{count}, DType::kFloat32);
    std::memcpy(t.data(),
                inputs[static_cast<std::size_t>(comm.rank())].data(),
                count * sizeof(float));
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    allreduce(comm, t, opts, 0);
    rvh_allreduce_sum(comm, t, 1 << 16);
    comm.barrier();
    if (comm.rank() == 0) {
      // The uncompressed worst case (halves + in-flight sends, see the
      // ZeroCopy tests) plus the WireCompressor's two blob slots per rank
      // per collective call.
      BufferPool& pool = world.buffer_pool();
      std::vector<std::vector<std::byte>> held;
      CompressionOptions blob_opts;
      blob_opts.mode = CompressionMode::kInt8;
      const std::size_t half = (count + 1) / 2;
      for (int i = 0; i < 8 * ranks; ++i)
        held.push_back(pool.acquire(half * sizeof(float)));
      for (int i = 0; i < 4 * ranks; ++i)
        held.push_back(
            pool.acquire(compressed_wire_bytes(half, blob_opts)));
      for (int i = 0; i < 8 * ranks; ++i) held.push_back(pool.acquire(128));
      for (auto& b : held) pool.release(std::move(b));
      pool.reset_stats();
    }
    comm.barrier();
    for (int it = 1; it <= steady_iters; ++it) {
      allreduce(comm, t, opts, (2 * it) << 16);
      rvh_allreduce_sum(comm, t, (2 * it + 1) << 16);
    }
    comm.barrier();
    if (comm.rank() == 0) warm = world.buffer_pool().stats();
  });
  EXPECT_EQ(warm.allocations, 0u)
      << "steady-state compressed allreduces allocated " << warm.allocations
      << " new buffers (reuses=" << warm.reuses << ")";
  EXPECT_GT(warm.reuses, 0u);
}

TEST(CompressedCollectives, StrictAnalyzerValidatesCompressedSchedules) {
  // The EpochGuard declarations account compressed wire bytes through the
  // same wire_transfer_bytes() formula the transfers use; a drift would
  // surface here as a schedule violation, not a hang.
  const int ranks = 4;
  const std::size_t count = 2048;
  World world(ranks);
  world.enable_analyzer();
  CompressionOptions comp;
  comp.mode = CompressionMode::kInt8;
  world.set_compression(comp);
  world.run([&](Comm& comm) {
    Tensor t(std::vector<std::size_t>{count}, DType::kFloat32);
    auto in = random_floats(count, 60 + static_cast<unsigned>(comm.rank()));
    std::memcpy(t.data(), in.data(), count * sizeof(float));
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    allreduce(comm, t, opts, 0);
    rvh_allreduce_sum(comm, t, 1 << 16);
    ring_allreduce_sum(comm, t, 2 << 16);
  });
  ASSERT_NE(world.analyzer(), nullptr);
  EXPECT_FALSE(world.analyzer()->has_violations());
  EXPECT_GT(world.analyzer()->epochs_validated(), 0u);
  EXPECT_FALSE(world.analyzer()->deadlock_detected());
}

TEST(CompressedCollectives, CorruptionStillDetectedWithCompressionOn) {
  // Compressed blobs are ordinary byte messages: per-message checksums must
  // keep tripping on injected bit flips, and the resilient wrapper must
  // skip the round with the input intact.
  const int p = 2;
  const std::size_t count = 64;
  World world(p);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::milliseconds(100);
  ft.max_recovery_attempts = 2;
  world.enable_fault_tolerance(ft);
  world.enable_checksums(true);
  CompressionOptions comp;
  comp.mode = CompressionMode::kInt8;
  world.set_compression(comp);
  FaultSpec spec;
  spec.corrupt_prob = 1.0;
  world.set_fault_injector(std::make_shared<FaultInjector>(p, spec));

  std::vector<ResilientResult> res(p);
  std::vector<std::vector<float>> after(p);
  std::mutex mutex;
  const chaos::WatchdogResult wr = chaos::run_with_watchdog(
      world,
      [&](Comm& comm) {
        Tensor t(std::vector<std::size_t>{count}, DType::kFloat32);
        auto in =
            random_floats(count, 800 + static_cast<unsigned>(comm.rank()));
        std::memcpy(t.data(), in.data(), count * sizeof(float));
        AllreduceOptions opts;
        opts.op = ReduceOp::kAdasum;
        opts.algo = AllreduceAlgo::kRvh;
        const ResilientResult r = resilient_allreduce(comm, t, opts);
        std::lock_guard<std::mutex> lock(mutex);
        res[static_cast<std::size_t>(comm.rank())] = r;
        const auto v = t.span<float>();
        after[static_cast<std::size_t>(comm.rank())].assign(v.begin(),
                                                            v.end());
      },
      std::chrono::seconds(20));
  ASSERT_FALSE(wr.watchdog_fired);
  ASSERT_FALSE(static_cast<bool>(wr.error));
  EXPECT_GE(world.corruptions_detected(), 1u);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(static_cast<int>(res[static_cast<std::size_t>(r)].outcome),
              static_cast<int>(ReduceOutcome::kSkipped));
    const auto in = random_floats(count, 800 + static_cast<unsigned>(r));
    EXPECT_EQ(0, std::memcmp(after[static_cast<std::size_t>(r)].data(),
                             in.data(), count * sizeof(float)))
        << "rank " << r << " input not restored after skipped round";
  }
}

}  // namespace
}  // namespace adasum
