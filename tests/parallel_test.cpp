// Tests for the intra-op parallel reduction engine (src/tensor/parallel/,
// DESIGN.md §17) and the fused dequantize-reduce kernels.
//
// The load-bearing property everywhere: BIT-DETERMINISM. The tile
// decomposition is a pure function of (n, grain, quantum) — never of the
// thread count — and callers pick quanta that preserve each element's exact
// instruction path, so every ADASUM_THREADS setting (off included) produces
// byte-identical results. Layers of coverage:
//  * Tiling decomposition invariants (alignment, coverage, purity).
//  * Pool mechanics: every tile runs exactly once at every width, nested
//    submission degrades to serial instead of deadlocking.
//  * Kernel wrappers and the wire codec: tiled output memcmp-equal to the
//    monolithic output for f32/f64/f16 payloads at every pool width.
//  * Fused decode-reduce kernels: bitwise equal to dequantize-then-add /
//    dequantize-then-scaled_sum / dequantize-then-dot_triple composed from
//    the SAME kernel table, across modes, block sizes, stochastic rounding,
//    ragged tails, slice offsets, operand positions and exact aliasing — on
//    every compiled table. compress_f32's decoded writeback is bitwise
//    compress-then-decompress, in place and not, hostile blocks included.
//  * Full collectives: AdasumRVH and the compressed sums bit-identical
//    across pool widths, with zero steady-state pool allocations.
//  * A 40-schedule seeded chaos sweep under ADASUM_THREADS=2 with delay
//    jitter, each schedule watchdogged and compared against the serial run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/half.h"
#include "base/rng.h"
#include "collectives/adasum_rvh.h"
#include "collectives/sum_allreduce.h"
#include "comm/fault_injector.h"
#include "comm/world.h"
#include "tensor/compress/compress.h"
#include "tensor/kernels.h"
#include "tensor/parallel/pool.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"
#include "chaos_util.h"

namespace adasum {
namespace {

using simd::kF32;
using simd::KernelTable;
using simd::Level;

// Every test leaves the engine the way the suite found it (off by default):
// later tests in this binary must not inherit a pool width.
struct PoolGuard {
  ~PoolGuard() { parallel::configure(0); }
};

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
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// ---- tiling decomposition --------------------------------------------------

TEST(Tiling, BoundariesAreQuantumAlignedAndCoverTheRange) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{1000}, std::size_t{262144},
                              std::size_t{262147}}) {
    for (const std::size_t quantum : {std::size_t{1}, std::size_t{16},
                                      std::size_t{2048}}) {
      const parallel::Tiling t = parallel::tiles_for(n, 1024, quantum);
      ASSERT_GE(t.count, 1u);
      ASSERT_LE(t.count, parallel::kMaxTiles);
      std::size_t prev_end = 0;
      for (std::size_t i = 0; i < t.count; ++i) {
        EXPECT_EQ(t.begin(i), prev_end) << "tiles must tile the range";
        EXPECT_LE(t.begin(i), t.end(i));
        if (i + 1 < t.count) {
          EXPECT_EQ(t.end(i) % quantum, 0u)
              << "interior boundary off-quantum at n=" << n;
        }
        prev_end = t.end(i);
      }
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(Tiling, DecompositionIgnoresPoolWidth) {
  PoolGuard guard;
  const parallel::Tiling base = parallel::tiles_for(100000, 4096, 16);
  for (const int width : {0, 1, 2, 7}) {
    parallel::configure(width);
    const parallel::Tiling t = parallel::tiles_for(100000, 4096, 16);
    EXPECT_EQ(t.count, base.count);
    for (std::size_t i = 0; i < t.count; ++i) {
      EXPECT_EQ(t.begin(i), base.begin(i));
      EXPECT_EQ(t.end(i), base.end(i));
    }
  }
}

TEST(Tiling, RespectsGrainFloor) {
  const parallel::Tiling t = parallel::tiles_for(100, 64, 1);
  EXPECT_EQ(t.count, 1u);  // 100/64 -> a single tile, not two tiny ones
  const parallel::Tiling big = parallel::tiles_for(1u << 20, 1, 1);
  EXPECT_EQ(big.count, parallel::kMaxTiles);
}

// ---- pool mechanics --------------------------------------------------------

TEST(Pool, EveryTileRunsExactlyOnceAtEveryWidth) {
  PoolGuard guard;
  const std::size_t n = 100003;
  std::vector<std::vector<std::size_t>> runs;  // (begin, end) per tile index
  for (const int width : {0, 1, 2, 4}) {
    parallel::configure(width);
    std::vector<std::atomic<int>> hits(parallel::kMaxTiles);
    for (auto& h : hits) h.store(0);
    std::vector<std::size_t> spans(2 * parallel::kMaxTiles, 0);
    parallel::for_tiles(n, 1024, 16,
                        [&](std::size_t tile, std::size_t b, std::size_t e) {
                          hits[tile].fetch_add(1);
                          spans[2 * tile] = b;
                          spans[2 * tile + 1] = e;
                        });
    const parallel::Tiling t = parallel::tiles_for(n, 1024, 16);
    for (std::size_t i = 0; i < t.count; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "tile " << i << " at width " << width;
    runs.push_back(std::move(spans));
  }
  for (std::size_t r = 1; r < runs.size(); ++r)
    EXPECT_EQ(runs[r], runs[0]) << "tile spans drifted across widths";
}

TEST(Pool, NestedSubmissionDegradesToSerial) {
  PoolGuard guard;
  parallel::configure(2);
  std::atomic<std::size_t> total{0};
  parallel::for_tiles(10000, 100, 1,
                      [&](std::size_t, std::size_t b, std::size_t e) {
                        // A nested parallel_for must run serially on this
                        // thread (the job lock is held), not deadlock.
                        parallel::for_tiles(
                            e - b, 16, 1,
                            [&](std::size_t, std::size_t ib, std::size_t ie) {
                              total.fetch_add(ie - ib);
                            });
                      });
  EXPECT_EQ(total.load(), 10000u);
}

TEST(Pool, ConfigureControlsEnabledState) {
  PoolGuard guard;
  parallel::configure(0);
  EXPECT_EQ(parallel::threads(), 0);
  EXPECT_FALSE(parallel::enabled());
  parallel::configure(3);
  EXPECT_EQ(parallel::threads(), 3);
  EXPECT_TRUE(parallel::enabled());
  parallel::configure(parallel::kMaxThreads + 5);
  EXPECT_EQ(parallel::threads(), parallel::kMaxThreads);
}

// ---- kernel wrappers: tiled == monolithic ----------------------------------

template <typename T>
void elementwise_parity(std::size_t n) {
  PoolGuard guard;
  const std::vector<T> a = pattern<T>(n, 1);
  const std::vector<T> b = pattern<T>(n, 2);
  struct Result {
    std::vector<T> add, scale, axpy, scaled_sum;
    kernels::DotTriple triple;
  };
  auto run = [&]() {
    Result r;
    r.add = a;
    kernels::add(std::span<const T>(b), std::span<T>(r.add));
    r.scale = a;
    kernels::scale(1.0625, std::span<T>(r.scale));
    r.axpy = a;
    kernels::axpy(-0.75, std::span<const T>(b), std::span<T>(r.axpy));
    r.scaled_sum.resize(n);
    kernels::scaled_sum(std::span<const T>(a), 0.9980469, std::span<const T>(b),
                        1.0113281, std::span<T>(r.scaled_sum));
    r.triple = kernels::dot_triple(std::span<const T>(a), std::span<const T>(b));
    return r;
  };
  parallel::configure(0);
  const Result serial = run();
  for (const int width : {1, 2, 4}) {
    parallel::configure(width);
    const Result tiled = run();
    EXPECT_TRUE(bytes_equal(serial.add, tiled.add)) << "add width " << width;
    EXPECT_TRUE(bytes_equal(serial.scale, tiled.scale))
        << "scale width " << width;
    EXPECT_TRUE(bytes_equal(serial.axpy, tiled.axpy)) << "axpy width " << width;
    EXPECT_TRUE(bytes_equal(serial.scaled_sum, tiled.scaled_sum))
        << "scaled_sum width " << width;
    // Dot wrappers stay monolithic at every setting; identical bits required.
    EXPECT_EQ(serial.triple.ab, tiled.triple.ab);
    EXPECT_EQ(serial.triple.aa, tiled.triple.aa);
    EXPECT_EQ(serial.triple.bb, tiled.triple.bb);
  }
}

TEST(KernelTiling, Float32WrappersBitIdenticalAcrossWidths) {
  elementwise_parity<float>(400003);  // ~1.5 MiB, ragged tail
}
TEST(KernelTiling, Float64WrappersBitIdenticalAcrossWidths) {
  elementwise_parity<double>(200005);
}
TEST(KernelTiling, HalfWrappersBitIdenticalAcrossWidths) {
  elementwise_parity<Half>(600007);  // f16 quantum is the 2048-element tile
}

TEST(KernelTiling, StreamCopyBitIdenticalAcrossWidths) {
  PoolGuard guard;
  const std::size_t bytes = 8u << 20;  // above the 4 MiB split threshold
  const std::vector<float> src = pattern<float>(bytes / sizeof(float), 3);
  std::vector<float> serial(src.size()), tiled(src.size());
  parallel::configure(0);
  kernels::stream_copy_bytes(reinterpret_cast<const std::byte*>(src.data()),
                             reinterpret_cast<std::byte*>(serial.data()),
                             bytes);
  for (const int width : {2, 4}) {
    parallel::configure(width);
    std::fill(tiled.begin(), tiled.end(), 0.0f);
    kernels::stream_copy_bytes(reinterpret_cast<const std::byte*>(src.data()),
                               reinterpret_cast<std::byte*>(tiled.data()),
                               bytes);
    EXPECT_TRUE(bytes_equal(serial, tiled)) << "width " << width;
  }
}

TEST(CodecTiling, CompressedStreamsBitIdenticalAcrossWidths) {
  PoolGuard guard;
  const std::size_t n = 400001;  // > 1 MiB of f32, ragged final block
  const std::vector<float> src = pattern<float>(n, 4);
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign}) {
    CompressionOptions opts;
    opts.mode = mode;
    std::vector<std::byte> serial_blob(compressed_wire_bytes(n, opts));
    std::vector<float> serial_dec(n);
    parallel::configure(0);
    compress_f32(src, opts, serial_blob.data());
    decompress_f32(serial_blob.data(), opts, serial_dec);
    for (const int width : {1, 2, 4}) {
      parallel::configure(width);
      std::vector<std::byte> blob(serial_blob.size());
      std::vector<float> dec(n);
      compress_f32(src, opts, blob.data());
      decompress_f32(blob.data(), opts, dec);
      EXPECT_EQ(0, std::memcmp(serial_blob.data(), blob.data(), blob.size()))
          << "mode " << compression_mode_name(mode) << " width " << width;
      EXPECT_TRUE(bytes_equal(serial_dec, dec))
          << "mode " << compression_mode_name(mode) << " width " << width;
    }
  }
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

constexpr std::size_t kFusedLens[] = {1, 7, 8, 9, 255, 256, 257, 1000};
constexpr std::size_t kFusedOffsets[] = {0, 1, 3, 8, 17};

void run_fused_mode(const KernelTable& t, const CompressionOptions& opts,
                    std::size_t total, const std::byte* blob,
                    const std::vector<float>& dec) {
  const std::size_t blocks = compressed_num_blocks(total, opts);
  const auto* scales = reinterpret_cast<const float*>(blob);
  const std::byte* payload = blob + blocks * sizeof(float);
  const std::size_t be = opts.block_elems();
  const auto bytes_of = [](const float* p) {
    return reinterpret_cast<const std::byte*>(p);
  };
  for (const std::size_t len : kFusedLens) {
    for (const std::size_t off : kFusedOffsets) {
      if (off + len > total) continue;
      SCOPED_TRACE("mode=" + std::string(compression_mode_name(opts.mode)) +
                   " block=" + std::to_string(be) + " len=" +
                   std::to_string(len) + " off=" + std::to_string(off) +
                   (opts.stochastic ? " sr" : " rne") + " table=" + t.name);
      // dequant_add vs dequantize-then-add from the same table.
      {
        const std::vector<float> dst0 = pattern<float>(len, 77);
        std::vector<float> ref = dst0, got = dst0;
        t.add[kF32](bytes_of(dec.data() + off),
                    reinterpret_cast<std::byte*>(ref.data()), len);
        switch (opts.mode) {
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
        switch (opts.mode) {
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
        switch (opts.mode) {
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
    std::vector<float> dec(total);
    decompress_f32(blob.data(), opts, dec);
    for (const KernelTable* t : compiled_tables())
      run_fused_mode(*t, opts, total, blob.data(), dec);
  }
}

// The public fused entry points must match decompress + public add /
// scaled_sum (the dispatched composition the collectives replaced), at every
// pool width — this is the exact substitution adasum_rvh.cpp and
// sum_allreduce.cpp perform.
TEST(FusedKernels, PublicEntryPointsMatchTwoPassAcrossWidths) {
  PoolGuard guard;
  const std::size_t total = 400001;  // above the parallel threshold
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
    for (const int width : {0, 2}) {
      parallel::configure(width);
      std::vector<float> got = add_got;
      decompress_add_f32(blob.data(), opts, total, 0, got);
      EXPECT_TRUE(bytes_equal(add_ref, got))
          << compression_mode_name(mode) << " add width " << width;
      std::vector<float> out = comb_other;
      decompress_combine_f32(blob.data(), opts, total, 0, out, 0.75, -1.25,
                             /*deq_is_b=*/true, out);
      EXPECT_TRUE(bytes_equal(comb_ref, out))
          << compression_mode_name(mode) << " combine width " << width;
    }
    // The dot triple spans many of the AVX2 body's decode tiles here; it
    // never tiles across the pool, so one call per operand slot suffices.
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
// Sizes span several 32 KiB writeback tiles, a block larger than one tile,
// and (at width 2) the pool-tiled codec path.
TEST(FusedKernels, CompressWritebackMatchesCompressThenDecompress) {
  PoolGuard guard;
  const std::size_t total = 300001;  // above the parallel threshold
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
        for (const int width : {0, 2}) {
          parallel::configure(width);
          SCOPED_TRACE(std::string(compression_mode_name(mode)) + " block " +
                       std::to_string(block_bytes) + (sr ? " sr" : " rne") +
                       " width " + std::to_string(width));
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
}

// ---- full collectives ------------------------------------------------------

std::vector<float> run_adasum_collective(int ranks, std::size_t count,
                                         int layers, CompressionMode mode,
                                         const char* transport) {
  std::vector<float> result(count);
  World world(ranks);
  EXPECT_TRUE(world.set_transport(transport));
  if (mode != CompressionMode::kNone) {
    CompressionOptions opts;
    opts.mode = mode;
    world.set_compression(opts);
  }
  std::vector<TensorSlice> slices;
  const std::size_t per = count / static_cast<std::size_t>(layers);
  for (int l = 0; l < layers; ++l)
    slices.push_back({"l" + std::to_string(l),
                      static_cast<std::size_t>(l) * per,
                      l + 1 == layers ? count - static_cast<std::size_t>(l) * per
                                      : per});
  world.run([&](Comm& comm) {
    Tensor t({count});
    auto s = t.span<float>();
    for (std::size_t i = 0; i < s.size(); ++i)
      s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                 1000.0f -
             0.5f;
    adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/1 << 16);
    if (comm.rank() == 0)
      std::memcpy(result.data(), t.data(), count * sizeof(float));
  });
  return result;
}

TEST(ParallelCollectives, AdasumRvhBitIdenticalAcrossWidths) {
  PoolGuard guard;
  const std::size_t count = 1u << 19;  // 2 MiB: above the tiling threshold
  for (const CompressionMode mode :
       {CompressionMode::kNone, CompressionMode::kInt8,
        CompressionMode::kSign}) {
    parallel::configure(0);
    const std::vector<float> serial =
        run_adasum_collective(4, count, 8, mode, "mailbox");
    for (const int width : {1, 2, 4}) {
      parallel::configure(width);
      const std::vector<float> tiled =
          run_adasum_collective(4, count, 8, mode, "mailbox");
      EXPECT_TRUE(bytes_equal(serial, tiled))
          << compression_mode_name(mode) << " width " << width;
    }
    // The shm zero-copy transport reduces straight off the peer's span (and
    // the compressed path off the blob view); same bits required.
    parallel::configure(2);
    const std::vector<float> shm =
        run_adasum_collective(4, count, 8, mode, "shm");
    EXPECT_TRUE(bytes_equal(serial, shm))
        << compression_mode_name(mode) << " shm";
  }
}

TEST(ParallelCollectives, CompressedSumsBitIdenticalAcrossWidths) {
  PoolGuard guard;
  const std::size_t count = (1u << 18) + 3;
  const auto run_sums = [&](bool ring) {
    std::vector<float> result(count);
    World world(4);
    CompressionOptions opts;
    opts.mode = CompressionMode::kInt8;
    world.set_compression(opts);
    world.run([&](Comm& comm) {
      Tensor t({count});
      auto s = t.span<float>();
      for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                   1000.0f -
               0.5f;
      if (ring)
        ring_allreduce_sum(comm, t, /*tag_base=*/1 << 16);
      else
        rvh_allreduce_sum(comm, t, /*tag_base=*/1 << 16);
      if (comm.rank() == 0)
        std::memcpy(result.data(), t.data(), count * sizeof(float));
    });
    return result;
  };
  for (const bool ring : {true, false}) {
    parallel::configure(0);
    const std::vector<float> serial = run_sums(ring);
    for (const int width : {2, 4}) {
      parallel::configure(width);
      EXPECT_TRUE(bytes_equal(serial, run_sums(ring)))
          << (ring ? "ring" : "rvh") << " width " << width;
    }
  }
}

TEST(ParallelCollectives, WarmParallelAllreduceMakesNoPoolAllocations) {
  PoolGuard guard;
  parallel::configure(2);
  const std::size_t count = 1u << 19;
  World world(4);
  std::vector<TensorSlice> slices;
  for (int l = 0; l < 8; ++l)
    slices.push_back({"l" + std::to_string(l),
                      static_cast<std::size_t>(l) * (count / 8), count / 8});
  BufferPool::Stats stats{};
  world.run([&](Comm& comm) {
    Tensor t({count});
    auto s = t.span<float>();
    for (std::size_t i = 0; i < s.size(); ++i)
      s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                 1000.0f -
             0.5f;
    for (int it = 0; it < 3; ++it)
      adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/it << 16);
    comm.barrier();
    if (comm.rank() == 0) {
      // Provision the pool to the static worst case (same idiom as
      // bench_parallel): a warm run alone can still miss, because how many
      // buffers are simultaneously checked out depends on rank timing.
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < 5 * comm.size(); ++i)
        held.push_back(
            world.buffer_pool().acquire((count / 2) * sizeof(float)));
      for (int i = 0; i < 8 * comm.size(); ++i)
        held.push_back(world.buffer_pool().acquire(128));
      for (auto& b : held) world.buffer_pool().release(std::move(b));
      world.buffer_pool().reset_stats();
    }
    comm.barrier();
    for (int it = 0; it < 3; ++it)
      adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/(8 + it) << 16);
    comm.barrier();
    if (comm.rank() == 0) stats = world.buffer_pool().stats();
  });
  EXPECT_EQ(stats.allocations, 0u)
      << "warm parallel allreduce must reuse pooled buffers only";
}

// ---- seeded chaos under a pool of two --------------------------------------

// 40 deterministic schedules: random world size, payload, layer table,
// compression mode, transport and delay jitter (timing-only faults, so the
// result must stay bit-identical to the serial run of the same schedule).
// Each run is watchdogged — a pool handshake bug shows up as a clean failure
// here, not a hung suite.
TEST(ParallelChaos, FortySeededSchedulesBitStableUnderPoolOfTwo) {
  PoolGuard guard;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0xADA500ull + seed);
    const int sizes[3] = {2, 4, 8};
    const int p = sizes[rng.uniform_int(3)];
    // Mix small payloads (pool never engages) with ones past the 1 MiB
    // threshold so roughly half the schedules exercise real fan-out.
    const std::size_t count =
        rng.uniform() < 0.5
            ? 1 + static_cast<std::size_t>(rng.uniform_int(4096))
            : (1u << 18) + static_cast<std::size_t>(rng.uniform_int(1u << 18));
    const int layers = 1 + static_cast<int>(rng.uniform_int(8));
    const CompressionMode modes[4] = {
        CompressionMode::kNone, CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign};
    const CompressionMode mode = modes[rng.uniform_int(4)];
    const bool use_shm = rng.uniform() < 0.3;
    const bool adasum = rng.uniform() < 0.7;
    FaultSpec spec;
    spec.seed = seed ^ 0x9E3779B97F4A7C15ull;
    spec.delay_prob = 0.02 + rng.uniform() * 0.03;
    spec.delay_max_us = 50;

    SCOPED_TRACE("seed=" + std::to_string(seed) + " p=" + std::to_string(p) +
                 " count=" + std::to_string(count) + " layers=" +
                 std::to_string(layers) + " mode=" +
                 compression_mode_name(mode) + (use_shm ? " shm" : " mailbox") +
                 (adasum ? " adasum" : " sum"));

    const auto run_once = [&](int width, bool jitter) {
      parallel::configure(width);
      std::vector<float> result(count);
      World world(p);
      EXPECT_TRUE(world.set_transport(use_shm ? "shm" : "mailbox"));
      if (mode != CompressionMode::kNone) {
        CompressionOptions opts;
        opts.mode = mode;
        world.set_compression(opts);
      }
      if (jitter)
        world.set_fault_injector(std::make_shared<FaultInjector>(p, spec));
      std::vector<TensorSlice> slices;
      const std::size_t per = count / static_cast<std::size_t>(layers);
      for (int l = 0; l < layers && per > 0; ++l)
        slices.push_back(
            {"l" + std::to_string(l), static_cast<std::size_t>(l) * per,
             l + 1 == layers ? count - static_cast<std::size_t>(l) * per
                             : per});
      const chaos::WatchdogResult w = chaos::run_with_watchdog(
          world,
          [&](Comm& comm) {
            Tensor t({count});
            auto s = t.span<float>();
            for (std::size_t i = 0; i < s.size(); ++i)
              s[i] =
                  static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                      1000.0f -
                  0.5f;
            if (adasum)
              adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/1 << 16);
            else
              rvh_allreduce_sum(comm, t, /*tag_base=*/1 << 16);
            if (comm.rank() == 0)
              std::memcpy(result.data(), t.data(), count * sizeof(float));
          },
          std::chrono::milliseconds(60000));
      EXPECT_FALSE(w.watchdog_fired) << "schedule hung";
      EXPECT_FALSE(static_cast<bool>(w.error));
      return result;
    };
    const std::vector<float> serial = run_once(0, false);
    const std::vector<float> pooled = run_once(2, true);
    EXPECT_TRUE(bytes_equal(serial, pooled));
  }
}

}  // namespace
}  // namespace adasum
