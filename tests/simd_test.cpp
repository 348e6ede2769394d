// SIMD dispatch engine tests (DESIGN.md §10).
//
// Three layers of guarantees:
//  * dispatch sanity — the scalar table always exists; vector tables exist
//    exactly when the build and the CPU provide the ISA.
//  * vector-vs-scalar parity — every vector kernel agrees with the scalar
//    oracle within tight ulp bounds, across dtypes, odd tail lengths
//    (n mod vector width != 0), tile-crossing sizes and unaligned base
//    pointers; scaled_sum additionally honors its aliasing contract
//    (out == a, out == b) bit-for-bit against its own disjoint-output run.
//  * fp16 bulk conversion — exhaustive 65,536-pattern round-trip against the
//    scalar Half implementation: subnormals, +-inf bit-exact, NaN preserved
//    (the hardware path may quiet signaling-NaN payloads; NaN-ness and sign
//    must survive), and round-to-nearest-even verified on every half-half
//    midpoint. Dynamic scaling (src/tensor/scaling.h) depends on overflow
//    producing real infinities, so the overflow edge gets its own assertions.
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "base/half.h"
#include "base/rng.h"
#include "core/adasum.h"
#include "tensor/kernels.h"
#include "tensor/scaling.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"

namespace adasum {
namespace {

using simd::KernelTable;
using simd::Level;

std::vector<const KernelTable*> vector_tables() {
  std::vector<const KernelTable*> tables;
  if (const KernelTable* t = simd::table_for(Level::kAvx2)) tables.push_back(t);
  return tables;
}

template <typename T>
constexpr int kDtypeIdx = static_cast<int>(dtype_of<T>);

template <typename T>
double as_double(T v) {
  return static_cast<double>(v);
}
double as_double(Half v) { return static_cast<double>(static_cast<float>(v)); }

template <typename T>
std::vector<T> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = T(static_cast<float>(rng.normal(0, 1)) * 2.0f);
  return v;
}
template <>
std::vector<Half> random_vec<Half>(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Half> v(n);
  for (auto& x : v) x = Half(static_cast<float>(rng.normal(0, 1)) * 2.0f);
  return v;
}

template <typename T>
const std::byte* cbytes(const T* p) {
  return reinterpret_cast<const std::byte*>(p);
}
template <typename T>
std::byte* mbytes(T* p) {
  return reinterpret_cast<std::byte*>(p);
}

// Sign-magnitude ulp distance; +0 and -0 are identical, adjacent
// representable values differ by 1.
std::int64_t ordered(Half h) {
  const int mag = h.bits() & 0x7fff;
  return (h.bits() & 0x8000) ? -mag : mag;
}
std::int64_t ordered(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f);
  const std::int64_t mag = u & 0x7fffffffu;
  return (u & 0x80000000u) ? -mag : mag;
}
std::int64_t ordered(double d) {
  const auto u = std::bit_cast<std::uint64_t>(d);
  const auto mag = static_cast<std::int64_t>(u & 0x7fffffffffffffffull);
  return (u & 0x8000000000000000ull) ? -mag : mag;
}
template <typename T>
std::int64_t ulp_diff(T a, T b) {
  return std::abs(ordered(a) - ordered(b));
}

// Sizes chosen to hit: empty, sub-width, every tail residue around the 4/8/16
// element vector widths, the 2048-element fp16 staging tile boundary, and
// multi-tile payloads.
const std::size_t kSizes[] = {0,  1,  2,  3,   4,   5,    7,    8,    9,
                              15, 16, 17, 31,  33,  63,   64,   65,   100,
                              127, 129, 1000, 2047, 2048, 2049, 4095, 4097};

// ---- dispatch sanity -------------------------------------------------------

TEST(SimdDispatch, ScalarTableAlwaysPresent) {
  ASSERT_NE(simd::table_for(Level::kScalar), nullptr);
  EXPECT_STREQ(simd::table_for(Level::kScalar)->name, "scalar");
  EXPECT_EQ(simd::table_for(Level::kScalar), &simd::scalar_table());
}

TEST(SimdDispatch, Avx2TableExistsIffBuiltAndCpuSupports) {
  const bool expect = simd::built_with_avx2() && simd::cpu_has_avx2();
  EXPECT_EQ(simd::table_for(Level::kAvx2) != nullptr, expect);
}

TEST(SimdDispatch, ActiveTableMatchesActiveLevel) {
  // Auto and an explicit ADASUM_SIMD level both hand out the raw per-TU
  // table. The AVX2 table holds the scalar pointers for the entries no
  // vector body wins (add f32/f64, scaled_sum f64 — kernel_table.h), and
  // its own bodies everywhere else.
  const KernelTable* active = &simd::active_table();
  EXPECT_EQ(active, simd::table_for(simd::active_level()));
  EXPECT_STREQ(active->name, simd::level_name(simd::active_level()));
  const KernelTable& s = simd::scalar_table();
  EXPECT_EQ(active->add[simd::kF32], s.add[simd::kF32]);
  EXPECT_EQ(active->add[simd::kF64], s.add[simd::kF64]);
  EXPECT_EQ(active->scaled_sum[simd::kF64], s.scaled_sum[simd::kF64]);
  if (simd::active_level() == Level::kAvx2) {
    EXPECT_NE(active->add[simd::kF16], s.add[simd::kF16]);
    EXPECT_NE(active->scaled_sum[simd::kF32], s.scaled_sum[simd::kF32]);
    EXPECT_NE(active->dot_triple[simd::kF64], s.dot_triple[simd::kF64]);
  }
}

TEST(SimdDispatch, TypedKernelsRideTheActiveTable) {
  // The public typed API and the byte API must hit the same table: a dot
  // computed both ways is bit-identical.
  const auto a = random_vec<float>(1000, 101);
  const auto b = random_vec<float>(1000, 102);
  const double typed =
      kernels::dot(std::span<const float>(a), std::span<const float>(b));
  const double via_table = simd::active_table().dot[kDtypeIdx<float>](
      cbytes(a.data()), cbytes(b.data()), a.size());
  EXPECT_EQ(typed, via_table);
}

// ---- vector-vs-scalar parity ----------------------------------------------

template <typename T>
void check_reduction_parity(const KernelTable& vec, bool unaligned) {
  const KernelTable& ref = simd::scalar_table();
  constexpr int d = kDtypeIdx<T>;
  for (const std::size_t n : kSizes) {
    auto abuf = random_vec<T>(n + 1, 7000 + n);
    auto bbuf = random_vec<T>(n + 1, 8000 + n);
    const T* a = abuf.data() + (unaligned ? 1 : 0);
    const T* b = bbuf.data() + (unaligned ? 1 : 0);

    double sumabs = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      sumabs += std::abs(as_double(a[i]) * as_double(b[i]));
    // Reassociation bound: both sides accumulate in double; they may only
    // differ by the order of the partial sums.
    const double tol = 1e-11 * (sumabs + 1.0);

    EXPECT_NEAR(vec.dot[d](cbytes(a), cbytes(b), n),
                ref.dot[d](cbytes(a), cbytes(b), n), tol)
        << vec.name << " dot " << dtype_name(dtype_of<T>) << " n=" << n;
    EXPECT_NEAR(vec.norm_squared[d](cbytes(a), n),
                ref.norm_squared[d](cbytes(a), n), tol)
        << vec.name << " norm " << dtype_name(dtype_of<T>) << " n=" << n;

    double tv[3], tr[3];
    vec.dot_triple[d](cbytes(a), cbytes(b), n, tv);
    ref.dot_triple[d](cbytes(a), cbytes(b), n, tr);
    for (int k = 0; k < 3; ++k)
      EXPECT_NEAR(tv[k], tr[k], tol)
          << vec.name << " dot_triple[" << k << "] "
          << dtype_name(dtype_of<T>) << " n=" << n;
  }
}

TEST(SimdParity, ReductionsAllDtypesTailsAndAlignment) {
  const auto tables = vector_tables();
  if (tables.empty()) GTEST_SKIP() << "no vector ISA available";
  for (const KernelTable* t : tables) {
    for (const bool unaligned : {false, true}) {
      check_reduction_parity<Half>(*t, unaligned);
      check_reduction_parity<float>(*t, unaligned);
      check_reduction_parity<double>(*t, unaligned);
    }
  }
}

template <typename T>
void check_elementwise_parity(const KernelTable& vec, bool unaligned) {
  const KernelTable& ref = simd::scalar_table();
  constexpr int d = kDtypeIdx<T>;
  const double alpha = -0.7578125;  // exactly representable
  const double ca = 0.625, cb = -1.375;
  for (const std::size_t n : kSizes) {
    const auto x = random_vec<T>(n + 1, 9000 + n);
    const auto y0 = random_vec<T>(n + 1, 10000 + n);
    const std::size_t off = unaligned ? 1 : 0;

    auto yv = y0, yr = y0;
    // add: identical double adds on both paths — must be bit-exact.
    vec.add[d](cbytes(x.data() + off), mbytes(yv.data() + off), n);
    ref.add[d](cbytes(x.data() + off), mbytes(yr.data() + off), n);
    for (std::size_t i = 0; i < n + 1; ++i)
      EXPECT_EQ(ulp_diff(yv[i], yr[i]), 0)
          << vec.name << " add " << dtype_name(dtype_of<T>) << " n=" << n
          << " i=" << i;

    // scale: one double multiply each — bit-exact.
    yv = y0;
    yr = y0;
    vec.scale[d](alpha, mbytes(yv.data() + off), n);
    ref.scale[d](alpha, mbytes(yr.data() + off), n);
    for (std::size_t i = 0; i < n + 1; ++i)
      EXPECT_EQ(ulp_diff(yv[i], yr[i]), 0)
          << vec.name << " scale " << dtype_name(dtype_of<T>) << " n=" << n;

    // axpy / scaled_sum: the vector path fuses multiply-add, so results may
    // differ from the scalar mul-then-add by one rounding — <= 1 ulp in the
    // payload dtype.
    yv = y0;
    yr = y0;
    vec.axpy[d](alpha, cbytes(x.data() + off), mbytes(yv.data() + off), n);
    ref.axpy[d](alpha, cbytes(x.data() + off), mbytes(yr.data() + off), n);
    for (std::size_t i = 0; i < n + 1; ++i)
      EXPECT_LE(ulp_diff(yv[i], yr[i]), 1)
          << vec.name << " axpy " << dtype_name(dtype_of<T>) << " n=" << n;

    std::vector<T> ov(n + 1, T(0.0f)), orf(n + 1, T(0.0f));
    vec.scaled_sum[d](cbytes(x.data() + off), ca, cbytes(y0.data() + off), cb,
                      mbytes(ov.data() + off), n);
    ref.scaled_sum[d](cbytes(x.data() + off), ca, cbytes(y0.data() + off), cb,
                      mbytes(orf.data() + off), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_LE(ulp_diff(ov[i + off], orf[i + off]), 1)
          << vec.name << " scaled_sum " << dtype_name(dtype_of<T>)
          << " n=" << n;
  }
}

TEST(SimdParity, ElementwiseAllDtypesTailsAndAlignment) {
  const auto tables = vector_tables();
  if (tables.empty()) GTEST_SKIP() << "no vector ISA available";
  for (const KernelTable* t : tables) {
    for (const bool unaligned : {false, true}) {
      check_elementwise_parity<Half>(*t, unaligned);
      check_elementwise_parity<float>(*t, unaligned);
      check_elementwise_parity<double>(*t, unaligned);
    }
  }
}

template <typename T>
void check_has_nonfinite_parity(const KernelTable& vec) {
  const KernelTable& ref = simd::scalar_table();
  constexpr int d = kDtypeIdx<T>;
  const T inf = T(std::numeric_limits<float>::infinity());
  const T nan = T(std::numeric_limits<float>::quiet_NaN());
  for (const std::size_t n : kSizes) {
    auto v = random_vec<T>(n, 11000 + n);
    EXPECT_EQ(vec.has_nonfinite[d](cbytes(v.data()), n),
              ref.has_nonfinite[d](cbytes(v.data()), n))
        << "finite " << dtype_name(dtype_of<T>) << " n=" << n;
    // Poison one position at a time: first, mid-block, last (tail) element.
    for (const std::size_t pos :
         {std::size_t{0}, n / 2, n > 0 ? n - 1 : std::size_t{0}}) {
      if (n == 0) break;
      for (const T bad : {inf, T(-static_cast<float>(inf)), nan}) {
        auto w = v;
        w[pos] = bad;
        EXPECT_TRUE(vec.has_nonfinite[d](cbytes(w.data()), n))
            << dtype_name(dtype_of<T>) << " n=" << n << " pos=" << pos;
        EXPECT_TRUE(ref.has_nonfinite[d](cbytes(w.data()), n));
      }
    }
  }
}

TEST(SimdParity, HasNonfiniteEveryPositionClass) {
  const auto tables = vector_tables();
  if (tables.empty()) GTEST_SKIP() << "no vector ISA available";
  for (const KernelTable* t : tables) {
    check_has_nonfinite_parity<Half>(*t);
    check_has_nonfinite_parity<float>(*t);
    check_has_nonfinite_parity<double>(*t);
  }
}

TEST(SimdParity, HalfSubnormalsAreFiniteOnEveryPath) {
  // fp16 subnormals have a zero exponent field; the bit-mask vector check
  // must not confuse them with inf/NaN.
  for (const KernelTable* t : vector_tables()) {
    std::vector<Half> v(100, Half::from_bits(0x0001));  // smallest subnormal
    EXPECT_FALSE(t->has_nonfinite[simd::kF16](cbytes(v.data()), v.size()));
    v[99] = Half::from_bits(0x7c00);  // +inf
    EXPECT_TRUE(t->has_nonfinite[simd::kF16](cbytes(v.data()), v.size()));
  }
}

// ---- scaled_sum aliasing contract (out == a, out == b, disjoint) ----------

template <typename T>
void check_scaled_sum_aliasing(const KernelTable& table) {
  constexpr int d = kDtypeIdx<T>;
  const double ca = 1.21875, cb = -0.40625;
  for (const std::size_t n : {std::size_t{17}, std::size_t{2049}}) {
    const auto a0 = random_vec<T>(n, 12000 + n);
    const auto b0 = random_vec<T>(n, 13000 + n);

    // Ground truth from the same table with a disjoint output buffer.
    std::vector<T> expected(n);
    table.scaled_sum[d](cbytes(a0.data()), ca, cbytes(b0.data()), cb,
                        mbytes(expected.data()), n);

    auto a = a0;  // out aliases a — the in-place AdasumRVH combine shape
    table.scaled_sum[d](cbytes(a.data()), ca, cbytes(b0.data()), cb,
                        mbytes(a.data()), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ulp_diff(a[i], expected[i]), 0)
          << table.name << " out==a " << dtype_name(dtype_of<T>) << " n=" << n
          << " i=" << i;

    auto b = b0;  // out aliases b
    table.scaled_sum[d](cbytes(a0.data()), ca, cbytes(b.data()), cb,
                        mbytes(b.data()), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ulp_diff(b[i], expected[i]), 0)
          << table.name << " out==b " << dtype_name(dtype_of<T>) << " n=" << n
          << " i=" << i;
  }
}

TEST(SimdAliasing, ScaledSumOutMayAliasEitherInputOnEveryTable) {
  std::vector<const KernelTable*> tables = {&simd::scalar_table()};
  for (const KernelTable* t : vector_tables()) tables.push_back(t);
  for (const KernelTable* t : tables) {
    check_scaled_sum_aliasing<Half>(*t);
    check_scaled_sum_aliasing<float>(*t);
    check_scaled_sum_aliasing<double>(*t);
  }
}

TEST(SimdAliasing, AdasumPairInplaceMatchesOutOfPlace) {
  // End-to-end shape of the aliasing contract: the in-place pair combine
  // (dispatched scaled_sum with out == a) equals the allocating one.
  for (const std::size_t n : {std::size_t{33}, std::size_t{4097}}) {
    Rng rng(14000 + n);
    Tensor a({n}), b({n});
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, rng.normal());
      b.set(i, rng.normal());
    }
    const Tensor expected = adasum_pair(a, b);
    adasum_pair_inplace(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(a.at(i), expected.at(i));
  }
}

// ---- exhaustive fp16 bulk-conversion checks -------------------------------

bool half_bits_is_nan(std::uint16_t h) {
  return (h & 0x7c00u) == 0x7c00u && (h & 0x03ffu) != 0;
}

TEST(HalfBulkConvert, ExhaustiveHalfToFloatMatchesScalarHalf) {
  std::vector<const KernelTable*> tables = {&simd::scalar_table()};
  for (const KernelTable* t : vector_tables()) tables.push_back(t);

  std::vector<std::uint16_t> all(65536);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<std::uint16_t>(i);

  for (const KernelTable* t : tables) {
    std::vector<float> got(all.size());
    t->half_to_float(all.data(), got.data(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::uint16_t h = all[i];
      const float want = Half::bits_to_float(h);
      if (half_bits_is_nan(h)) {
        EXPECT_TRUE(std::isnan(got[i])) << t->name << " h=" << h;
        EXPECT_EQ(std::signbit(got[i]), (h & 0x8000u) != 0)
            << t->name << " h=" << h;
      } else {
        // Subnormals, +-0, +-inf and all normals are exactly representable
        // in float: require bit equality with the software Half.
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want))
            << t->name << " h=" << h;
      }
    }
  }
}

TEST(HalfBulkConvert, ExhaustiveRoundTripPreservesEveryNonNanPattern) {
  std::vector<const KernelTable*> tables = {&simd::scalar_table()};
  for (const KernelTable* t : vector_tables()) tables.push_back(t);

  std::vector<std::uint16_t> all(65536);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<std::uint16_t>(i);

  for (const KernelTable* t : tables) {
    std::vector<float> mid(all.size());
    std::vector<std::uint16_t> back(all.size());
    t->half_to_float(all.data(), mid.data(), all.size());
    t->float_to_half(mid.data(), back.data(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::uint16_t h = all[i];
      if (half_bits_is_nan(h)) {
        // NaN-ness and sign survive; payloads may be quieted/canonicalized.
        EXPECT_TRUE(half_bits_is_nan(back[i])) << t->name << " h=" << h;
        EXPECT_EQ(back[i] & 0x8000u, h & 0x8000u) << t->name << " h=" << h;
      } else {
        EXPECT_EQ(back[i], h) << t->name << " h=" << h;
      }
    }
  }
}

TEST(HalfBulkConvert, ExhaustiveMidpointRoundingMatchesScalarHalf) {
  // Every float exactly halfway between two adjacent finite halves: the
  // hardware narrowing must make the same round-to-nearest-even choice as
  // Half::float_to_bits (which the scalar table uses verbatim).
  const auto tables = vector_tables();
  if (tables.empty()) GTEST_SKIP() << "no vector ISA available";
  for (const KernelTable* t : tables) {
    for (std::uint32_t h = 0; h < 0x7c00u; ++h) {
      const float lo = Half::bits_to_float(static_cast<std::uint16_t>(h));
      const float hi = Half::bits_to_float(static_cast<std::uint16_t>(h + 1));
      // Halves have an 11-bit significand; their midpoints are exact floats.
      const float mids[2] = {(lo + hi) * 0.5f, -(lo + hi) * 0.5f};
      std::uint16_t got[2];
      t->float_to_half(mids, got, 2);
      EXPECT_EQ(got[0], Half::float_to_bits(mids[0]))
          << t->name << " h=" << h;
      EXPECT_EQ(got[1], Half::float_to_bits(mids[1]))
          << t->name << " h=" << h;
    }
  }
}

TEST(HalfBulkConvert, OverflowProducesRealInfinities) {
  // Dynamic scaling detects fp16 overflow via real infinities; the bulk
  // converter must overflow exactly where the scalar Half does.
  std::vector<const KernelTable*> tables = {&simd::scalar_table()};
  for (const KernelTable* t : vector_tables()) tables.push_back(t);
  const float cases[] = {65504.0f,  // max finite half
                         65519.996f,                    // rounds to max finite
                         65520.0f,                      // first overflow
                         1e30f,
                         std::numeric_limits<float>::infinity(),
                         -65520.0f,
                         -std::numeric_limits<float>::infinity(),
                         1e-39f,   // float subnormal -> half zero
                         -1e-45f,  // smallest float subnormal
                         5.9604645e-8f,                 // smallest half subnormal
                         std::numeric_limits<float>::quiet_NaN()};
  constexpr std::size_t kN = sizeof(cases) / sizeof(cases[0]);
  for (const KernelTable* t : tables) {
    std::uint16_t got[kN];
    t->float_to_half(cases, got, kN);
    for (std::size_t i = 0; i < kN; ++i) {
      const std::uint16_t want = Half::float_to_bits(cases[i]);
      if (std::isnan(cases[i])) {
        EXPECT_TRUE(half_bits_is_nan(got[i])) << t->name << " i=" << i;
      } else {
        EXPECT_EQ(got[i], want) << t->name << " f=" << cases[i];
      }
    }
  }
  EXPECT_EQ(Half::float_to_bits(65520.0f), 0x7c00u);  // the edge is real inf
}

TEST(HalfBulkConvert, OddTailsAndUnalignedMatchPerElementHalf) {
  std::vector<const KernelTable*> tables = {&simd::scalar_table()};
  for (const KernelTable* t : vector_tables()) tables.push_back(t);
  for (const KernelTable* t : tables) {
    for (const std::size_t n : kSizes) {
      const auto src = random_vec<float>(n + 1, 15000 + n);
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        std::vector<std::uint16_t> h(n);
        t->float_to_half(src.data() + off, h.data(), n);
        std::vector<float> f(n);
        t->half_to_float(h.data(), f.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(h[i], Half::float_to_bits(src[i + off]))
              << t->name << " n=" << n << " off=" << off;
          EXPECT_EQ(f[i], Half::bits_to_float(h[i]));
        }
      }
    }
  }
}

// ---- dispatched converters wired into dynamic scaling ---------------------

TEST(ScalingCast, Fp32FastPathMatchesSeedPerElementLoop) {
  // cast_to_fp16_scaled's tiled fp32 path (bulk float_to_half) must produce
  // exactly what the seed's per-element loop produced: double multiply, one
  // rounding to float, RTNE to half. Sizes straddle the 2048-element tile.
  const double scale = 1024.0;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{2049}}) {
    Rng rng(16000 + n);
    Tensor t({n});
    auto s = t.span<float>();
    for (auto& v : s) v = static_cast<float>(rng.normal(0, 1)) * 8.0f;
    const Tensor out = cast_to_fp16_scaled(t, scale);
    const auto got = out.span<Half>();
    for (std::size_t i = 0; i < n; ++i) {
      const Half want(static_cast<float>(static_cast<double>(s[i]) * scale));
      EXPECT_EQ(got[i].bits(), want.bits()) << "n=" << n << " i=" << i;
    }
    // And back: bulk half_to_float + double divide == seed loop.
    const Tensor back = cast_from_fp16_scaled(out, scale);
    const auto fb = back.span<float>();
    for (std::size_t i = 0; i < n; ++i) {
      const float want = static_cast<float>(
          static_cast<double>(static_cast<float>(got[i])) / scale);
      EXPECT_EQ(fb[i], want);
    }
  }
}

}  // namespace
}  // namespace adasum
