// Software IEEE-754 binary16 ("half") type.
//
// The paper's Horovod implementation supports fp16 gradient payloads for
// communication efficiency (Section 4.4.1). Since this reproduction runs on
// CPU without hardware half support, Half stores the 16-bit pattern and
// converts to/from float on access. Round-to-nearest-even on conversion from
// float, with correct handling of subnormals, infinities and NaN — the
// dynamic-scaling logic (src/tensor/scaling.h) relies on overflow producing
// real infinities.
//
// The bit conversions are public, header-inline statics so the batched
// software converter in tensor/simd/kernels_scalar.cpp runs the exact same
// code as per-element Half access — parity between the two is by construction,
// and the F16C hardware path is pinned to this implementation by the
// exhaustive 65,536-pattern round-trip test in tests/simd_test.cpp.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace adasum {

class Half {
 public:
  constexpr Half() = default;
  // Conversions are implicit by design: Half participates in arithmetic
  // expressions alongside float throughout the kernels.
  Half(float f) : bits_(float_to_bits(f)) {}  // NOLINT(google-explicit-constructor)
  operator float() const { return bits_to_float(bits_); }  // NOLINT

  static constexpr Half from_bits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }
  constexpr std::uint16_t bits() const { return bits_; }

  friend bool operator==(Half a, Half b) {
    return static_cast<float>(a) == static_cast<float>(b);
  }

  static std::uint16_t float_to_bits(float f) {
    const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    const std::uint32_t sign = (x >> 16) & 0x8000u;
    const std::uint32_t abs = x & 0x7fffffffu;

    if (abs >= 0x7f800000u) {
      // Inf or NaN. Preserve NaN-ness with a quiet-NaN payload bit.
      const std::uint32_t nan_bit = (abs > 0x7f800000u) ? 0x0200u : 0u;
      return static_cast<std::uint16_t>(sign | 0x7c00u | nan_bit);
    }
    if (abs >= 0x477ff000u) {
      // Rounds to a value >= 2^16: overflow to infinity.
      return static_cast<std::uint16_t>(sign | 0x7c00u);
    }
    if (abs < 0x38800000u) {
      // Subnormal half (or zero). Shift the significand (with hidden bit) so
      // the exponent becomes the minimum half exponent, then round-to-nearest
      // -even on the bits shifted out.
      if (abs < 0x33000000u) return static_cast<std::uint16_t>(sign);  // -> 0
      const int exp = static_cast<int>(abs >> 23);
      const std::uint32_t sig = (abs & 0x007fffffu) | 0x00800000u;
      // The float's value is sig * 2^(exp-150); a half subnormal encodes
      // n * 2^-24, so n = sig >> (126 - exp), rounded to nearest-even.
      const int s = 126 - exp;
      const std::uint32_t mask = (1u << s) - 1u;
      std::uint32_t half_sig = sig >> s;
      const std::uint32_t rem = sig & mask;
      const std::uint32_t halfway = 1u << (s - 1);
      if (rem > halfway || (rem == halfway && (half_sig & 1u))) ++half_sig;
      return static_cast<std::uint16_t>(sign | half_sig);
    }
    // Normal half. Re-bias exponent 127 -> 15 and round-to-nearest-even on
    // the 13 dropped significand bits.
    std::uint32_t h =
        ((abs >> 13) & 0x3ffu) | ((((abs >> 23) - 112u) & 0x1fu) << 10);
    const std::uint32_t rem = abs & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;  // may carry to exp
    return static_cast<std::uint16_t>(sign | h);
  }

  static float bits_to_float(std::uint16_t h) {
    const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    const std::uint32_t sig = h & 0x3ffu;

    if (exp == 0x1fu) {  // Inf / NaN
      return std::bit_cast<float>(sign | 0x7f800000u | (sig << 13));
    }
    if (exp == 0) {
      if (sig == 0) return std::bit_cast<float>(sign);  // +-0
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t s = sig;
      do {
        ++e;
        s <<= 1;
      } while ((s & 0x400u) == 0);
      return std::bit_cast<float>(
          sign | ((113u - static_cast<std::uint32_t>(e) - 1u) << 23) |
          ((s & 0x3ffu) << 13));
    }
    return std::bit_cast<float>(sign | ((exp + 112u) << 23) | (sig << 13));
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Half) == 2, "Half must be 2 bytes for wire payloads");

}  // namespace adasum
