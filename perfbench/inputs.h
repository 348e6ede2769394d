// Seeded inputs and checksums for the benchmark.
//
// Every input is a pure function of (seed, rank, element index): the
// payload generator below is counter-based, so two runs with one seed see
// identical bytes whatever order the ranks run in.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "tensor/fusion.h"

namespace perfbench {

// 32-bit integer finalizer (Wellons' lowbias32); vectorizable.
inline std::uint32_t hash32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

inline std::uint32_t fold_seed(std::uint64_t seed, std::uint32_t salt) {
  return hash32(static_cast<std::uint32_t>(seed) ^
                hash32(static_cast<std::uint32_t>(seed >> 32) ^ salt));
}

// Uniform on [-1, 1).
inline float unit(std::uint32_t h) {
  return static_cast<float>(static_cast<std::int32_t>(h)) * 0x1p-31f;
}

// Rank `rank`'s payload. Layer l holds scale_l * (0.6 * shared_i + 0.8 *
// own_i), where shared_i is the same on every rank and own_i is the rank's
// own, both uniform on [-1, 1). The cross-rank correlation of 0.36 makes
// every pairwise Adasum combine coefficient lie strictly between the sum's
// (1) and the average's (0.5); the per-layer scale (2^-4 .. 2^4) makes the
// per-layer boundaries matter.
inline void fill_payload(std::uint64_t seed, int rank,
                         std::span<const adasum::TensorSlice> slices,
                         std::span<float> out) {
  const std::uint32_t shared_key = fold_seed(seed, 0x5bd1e995U);
  const std::uint32_t own_key =
      fold_seed(seed, 0x27d4eb2dU * static_cast<std::uint32_t>(rank + 1));
  for (std::size_t l = 0; l < slices.size(); ++l) {
    const std::uint32_t layer_hash =
        fold_seed(seed, 0x165667b1U + static_cast<std::uint32_t>(l));
    const float scale = std::ldexp(1.0f, static_cast<int>(layer_hash % 9) - 4) *
                        (1.0f + 0.5f * unit(hash32(layer_hash)));
    const float a = 0.6f * scale, b = 0.8f * scale;
    const std::size_t begin = slices[l].offset;
    const std::size_t end = begin + slices[l].count;
    for (std::size_t i = begin; i < end; ++i) {
      const auto idx = static_cast<std::uint32_t>(i);
      out[i] = a * unit(hash32(idx ^ shared_key)) + b * unit(hash32(idx ^ own_key));
    }
  }
}

// 64-bit multiply-xor checksum over whole words (tail bytes folded in).
inline std::uint64_t checksum(const void* data, std::size_t bytes,
                              std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

}  // namespace perfbench
