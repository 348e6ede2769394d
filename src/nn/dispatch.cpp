#include <vector>

#include "nn/kernels.h"
#include "tensor/simd/simd.h"

namespace adasum::nn {

const Kernels* kernels_for(simd::Level level) {
  switch (level) {
    case simd::Level::kScalar:
      return &baseline::kTable;
    case simd::Level::kAvx2:
#if defined(ADASUM_SIMD_HAVE_AVX2)
      if (simd::cpu_has_avx2()) return &avx2::kTable;
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels& active_kernels() {
  // active_level() resolves to AVX2 only when the build and the CPU have it.
  static const Kernels& table = *kernels_for(simd::active_level());
  return table;
}

float* forward_scratch(std::size_t floats) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < floats) scratch.resize(floats);
  return scratch.data();
}

std::size_t* index_scratch(std::size_t n) {
  thread_local std::vector<std::size_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace adasum::nn
