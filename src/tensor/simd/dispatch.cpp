#include "tensor/simd/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace adasum::simd {
namespace {

// Resolution runs once (function-local static in active_level); it must not
// allocate — chaos_test's zero-allocation gate covers binaries that dispatch.
Level resolve_level() {
  const bool available = built_with_avx2() && cpu_has_avx2();
  const char* env = std::getenv("ADASUM_SIMD");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (available) return Level::kAvx2;
      std::fprintf(stderr,
                   "adasum: ADASUM_SIMD=avx2 requested but %s; "
                   "falling back to scalar kernels\n",
                   built_with_avx2() ? "the CPU lacks AVX2/FMA/F16C"
                                     : "the build has no AVX2 kernels");
      return Level::kScalar;
    }
    if (std::strcmp(env, "auto") != 0) {
      std::fprintf(stderr,
                   "adasum: unknown ADASUM_SIMD value '%s' "
                   "(expected scalar|avx2|auto); using auto\n",
                   env);
    }
  }
  return available ? Level::kAvx2 : Level::kScalar;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool built_with_avx2() {
#if defined(ADASUM_SIMD_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

Level active_level() {
  static const Level level = resolve_level();
  return level;
}

const KernelTable& active_table() {
  const KernelTable* table = table_for(active_level());
  return table != nullptr ? *table : scalar_table();
}

const KernelTable* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &scalar_table();
    case Level::kAvx2:
#if defined(ADASUM_SIMD_HAVE_AVX2)
      if (cpu_has_avx2()) return &avx2_table();
#endif
      return nullptr;
  }
  return nullptr;
}

}  // namespace adasum::simd
