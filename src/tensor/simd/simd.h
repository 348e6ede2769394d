// Runtime SIMD dispatch for the Adasum hot-loop kernels (DESIGN.md §10).
//
// The binary carries one kernel table per supported ISA level. At first use
// the dispatcher picks the widest level that (a) was compiled in (toolchain
// probe), (b) the CPU reports via CPUID, and (c) the ADASUM_SIMD environment
// variable allows:
//
//   ADASUM_SIMD=scalar   force the scalar oracle kernels
//   ADASUM_SIMD=avx2     request AVX2+FMA+F16C (falls back to scalar, with a
//                        warning, when the build or the CPU lacks it)
//   ADASUM_SIMD=auto     (or unset) widest available level
//
// The choice is made once per process; scripts/check.sh runs the test suite
// under both `auto` and `scalar`. Tests that need both tables in one process
// use table_for() directly, which ignores the environment override.
#pragma once

#include "tensor/simd/kernel_table.h"

namespace adasum::simd {

const char* level_name(Level level);

// Runtime CPUID result: AVX2, FMA and F16C all present.
bool cpu_has_avx2();

// True when the AVX2 translation unit was compiled into this binary.
bool built_with_avx2();

// Level selected from the build, CPUID and ADASUM_SIMD; fixed at first call.
Level active_level();

// Table for active_level(). All kernels in tensor/kernels.h route through it.
// Entries where no AVX2 body beats the scalar loop (BENCH_kernels.json) hold
// the scalar pointer in the AVX2 table itself (kernel_table.h), so auto
// selection and an explicit ADASUM_SIMD=avx2 hand out the same table.
const KernelTable& active_table();

// Table for a specific level, or nullptr when that level is unavailable
// (not compiled in, or the CPU lacks the ISA). Ignores ADASUM_SIMD.
const KernelTable* table_for(Level level);

}  // namespace adasum::simd
