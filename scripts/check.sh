#!/usr/bin/env bash
# Tier-1 gate + the correctness-tooling matrix (DESIGN.md §11):
#
#   0. One reader: `getenv` appears in src/ only inside the runtime
#      configuration (src/base/runtime_config.cpp). Portability: ISA flags
#      appear in src/ CMake files only on the two SIMD sources.
#   1. Release build (CMakePresets.json `release`) + full ctest under both
#      SIMD dispatch levels, the micro-kernel speedup gate, the benchmark's
#      self-test (perfbench/test_perfbench.py), the strict-analyzer reruns
#      and the injector-off allocation gate.
#   2. Model-checker stage (CMakePresets.json `verify`): the schedule
#      explorer's clean gate, mutation self-tests and deterministic replay,
#      plus the transport conformance suite with schedule points compiled in.
#   3. Repo lint (scripts/lint.sh): naked-allocation / sleep_for /
#      relaxed-allowlist rules, header self-sufficiency, and — when the
#      clang tools exist — thread-safety analysis, clang-format, clang-tidy.
#   4. ThreadSanitizer preset over the suites that exercise the cross-thread
#      buffer handoff and the protocol analyzer's watchdog.
#   5. ASan+UBSan preset over the ENTIRE test suite.
#
# Usage: scripts/check.sh                 # from the repo root
#        SKIP_VERIFY=1 scripts/check.sh   # skip stage 2
#        SKIP_TSAN=1   scripts/check.sh   # skip stage 4
#        SKIP_SAN=1    scripts/check.sh   # skip stages 4 and 5
#
# Every stage runs even when an earlier one fails: a stage stops at its own
# first failing command, and the script then lists each failed stage and
# exits non-zero if there was any.
set -uo pipefail
cd "$(dirname "$0")/.."

failed_stages=()

# run_stage <title> <function>: runs one stage in a subshell under `set -e`
# and records its title if it fails.
run_stage() {
  echo "=== $1 ==="
  ( set -e; "$2" )
  local status=$?
  if (( status != 0 )); then
    echo "--- stage failed (exit ${status}): $1"
    failed_stages+=("$1")
  fi
}

stage_one_reader() {
  # Every ADASUM_* variable is parsed, validated and warned about by
  # RuntimeConfig; a second reader in src/ would bring back a private parser.
  # bench/, perfbench/ and tests/ read their own knobs and are exempt.
  hits=$(grep -rn 'getenv' src/ | grep -v '^src/base/runtime_config\.cpp:' \
    || true)
  if [[ -n "${hits}" ]]; then
    echo "getenv outside the runtime configuration:"
    echo "${hits}"
    exit 1
  fi
}
run_stage "one reader: getenv only in src/base/runtime_config.cpp" stage_one_reader

stage_isa_flags() {
  # The binary runs on baseline x86-64 and picks its vector kernels at run
  # time, so only the two SIMD sources (src/tensor/simd/kernels_avx2.cpp and
  # src/nn/kernels_avx2.cpp) may carry ISA flags, and only through their
  # set_source_files_properties call. The nn one must not carry -mfma and
  # must carry -ffp-contract=off: a fused multiply-add would change the
  # training bits (DESIGN.md §18). CMake comments are ignored.
  awk '
    { line = $0; sub(/#.*/, "", line) }
    line ~ /set_source_files_properties\(/ {
      in_call = 1
      src = line
      sub(/.*set_source_files_properties\([[:space:]]*/, "", src)
      sub(/[[:space:]].*/, "", src)
    }
    line ~ /-mavx2|-mfma|-mf16c|-march/ {
      tensor = FILENAME == "src/tensor/CMakeLists.txt" && \
               src == "simd/kernels_avx2.cpp"
      nn = FILENAME == "src/nn/CMakeLists.txt" && src == "kernels_avx2.cpp"
      if (!(in_call && (tensor || nn))) {
        print FILENAME ":" FNR ": ISA flag outside the SIMD sources: " $0
        bad = 1
      }
    }
    in_call && FILENAME == "src/nn/CMakeLists.txt" && \
        src == "kernels_avx2.cpp" { nn_flags = nn_flags " " line }
    in_call && line ~ /\)/ { in_call = 0 }
    END {
      if (nn_flags ~ /-mfma/) {
        print "src/nn/CMakeLists.txt: kernels_avx2.cpp carries -mfma"
        bad = 1
      }
      if (nn_flags !~ /-ffp-contract=off/) {
        print "src/nn/CMakeLists.txt: kernels_avx2.cpp lacks -ffp-contract=off"
        bad = 1
      }
      exit bad
    }' $(find src -name CMakeLists.txt -o -name '*.cmake' | sort)
}
run_stage "portability: ISA flags only on the two SIMD sources" stage_isa_flags

stage_tier1_auto() {
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$(nproc)"
  # An inline function emitted in an AVX2 object lands under a weak symbol,
  # and the linker may keep that copy for baseline callers too; the AVX2
  # objects must define none.
  if grep -q '^ADASUM_SIMD_AVX2_COMPILES:INTERNAL=1' build/CMakeCache.txt; then
    for obj in build/src/tensor/CMakeFiles/adasum_tensor.dir/simd/kernels_avx2.cpp.o \
               build/src/nn/CMakeFiles/adasum_nn.dir/kernels_avx2.cpp.o; do
      weak=$(nm --defined-only "${obj}" | awk '$2 ~ /^[WVu]$/')
      if [[ -n "${weak}" ]]; then
        echo "weak symbols in ${obj}:"
        echo "${weak}"
        exit 1
      fi
    done
  fi
  ctest --preset release -j "$(nproc)"
}
run_stage "tier-1: build + ctest (ADASUM_SIMD=auto)" stage_tier1_auto

stage_tier1_scalar() {
  # The scalar fallback is a first-class code path (non-AVX2 hosts run it for
  # every kernel); the whole suite must hold on it, not just the parity tests.
  (cd build && ADASUM_SIMD=scalar ctest --output-on-failure -j "$(nproc)")
}
run_stage "tier-1: ctest (ADASUM_SIMD=scalar)" stage_tier1_scalar

stage_kernel_gate() {
  # Writes BENCH_kernels.json and exits nonzero if the dispatched kernels lose
  # their speedup floors over the scalar oracle (no-op pass on non-AVX2 hosts).
  ./build/bench/bench_micro_kernels --kernels_json
}
run_stage "kernel gate: SIMD dispatch speedup floors" stage_kernel_gate

stage_overlap_gate() {
  # Writes BENCH_pipeline.json and exits nonzero unless the background-engine
  # config beats the inline config by >= 1.3x on the 64 MiB / 4-rank step with
  # zero steady-state pool allocations and bit-identical results.
  ./build/bench/bench_pipeline --pipeline_json
}
run_stage "overlap gate: pipelined step speedup floor" stage_overlap_gate

stage_perfbench_selftest() {
  # The repo benchmark (BENCHMARK.json) at reduced size: every named metric
  # prints with its unit, inputs are a pure function of the seed, traced and
  # untraced runs reach the same result checksum, and each run's own checks
  # hold. For train-lenet those include a bit-repeat of every episode and all
  # ranks' parameters identical after training. Builds .bench_build/.
  python3 perfbench/test_perfbench.py
}
run_stage "benchmark self-test: perfbench correctness gates" stage_perfbench_selftest

stage_scaleout_gate() {
  # The release-mode property sweep at full width (randomized worlds up to
  # p = 512, non-pow2 node counts, ragged last nodes) plus the zero-allocation
  # steady state at p = 256.
  ./build/tests/scaleout_test
  # Writes BENCH_scaleout.json and exits nonzero unless topology-aware
  # hierarchical Adasum holds >= 1.5x over the placement-oblivious flat RVH at
  # 256 modeled ranks AND the autotuner's pick lands within 1.2x of the best
  # measured candidate on the wire-delay world.
  ./build/bench/bench_scaleout --scaleout_json
}
run_stage "scale-out gate: large-world parity + hierarchical/autotuner floors" stage_scaleout_gate

stage_compression() {
  # The wire codec's scalar and AVX2 TUs must agree bit-for-bit AND the whole
  # compression suite must hold when forced onto the scalar fallback (parity
  # tests alone can't catch a scalar-only decode bug).
  ./build/tests/compress_test
  ADASUM_SIMD=scalar ./build/tests/compress_test
}
run_stage "compression: codec + compressed collectives on both dispatch levels" stage_compression

stage_compression_gate() {
  # Writes BENCH_compress.json and exits nonzero unless int8 holds >= 3x step
  # speedup and >= 3.9x measured bytes-on-wire reduction (sideband-capped at
  # ~3.95x) on the 64 MiB / 4-rank Adasum step under the wire-delay model,
  # with zero steady-state pool allocations, cross-rank bit-equality, and
  # LeNet-5 accuracy parity with error feedback on; the fused int8 decode-add
  # must match the two-pass decode + add bitwise and, when a vector ISA is
  # active, beat it by >= 1.5x.
  ./build/bench/bench_compress --compress_json
}
run_stage "compression gate: wire-byte reduction + step speedup floors" stage_compression_gate

stage_transport() {
  # The delivery contract on every registered transport (DESIGN.md §15), then
  # the whole RVH / pipelining / compression surface rerun with the one-sided
  # shared-memory transport selected — results must be bit-identical to the
  # mailbox default, so any test that passes above must pass here too.
  ./build/tests/transport_test
  ADASUM_TRANSPORT=shm ./build/tests/collectives_test
  ADASUM_TRANSPORT=shm ./build/tests/pipeline_test
  ADASUM_TRANSPORT=shm ./build/tests/compress_test
}
run_stage "transport: conformance suite + shm zero-copy stage" stage_transport

stage_strict_analyzer() {
  # The protocol analyzer in strict mode: every collective's declared message
  # schedule (for RVH, read off the executor's level plan, tag layout
  # included) must match what it sends and receives, across the compressed
  # matrix on both transports (the zero-copy unwind copies forwarded sub-blob
  # runs out of the peer's view) and the hierarchical cases on the zero-copy
  # transport. With chunking forced on, the ring primitives declare their
  # chunk streams, including the hierarchical allreduce's node-local rings
  # and, on ragged shapes and non-power-of-two node counts, the RVH executor's
  # fold.
  # The TSan stage also runs collectives_test strictly, but SKIP_SAN=1 skips
  # it.
  ADASUM_ANALYZE=on ./build/tests/compress_test
  ADASUM_ANALYZE=on ADASUM_TRANSPORT=shm ./build/tests/compress_test
  ADASUM_ANALYZE=on ADASUM_TRANSPORT=shm ./build/tests/collectives_test
  ADASUM_ANALYZE=on ADASUM_PIPELINE=on ./build/tests/collectives_test
  ADASUM_ANALYZE=on ADASUM_PIPELINE=on ./build/tests/primitives_test
  ADASUM_ANALYZE=on ADASUM_PIPELINE=on ./build/tests/scaleout_test \
    --gtest_filter='ScaleOut.RaggedLastNodeAndNonPow2NodeCountsPinned'
}
run_stage "strict analyzer: compressed and zero-copy schedules" stage_strict_analyzer

stage_transport_gate() {
  # Writes BENCH_rvh.json and exits nonzero unless the shm transport holds
  # >= 2x the mailbox transport on the in-place 64 Mi-float allreduce with
  # bit parity and zero steady-state allocations on both transports, or if
  # any other of its claims prints NOT REPRODUCED.
  ./build/bench/bench_fig4_allreduce_latency
}
run_stage "transport gate: zero-copy throughput floor" stage_transport_gate

stage_allocation_gate() {
  # The fault machinery AND the (disabled) protocol analyzer must add zero
  # steady-state heap allocations (operator-new hook, same as bench_fig4's
  # zero-copy gate), and so must a warm DistributedOptimizer step.
  ./build/tests/chaos_test --gtest_filter='Chaos.FaultTolerantHotPathAddsNoSteadyStateAllocations:Chaos.AnalyzerOffPathIsByteAndAllocationIdenticalToSeed'
  ./build/tests/distributed_optimizer_test --gtest_filter='DistributedOptimizerTest.WarmRoundsMakeNoHeapAllocations'
}
run_stage "allocation gate: injector-off fault path, optimizer round" stage_allocation_gate

stage_verify() {
  # The schedule-exploring model checker (DESIGN.md §16): clean-run gate,
  # mutation-table detection, deterministic replay, and the verify-ON rerun
  # of the transport conformance suite. Off the tier-1 path by construction
  # (its own build tree); tier-1 binaries carry zero schedule points, which
  # VerifyOffParity pins above.
  cmake --preset verify >/dev/null
  cmake --build --preset verify -j "$(nproc)" --target verify_test \
    transport_test
  ./build-verify/tests/verify_test
  ./build-verify/tests/transport_test
}
if [[ "${SKIP_VERIFY:-0}" == "1" ]]; then
  echo "=== verify: skipped (SKIP_VERIFY=1) ==="
else
  run_stage "verify: model checker + mutation self-tests (ADASUM_VERIFY=ON)" stage_verify
fi

stage_lint() {
  scripts/lint.sh
}
run_stage "lint: repo rules + clang tools (if installed)" stage_lint

stage_tsan() {
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)" --target comm_test \
    collectives_test chaos_test analysis_test scaleout_test transport_test \
    distributed_optimizer_test partitioned_optimizer_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/comm_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/collectives_test
  # The seqlock publish/consume path under the race detector: the transport
  # conformance contract, then the collectives riding the zero-copy views.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/transport_test
  TSAN_OPTIONS="halt_on_error=1" ADASUM_TRANSPORT=shm \
    ./build-tsan/tests/collectives_test
  # A fixed, smaller seed window keeps the TSan pass deterministic and fast
  # while still sweeping every fault profile under the race detector.
  TSAN_OPTIONS="halt_on_error=1" CHAOS_SCHEDULES=48 CHAOS_SEED_BASE=1000 \
    ./build-tsan/tests/chaos_test
  # The analyzer's watchdog/epoch machinery under the race detector, with the
  # hooks live on every message.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/analysis_test
  # Reduced width: p = 512 under the race detector means 512 instrumented
  # threads per world — the parity properties hold identically at p <= 128
  # while the pass stays minutes, not hours.
  TSAN_OPTIONS="halt_on_error=1" SCALEOUT_MAX_P=128 \
    ./build-tsan/tests/scaleout_test
  TSAN_OPTIONS="halt_on_error=1" ADASUM_ANALYZE=on \
    ./build-tsan/tests/collectives_test
  # The optimizers with chunking off: the background engine's owner/engine
  # handoff over buckets whose payload is the parameters themselves.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/distributed_optimizer_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/partitioned_optimizer_test
}

stage_tsan_pipeline() {
  # The engine thread and the chunk streams are new race surface; the whole
  # suite must hold under the race detector with chunking forced on (the
  # pipeline-off tests double as chunked-path tests then, bit-for-bit). The
  # reduced chaos window keeps the pass deterministic and bounded.
  cmake --build --preset tsan -j "$(nproc)"
  TSAN_OPTIONS="halt_on_error=1" ADASUM_PIPELINE=on \
    CHAOS_SCHEDULES=24 CHAOS_SEED_BASE=1000 SCALEOUT_MAX_P=128 \
    ctest --preset tsan -j "$(nproc)"
  # Strict epoch validation over the chunked schedules, hooks on every chunk.
  TSAN_OPTIONS="halt_on_error=1" ADASUM_ANALYZE=on ADASUM_PIPELINE=on \
    ./build-tsan/tests/pipeline_test
}

stage_asan() {
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "$(nproc)"
  # Reduced chaos window: ASan roughly doubles runtimes and the full seed sweep
  # already ran in tier-1; the sanitizer pass is after memory/UB bugs, not the
  # statistical coverage.
  ASAN_OPTIONS="detect_leaks=1" CHAOS_SCHEDULES=48 CHAOS_SEED_BASE=1000 \
    SCALEOUT_MAX_P=256 ctest --preset asan-ubsan -j "$(nproc)"
  # The compressed and uncompressed collectives once more with chunking forced
  # on: an eager bulk receive reads a monolithic message in place (a pooled
  # payload held past the receive) but stages a chunked stream in scratch, so
  # both eager receive paths run under ASan.
  ASAN_OPTIONS="detect_leaks=1" ADASUM_PIPELINE=on \
    ./build-asan/tests/compress_test
  ASAN_OPTIONS="detect_leaks=1" ADASUM_PIPELINE=on \
    ./build-asan/tests/collectives_test
  # The ctest run above takes the AVX2 nn kernels on an AVX2 host; the
  # baseline build of the same source runs here (DESIGN.md §18).
  ASAN_OPTIONS="detect_leaks=1" ADASUM_SIMD=scalar ./build-asan/tests/nn_test
  # Likewise the codec: the ctest run takes the AVX2 codec kernels, so the
  # scalar ones run through the public compress entry points only here.
  ASAN_OPTIONS="detect_leaks=1" ADASUM_SIMD=scalar \
    ./build-asan/tests/compress_test
}

if [[ "${SKIP_SAN:-0}" == "1" ]]; then
  echo "=== sanitizers: skipped (SKIP_SAN=1) ==="
else
  if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
    echo "=== tsan: skipped (SKIP_TSAN=1) ==="
  else
    run_stage "tsan: comm_test + collectives_test + chaos_test + analysis_test" stage_tsan
    run_stage "tsan: full ctest with ADASUM_PIPELINE=on" stage_tsan_pipeline
  fi
  run_stage "asan+ubsan: full ctest suite" stage_asan
fi

if (( ${#failed_stages[@]} > 0 )); then
  echo "=== ${#failed_stages[@]} stage(s) failed ==="
  printf '  %s\n' "${failed_stages[@]}"
  exit 1
fi
echo "=== all checks passed ==="
