// Supporting micro-benchmarks (google-benchmark): the §4.4 implementation
// details — vectorized dot/norm kernels across dtypes, the fused dot-triple
// pass, the local Adasum combine, tensor fusion pack/unpack, and the
// double-vs-float accumulation ablation from DESIGN.md §4.
//
// Besides the google-benchmark suite, `--kernels_json[=PATH]` runs the SIMD
// dispatch gate: hand-rolled timings of every dispatched kernel against the
// scalar oracle across dtypes and sizes, written to BENCH_kernels.json, with
// hard speedup floors enforced on AVX2 hosts (exit nonzero on regression).
// A plain no-argument run regenerates the JSON artifact first (gates reported
// but not enforced) and then runs the google-benchmark suite, so the
// documented `for b in build/bench/*; do $b; done` loop refreshes it too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "base/half.h"
#include "base/rng.h"
#include "bench_util.h"
#include "comm/buffer_pool.h"
#include "core/adasum.h"
#include "nn/kernels.h"
#include "tensor/fusion.h"
#include "tensor/kernels.h"
#include "tensor/simd/simd.h"

namespace {

using namespace adasum;

template <typename T>
std::vector<T> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(static_cast<float>(rng.normal(0, 1)));
  return v;
}

template <typename T>
void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values<T>(n, 1);
  const auto b = random_values<T>(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::dot(std::span<const T>(a), std::span<const T>(b)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 2 *
                          sizeof(T));
}
BENCHMARK(BM_Dot<Half>)->Arg(1 << 12)->Arg(1 << 18);
BENCHMARK(BM_Dot<float>)->Arg(1 << 12)->Arg(1 << 18);
BENCHMARK(BM_Dot<double>)->Arg(1 << 12)->Arg(1 << 18);

template <typename T>
void BM_DotTriple(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values<T>(n, 3);
  const auto b = random_values<T>(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::dot_triple(std::span<const T>(a), std::span<const T>(b)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 2 *
                          sizeof(T));
}
BENCHMARK(BM_DotTriple<float>)->Arg(1 << 12)->Arg(1 << 18);
BENCHMARK(BM_DotTriple<Half>)->Arg(1 << 18);

// The fused one-pass triple vs three separate reductions (§4.4.2 ablation).
void BM_ThreeSeparateDots(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values<float>(n, 5);
  const auto b = random_values<float>(n, 6);
  for (auto _ : state) {
    kernels::DotTriple t;
    t.ab = kernels::dot(std::span<const float>(a), std::span<const float>(b));
    t.aa = kernels::norm_squared(std::span<const float>(a));
    t.bb = kernels::norm_squared(std::span<const float>(b));
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 2 *
                          sizeof(float));
}
BENCHMARK(BM_ThreeSeparateDots)->Arg(1 << 12)->Arg(1 << 18);

template <typename T>
void BM_ScaledSum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values<T>(n, 7);
  const auto b = random_values<T>(n, 8);
  std::vector<T> out(n);
  for (auto _ : state) {
    kernels::scaled_sum(std::span<const T>(a), 0.75, std::span<const T>(b),
                        0.8, std::span<T>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 3 *
                          sizeof(T));
}
BENCHMARK(BM_ScaledSum<float>)->Arg(1 << 18);
BENCHMARK(BM_ScaledSum<Half>)->Arg(1 << 18);

void BM_AdasumPair(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Tensor a({n}), b({n});
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.normal());
    b.set(i, rng.normal());
  }
  for (auto _ : state) {
    Tensor r = adasum_pair(a, b);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 4);
}
BENCHMARK(BM_AdasumPair)->Arg(1 << 12)->Arg(1 << 18);

// The in-place combine the zero-copy tree reduction runs per node: same
// arithmetic as BM_AdasumPair, minus the per-call result allocation.
void BM_AdasumPairInplace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Tensor a({n}), b({n});
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.normal());
    b.set(i, rng.normal());
  }
  for (auto _ : state) {
    adasum_pair_inplace(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 4);
}
BENCHMARK(BM_AdasumPairInplace)->Arg(1 << 12)->Arg(1 << 18);

void BM_FusionPackUnpack(benchmark::State& state) {
  const int tensors = static_cast<int>(state.range(0));
  Rng rng(10);
  std::vector<Tensor> owned;
  std::vector<const Tensor*> ptrs;
  std::vector<Tensor*> mut;
  for (int i = 0; i < tensors; ++i) {
    owned.emplace_back(
        std::vector<std::size_t>{static_cast<std::size_t>(256 + 64 * i)});
  }
  for (auto& t : owned) {
    ptrs.push_back(&t);
    mut.push_back(&t);
  }
  for (auto _ : state) {
    FusedTensor fused = fuse(ptrs);
    unfuse(fused, mut);
    benchmark::DoNotOptimize(fused.flat.data());
  }
}
BENCHMARK(BM_FusionPackUnpack)->Arg(8)->Arg(64);

// The persistent-FusionBuffer path the optimizers use: after the first pack
// the backing store and the slice table are both reused, so a steady-state
// step pays only the payload memcpys.
void BM_FusionBufferReuse(benchmark::State& state) {
  const int tensors = static_cast<int>(state.range(0));
  std::vector<Tensor> owned;
  std::vector<const Tensor*> ptrs;
  std::vector<Tensor*> mut;
  for (int i = 0; i < tensors; ++i) {
    owned.emplace_back(
        std::vector<std::size_t>{static_cast<std::size_t>(256 + 64 * i)});
  }
  for (auto& t : owned) {
    ptrs.push_back(&t);
    mut.push_back(&t);
  }
  FusionBuffer buffer;
  buffer.pack(ptrs);  // first pack allocates; the loop measures reuse
  for (auto _ : state) {
    FusedTensor& fused = buffer.pack(ptrs);
    buffer.unpack(mut);
    benchmark::DoNotOptimize(fused.flat.data());
  }
}
BENCHMARK(BM_FusionBufferReuse)->Arg(8)->Arg(64);

// Warm pool acquire/release round-trip vs allocating a fresh vector — the
// per-message cost difference the pooled transport is built on.
void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  BufferPool pool;
  pool.release(pool.acquire(bytes));  // warm: one buffer on the free list
  for (auto _ : state) {
    std::vector<std::byte> b = pool.acquire(bytes);
    benchmark::DoNotOptimize(b.data());
    pool.release(std::move(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_BufferPoolAcquireRelease)->Arg(1 << 12)->Arg(1 << 22);

void BM_FreshVectorAllocation(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<std::byte> b(bytes);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FreshVectorAllocation)->Arg(1 << 12)->Arg(1 << 22);

// Accumulation ablation: the same fp32 reduction with a float accumulator —
// faster on some machines but loses the precision §4.4.1 requires (the
// correctness side is asserted in tests/tensor_test.cpp).
void BM_FloatAccumulatorDot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values<float>(n, 11);
  const auto b = random_values<float>(n, 12);
  for (auto _ : state) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 2 *
                          sizeof(float));
}
BENCHMARK(BM_FloatAccumulatorDot)->Arg(1 << 18);

// ---- SIMD kernel gate (--kernels_json) ------------------------------------
//
// Times the byte-level dispatch-table kernels directly — the same function
// pointers AdasumRVH, the optimizers and the fusion buffer call — so the
// numbers measure exactly what the hot path runs. Scalar and dispatched
// columns come from the same binary in one process via simd::table_for.

namespace kernels_gate {

using Clock = std::chrono::steady_clock;

// Timing protocol for the JSON artifact: kTimingWarmup warm/calibration
// calls, then the MEDIAN of kTimingReps calibrated reps (bench_util.h). A
// kernel row times its two columns as kTimingReps interleaved pairs and
// reports the median pair ratio as its speedup. Best-of would flatter the
// dispatch, mean would fold in scheduler hiccups; the median is what the
// gate floors are calibrated against.
constexpr int kTimingWarmup = 2;
constexpr int kTimingReps = 5;

// Runs the two warmup calls and returns how many calls fill about 4 ms.
template <typename F>
std::size_t calibrated_iters(F& op) {
  op();  // warm: page-in, dispatch resolve
  const auto t0 = Clock::now();
  op();  // calibration call (the second warmup)
  const double once =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(4e-3 / std::max(once, 1e-9)));
}

template <typename F>
double seconds_per_call(F& op, std::size_t iters) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) op();
  return std::chrono::duration<double>(Clock::now() - t0).count() /
         static_cast<double>(iters);
}

template <typename F>
double median_seconds_per_call(F&& op) {
  const std::size_t iters = calibrated_iters(op);
  std::vector<double> reps;
  reps.reserve(kTimingReps);
  for (int rep = 0; rep < kTimingReps; ++rep)
    reps.push_back(seconds_per_call(op, iters));
  return adasum::bench::median(std::move(reps));
}

// Scalar and dispatched timings of one row, taken as kTimingReps interleaved
// (scalar, dispatched) pairs: a scheduler hiccup or a burst of CPU steal hits
// both columns of a pair alike, and the median pair ratio shrugs off the
// pairs it hits unevenly.
struct PairedTiming {
  double scalar_s, dispatched_s, speedup;
};

template <typename S, typename D>
PairedTiming paired_seconds_per_call(S&& scalar_op, D&& dispatched_op) {
  const std::size_t scalar_iters = calibrated_iters(scalar_op);
  const std::size_t dispatched_iters = calibrated_iters(dispatched_op);
  std::vector<double> ts, ta, ratio;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    ts.push_back(seconds_per_call(scalar_op, scalar_iters));
    ta.push_back(seconds_per_call(dispatched_op, dispatched_iters));
    ratio.push_back(ts.back() / ta.back());
  }
  return {adasum::bench::median(std::move(ts)),
          adasum::bench::median(std::move(ta)),
          adasum::bench::median(std::move(ratio))};
}

struct Row {
  const char* kernel;
  std::string dtype;
  std::size_t n;
  double scalar_gbs;
  double dispatched_gbs;
  // Median of the paired scalar/dispatched time ratios (1.0 when the two
  // columns run the same code).
  double speedup;
  // True when the dispatched table holds the scalar pointer for this entry
  // (a measured per-(kernel, dtype) demotion in dispatch.cpp): identical
  // code, so the row reuses the scalar timing instead of measuring the same
  // function twice and calling the noise a speedup or a regression.
  bool demoted = false;
};

struct ConvRow {
  const char* direction;
  std::size_t n;
  double per_element_gbs;
  double bulk_scalar_gbs;
  double bulk_dispatched_gbs;
};

constexpr std::size_t kGateSizes[] = {1u << 12, 1u << 15, 1u << 18, 1u << 21};

template <typename T>
void bench_dtype(const simd::KernelTable& scalar_t,
                 const simd::KernelTable& active_t, std::size_t n,
                 std::vector<Row>& rows) {
  constexpr int d = static_cast<int>(dtype_of<T>);
  const std::string dn = dtype_name(dtype_of<T>);
  const auto a = random_values<T>(n, 21);
  const auto b = random_values<T>(n, 22);
  std::vector<T> y = random_values<T>(n, 23);
  std::vector<T> out(n);
  const std::byte* pa = reinterpret_cast<const std::byte*>(a.data());
  const std::byte* pb = reinterpret_cast<const std::byte*>(b.data());
  std::byte* py = reinterpret_cast<std::byte*>(y.data());
  std::byte* po = reinterpret_cast<std::byte*>(out.data());
  const bool same = &scalar_t == &active_t;
  const double sz = static_cast<double>(n) * sizeof(T);

  auto add_row = [&](const char* kernel, double bytes_per_call,
                     bool same_entry, auto&& run) {
    PairedTiming t;
    if (same || same_entry) {
      const double ts = median_seconds_per_call([&] { run(scalar_t); });
      t = {ts, ts, 1.0};
    } else {
      t = paired_seconds_per_call([&] { run(scalar_t); },
                                  [&] { run(active_t); });
    }
    rows.push_back({kernel, dn, n, bytes_per_call / t.scalar_s / 1e9,
                    bytes_per_call / t.dispatched_s / 1e9, t.speedup,
                    same_entry && !same});
  };

  add_row("dot", 2 * sz, scalar_t.dot[d] == active_t.dot[d],
          [&](const simd::KernelTable& t) {
            benchmark::DoNotOptimize(t.dot[d](pa, pb, n));
          });
  add_row("dot_triple", 2 * sz,
          scalar_t.dot_triple[d] == active_t.dot_triple[d],
          [&](const simd::KernelTable& t) {
            double triple[3];
            t.dot_triple[d](pa, pb, n, triple);
            benchmark::DoNotOptimize(triple[0]);
          });
  add_row("scaled_sum", 3 * sz,
          scalar_t.scaled_sum[d] == active_t.scaled_sum[d],
          [&](const simd::KernelTable& t) {
            t.scaled_sum[d](pa, 0.75, pb, 0.8, po, n);
            benchmark::DoNotOptimize(po);
          });
  // alpha = 0 keeps y fixed across calibration iterations (an fp16 y would
  // otherwise random-walk into infinity); FMA timing is value-independent.
  add_row("axpy", 3 * sz, scalar_t.axpy[d] == active_t.axpy[d],
          [&](const simd::KernelTable& t) {
            t.axpy[d](0.0, pa, py, n);
            benchmark::DoNotOptimize(py);
          });
  add_row("add", 3 * sz, scalar_t.add[d] == active_t.add[d],
          [&](const simd::KernelTable& t) {
            t.add[d](pa, py, n);
            benchmark::DoNotOptimize(py);
          });
  add_row("scale", 2 * sz, scalar_t.scale[d] == active_t.scale[d],
          [&](const simd::KernelTable& t) {
            t.scale[d](1.0, py, n);  // alpha = 1: stable values, same cost
            benchmark::DoNotOptimize(py);
          });
  add_row("has_nonfinite", sz,
          scalar_t.has_nonfinite[d] == active_t.has_nonfinite[d],
          [&](const simd::KernelTable& t) {
            benchmark::DoNotOptimize(t.has_nonfinite[d](pa, n));
          });
}

void bench_convert(const simd::KernelTable& scalar_t,
                   const simd::KernelTable& active_t, std::size_t n,
                   std::vector<ConvRow>& rows) {
  const auto src = random_values<float>(n, 24);
  std::vector<std::uint16_t> h(n);
  std::vector<float> f(n);
  for (std::size_t i = 0; i < n; ++i) h[i] = Half::float_to_bits(src[i]);
  const bool same = &scalar_t == &active_t;
  const double bytes = static_cast<double>(n) * (2 + 4);

  {
    const double tp = median_seconds_per_call([&] {
      for (std::size_t i = 0; i < n; ++i) f[i] = Half::bits_to_float(h[i]);
      benchmark::DoNotOptimize(f.data());
    });
    const double ts = median_seconds_per_call([&] {
      scalar_t.half_to_float(h.data(), f.data(), n);
      benchmark::DoNotOptimize(f.data());
    });
    const double ta = same ? ts : median_seconds_per_call([&] {
      active_t.half_to_float(h.data(), f.data(), n);
      benchmark::DoNotOptimize(f.data());
    });
    rows.push_back({"half_to_float", n, bytes / tp / 1e9, bytes / ts / 1e9,
                    bytes / ta / 1e9});
  }
  {
    const double tp = median_seconds_per_call([&] {
      for (std::size_t i = 0; i < n; ++i) h[i] = Half::float_to_bits(src[i]);
      benchmark::DoNotOptimize(h.data());
    });
    const double ts = median_seconds_per_call([&] {
      scalar_t.float_to_half(src.data(), h.data(), n);
      benchmark::DoNotOptimize(h.data());
    });
    const double ta = same ? ts : median_seconds_per_call([&] {
      active_t.float_to_half(src.data(), h.data(), n);
      benchmark::DoNotOptimize(h.data());
    });
    rows.push_back({"float_to_half", n, bytes / tp / 1e9, bytes / ts / 1e9,
                    bytes / ta / 1e9});
  }
}

// The nn kernel table at LeNet-5's shapes (16x16 input, batch 32, the
// train-lenet configuration): the baseline build against the active one,
// through the same interleaved pairs and the same no-row-below-0.95x floor as
// the tensor kernels. Gradients are 75% exact zeros in random positions, as
// ReLU and max pooling leave them. A row's bytes are its input, parameter
// and output arrays, read or written once.
void bench_nn(const nn::Kernels& base_t, const nn::Kernels& active_t,
              std::vector<Row>& rows) {
  constexpr std::size_t kBatch = 32;
  const bool same = &base_t == &active_t;
  auto sparse = [](std::size_t n, std::uint64_t seed) {
    std::vector<float> v = random_values<float>(n, seed);
    Rng rng(seed + 1);
    for (float& x : v)
      if (rng.uniform() < 0.75) x = 0.0f;
    return v;
  };
  // A demoted entry (the AVX2 table holding the baseline pointer) runs the
  // same code in both columns, as in bench_dtype.
  auto add_row = [&](const char* kernel, std::size_t n, double bytes,
                     bool same_entry, auto&& run) {
    PairedTiming t;
    if (same || same_entry) {
      const double ts = median_seconds_per_call([&] { run(base_t); });
      t = {ts, ts, 1.0};
    } else {
      t = paired_seconds_per_call([&] { run(base_t); },
                                  [&] { run(active_t); });
    }
    rows.push_back({kernel, "float32", n, bytes / t.scalar_s / 1e9,
                    bytes / t.dispatched_s / 1e9, t.speedup,
                    same_entry && !same});
  };

  const nn::ConvShape conv1{.batch = kBatch, .in_c = 1, .out_c = 6, .h = 16,
                            .w = 16, .oh = 16, .ow = 16, .kernel = 5,
                            .stride = 1, .padding = 2};
  const nn::ConvShape conv2{.batch = kBatch, .in_c = 6, .out_c = 16, .h = 8,
                            .w = 8, .oh = 4, .ow = 4, .kernel = 5,
                            .stride = 1, .padding = 0};
  struct ConvCase {
    const char* forward;
    const char* backward;
    nn::ConvShape s;
  };
  for (const ConvCase& c : {ConvCase{"nn.conv1_forward",
                                     "nn.conv1_backward_params", conv1},
                            ConvCase{"nn.conv2_forward",
                                     "nn.conv2_backward_params", conv2}}) {
    const nn::ConvShape& s = c.s;
    const std::size_t in = s.batch * s.in_c * s.h * s.w;
    const std::size_t wn = s.out_c * s.in_c * s.kernel * s.kernel;
    const std::size_t out = s.batch * s.out_c * s.oh * s.ow;
    const auto x = random_values<float>(in, 31);
    const auto w = random_values<float>(wn, 32);
    const auto b = random_values<float>(s.out_c, 33);
    const auto gy = sparse(out, 34);
    std::vector<float> y(out), gw(wn), gb(s.out_c);
    const double bytes =
        static_cast<double>(in + wn + s.out_c + out) * sizeof(float);
    add_row(c.forward, out, bytes,
            base_t.conv_forward == active_t.conv_forward,
            [&](const nn::Kernels& t) {
      t.conv_forward(s, x.data(), w.data(), b.data(), y.data());
      benchmark::DoNotOptimize(y.data());
    });
    add_row(c.backward, out, bytes,
            base_t.conv_backward == active_t.conv_backward,
            [&](const nn::Kernels& t) {
      t.conv_backward(s, x.data(), w.data(), gy.data(), nullptr, gw.data(),
                      gb.data());
      benchmark::DoNotOptimize(gw.data());
    });
  }

  // fc1 (64 -> 120) and fc2 (120 -> 84): forward y = x wᵀ, and the weight
  // gradient gw += gyᵀ x as Linear::backward_params accumulates it.
  struct FcCase {
    const char* forward;
    const char* weight_grad;
    std::size_t in, out;
  };
  for (const FcCase& c : {FcCase{"nn.fc1_matmul_bt", "nn.fc1_matmul_at", 64,
                                 120},
                          FcCase{"nn.fc2_matmul_bt", "nn.fc2_matmul_at", 120,
                                 84}}) {
    const auto x = sparse(kBatch * c.in, 35);
    const auto w = random_values<float>(c.out * c.in, 36);
    const auto gy = sparse(kBatch * c.out, 37);
    std::vector<float> y(kBatch * c.out), gw(c.out * c.in);
    const double bytes =
        static_cast<double>(kBatch * c.in + c.out * c.in + kBatch * c.out) *
        sizeof(float);
    add_row(c.forward, kBatch * c.out, bytes,
            base_t.matmul_bt == active_t.matmul_bt,
            [&](const nn::Kernels& t) {
      t.matmul_bt(x.data(), w.data(), y.data(), kBatch, c.in, c.out, false);
      benchmark::DoNotOptimize(y.data());
    });
    add_row(c.weight_grad, c.out * c.in, bytes,
            base_t.matmul_at == active_t.matmul_at,
            [&](const nn::Kernels& t) {
      t.matmul_at(gy.data(), x.data(), gw.data(), kBatch, c.out, c.in, true);
      benchmark::DoNotOptimize(gw.data());
    });
  }
}

struct Gate {
  const char* name;
  double value;
  double threshold;
  bool pass;
};

// Speedup floors from the PR acceptance criteria. Max over sizes: the gate
// asserts the vector engine's headroom exists, not that every working set is
// bandwidth-unbound.
std::vector<Gate> evaluate_gates(const std::vector<Row>& rows,
                                 const std::vector<ConvRow>& conv) {
  auto max_kernel_speedup = [&](std::string_view kernel,
                                std::string_view dtype) {
    double best = 0.0;
    for (const Row& r : rows)
      if (kernel == r.kernel && dtype == r.dtype)
        best = std::max(best, r.speedup);
    return best;
  };
  auto max_conv_speedup = [&](std::string_view direction) {
    double best = 0.0;
    for (const ConvRow& r : conv)
      if (direction == r.direction)
        best = std::max(best, r.bulk_dispatched_gbs / r.per_element_gbs);
    return best;
  };
  const std::string f32 = dtype_name(DType::kFloat32);
  std::vector<Gate> gates;
  auto add = [&](const char* name, double value, double threshold) {
    gates.push_back({name, value, threshold, value >= threshold});
  };
  add("dot_triple_f32_speedup_ge_2x", max_kernel_speedup("dot_triple", f32),
      2.0);
  add("scaled_sum_f32_speedup_ge_2x", max_kernel_speedup("scaled_sum", f32),
      2.0);
  add("half_to_float_bulk_speedup_ge_3x", max_conv_speedup("half_to_float"),
      3.0);
  add("float_to_half_bulk_speedup_ge_3x", max_conv_speedup("float_to_half"),
      3.0);
  // No-regression floor: with the tuned dispatch picks (dispatch.cpp) no
  // (kernel, dtype, size) row may lose to the scalar oracle. Demoted rows
  // run identical code and hold ratio 1.0 by construction; measured rows
  // are gated on their median paired ratio.
  double worst = std::numeric_limits<double>::infinity();
  for (const Row& r : rows) worst = std::min(worst, r.speedup);
  add("dispatched_no_row_below_0p95x_scalar", worst, 0.95);
  return gates;
}

// Returns the process exit code (0 = gates pass or host is scalar-only).
int run(const char* path, bool enforce) {
  const simd::KernelTable& scalar_t = simd::scalar_table();
  const simd::KernelTable& active_t = simd::active_table();
  const bool scalar_only = &active_t == &scalar_t;

  std::vector<Row> rows;
  std::vector<ConvRow> conv;
  for (const std::size_t n : kGateSizes) {
    bench_dtype<Half>(scalar_t, active_t, n, rows);
    bench_dtype<float>(scalar_t, active_t, n, rows);
    bench_dtype<double>(scalar_t, active_t, n, rows);
    bench_convert(scalar_t, active_t, n, conv);
  }
  bench_nn(*nn::kernels_for(simd::Level::kScalar), nn::active_kernels(),
           rows);
  // On a scalar-only host there is no vector engine to gate: record the
  // measurements, report pass.
  const std::vector<Gate> gates =
      scalar_only ? std::vector<Gate>{} : evaluate_gates(rows, conv);
  bool pass = true;
  for (const Gate& g : gates) pass = pass && g.pass;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro_kernels: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"micro_kernels_simd_gate\",\n");
  std::fprintf(out, "  \"host\": %s,\n", adasum::bench::host_json().c_str());
  std::fprintf(out, "  \"active_level\": \"%s\",\n", active_t.name);
  std::fprintf(out, "  \"scalar_only\": %s,\n", scalar_only ? "true" : "false");
  std::fprintf(out, "  \"iters\": %d,\n", kTimingReps);
  std::fprintf(out, "  \"warmup\": %d,\n", kTimingWarmup);
  std::fprintf(out, "  \"statistic\": \"median\",\n");
  std::fprintf(out, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"dtype\": \"%s\", \"size\": %zu, "
                 "\"scalar_gb_per_sec\": %.3f, \"dispatched_gb_per_sec\": "
                 "%.3f, \"speedup\": %.2f, \"demoted\": %s}%s\n",
                 r.kernel, r.dtype.c_str(), r.n, r.scalar_gbs, r.dispatched_gbs,
                 r.speedup, r.demoted ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"fp16_bulk_convert\": [\n");
  for (std::size_t i = 0; i < conv.size(); ++i) {
    const ConvRow& r = conv[i];
    std::fprintf(
        out,
        "    {\"direction\": \"%s\", \"size\": %zu, "
        "\"per_element_gb_per_sec\": %.3f, \"bulk_scalar_gb_per_sec\": %.3f, "
        "\"bulk_dispatched_gb_per_sec\": %.3f, \"speedup_vs_per_element\": "
        "%.2f}%s\n",
        r.direction, r.n, r.per_element_gbs, r.bulk_scalar_gbs,
        r.bulk_dispatched_gbs, r.bulk_dispatched_gbs / r.per_element_gbs,
        i + 1 < conv.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.2f, \"threshold\": "
                 "%.2f, \"pass\": %s}%s\n",
                 g.name, g.value, g.threshold, g.pass ? "true" : "false",
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("kernels gate: active_level=%s, %zu kernel rows -> %s\n",
              active_t.name, rows.size(), path);
  for (const Gate& g : gates)
    std::printf("  gate %-36s %6.2fx (floor %.2fx) %s\n", g.name, g.value,
                g.threshold, g.pass ? "PASS" : "FAIL");
  if (scalar_only)
    std::printf("  gates skipped: no vector ISA on this host/build\n");
  if (!pass && enforce) {
    std::fprintf(stderr, "kernels gate FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace kernels_gate

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  const char* json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--kernels_json") {
      json_only = true;
    } else if (arg.rfind("--kernels_json=", 0) == 0) {
      json_only = true;
      json_path = argv[i] + sizeof("--kernels_json=") - 1;
    }
  }
  if (json_only) return kernels_gate::run(json_path, /*enforce=*/true);
  // Plain run: refresh the JSON artifact (report-only), then the gbench suite.
  if (argc == 1) kernels_gate::run(json_path, /*enforce=*/false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
