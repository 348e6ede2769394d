// Compressed-gradient collectives gate (DESIGN.md §13): one 64 MiB fp32
// Adasum-RVH allreduce on 4 ranks under the PR-3 wire-delay model, once per
// wire codec (off / int8 / int4 / sign), plus a LeNet-5 convergence-parity
// run with error feedback on.
//
// Wire time is simulated by the fault injector: delay_prob = 1 puts a
// bounded sleep on every message's SENDER thread. The sleep is per message
// and the chunk size is fixed, so total wire time is proportional to bytes
// on the wire — compressing the payload 4x cuts the chunk count (and hence
// the injected wire time) by the same factor, which is exactly the resource
// profile of a bandwidth-bound NIC. The delay bound models a SLOW link
// (256 KiB per ~18 ms average ≈ 15 MB/s, a congested WAN/commodity
// interconnect): compression pays for its codec arithmetic only when the
// wire is the bottleneck, and this bench gates exactly that regime. The
// measured speedup ceiling is the wire-byte ratio itself (~3.95x for int8),
// so the floor below leaves room for the codec + reduction compute that the
// sleep model keeps honest.
//
// `--compress_json[=PATH]` writes BENCH_compress.json and ENFORCES the
// acceptance floors:
//   * int8 median step >= 3.0x faster than the uncompressed step;
//   * int8 measured bytes-on-wire reduction >= 3.9x (the f32 scale sideband
//     caps int8 at 4/(1 + 4/block_elems) ~ 3.95x at the default 256-element
//     block — a clean 4.0x is mathematically impossible, see compress.h);
//   * int4 measured reduction >= 4.0x (so the ">= 4x" headline holds for
//     every sub-byte codec);
//   * zero steady-state pool allocations in the timed int8 window;
//   * every rank's result bit-identical in every mode (each owner encodes
//     its segment once and its blob is forwarded verbatim, the consistency
//     argument of collectives/compressed.h);
//   * LeNet-5 best accuracy with int8 wire compression + error feedback
//     within 4 points of the uncompressed run.
//   * fused decode-reduce (DESIGN.md §17): decompress_add_f32 matches the
//     two-pass decompress + add bit for bit in every mode, and on a 32 MiB
//     int8 stream is >= 1.5x faster when a vector ISA is active (one
//     thread, so the win is memory traffic: 9 vs 17 bytes/element).
// A plain run reports the same numbers without enforcing.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "collectives/allreduce.h"
#include "comm/fault_injector.h"
#include "comm/pipeline.h"
#include "comm/world.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "tensor/compress/compress.h"
#include "tensor/kernels.h"
#include "train/trainer.h"

// Process-wide heap-allocation counter (the bench_pipeline hook): the
// steady-state claim is gated on pool allocations — deterministic by
// construction — and the heap count is reported for visibility.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace adasum;

constexpr int kRanks = 4;
constexpr std::size_t kElems = 16ull * 1024 * 1024;  // 64 MiB fp32
constexpr std::size_t kChunkBytes = 256 * 1024;
constexpr int kDelayMaxUs = 36000;  // injected per-message sender-side "wire"
constexpr std::uint64_t kInjectorSeed = 7;
constexpr int kWarmup = 1;

struct ModeResult {
  std::vector<double> step_samples;   // per-iteration seconds, rank 0
  std::uint64_t wire_bytes_per_step = 0;  // sum over ranks, one iteration
  BufferPool::Stats pool{};           // timed window
  std::uint64_t heap_allocs = 0;      // timed window
  bool replicas_identical = false;
  std::vector<float> result;          // rank 0's reduced tensor
};

// Deterministic rank-dependent payload, fresh every iteration so warm
// iterations reduce real (non-fixed-point) data.
void fill_payload(std::span<float> v, int rank, int iter) {
  const std::uint32_t base =
      0x9E3779B9u * static_cast<std::uint32_t>(rank + 1) +
      0x85EBCA6Bu * static_cast<std::uint32_t>(iter + 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::uint32_t h = base + static_cast<std::uint32_t>(i) * 2654435761u;
    v[i] = static_cast<float>(h % 20000) * 1e-4f - 1.0f;
  }
}

ModeResult run_mode(CompressionMode mode, int iters) {
  World world(kRanks);
  PipelineOptions pipe;
  pipe.enabled = true;
  pipe.chunk_bytes = kChunkBytes;
  world.set_pipeline(pipe);
  CompressionOptions comp;
  comp.mode = mode;
  world.set_compression(comp);
  FaultSpec spec;
  spec.seed = kInjectorSeed;
  spec.delay_prob = 1.0;
  spec.delay_max_us = kDelayMaxUs;
  world.set_fault_injector(std::make_shared<FaultInjector>(kRanks, spec));

  ModeResult result;
  result.step_samples.reserve(static_cast<std::size_t>(iters));
  std::vector<std::vector<float>> replicas(kRanks);
  std::vector<std::uint64_t> bytes_delta(kRanks, 0);
  world.run([&](Comm& comm) {
    Tensor t(std::vector<std::size_t>{kElems}, DType::kFloat32);
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = AllreduceAlgo::kRvh;
    // kAuto: the collective resolves against the World's codec above.

    for (int it = 0; it < kWarmup; ++it) {
      fill_payload(t.span<float>(), comm.rank(), it);
      allreduce(comm, t, opts, it * 65536);
    }

    comm.barrier();
    if (comm.rank() == 0) {
      // Peak in-flight pooled buffers depend on thread interleaving, so
      // organic warm-up cannot deterministically reach the worst case;
      // provision the pool to the static bound (the bench_pipeline idiom):
      // chunk payloads in flight, the per-call half scratch, the two wire
      // blob slots, and small control leases.
      BufferPool& pool = world.buffer_pool();
      std::vector<std::vector<std::byte>> held;
      for (int i = 0; i < 4 * kRanks * 16; ++i)
        held.push_back(pool.acquire(kChunkBytes));
      for (int i = 0; i < 2 * kRanks; ++i)
        held.push_back(pool.acquire((kElems / 2) * sizeof(float)));
      for (int i = 0; i < 4 * kRanks; ++i)
        held.push_back(pool.acquire(
            compressed_wire_bytes(kElems / 2, CompressionOptions{
                                                  CompressionMode::kInt8})));
      for (int i = 0; i < 16 * kRanks; ++i) held.push_back(pool.acquire(256));
      for (auto& b : held) pool.release(std::move(b));
      pool.reset_stats();
      g_heap_allocs.store(0, std::memory_order_relaxed);
    }
    comm.barrier();
    const std::uint64_t bytes0 = comm.stats().bytes_sent;
    for (int it = 0; it < iters; ++it) {
      fill_payload(t.span<float>(), comm.rank(), kWarmup + it);
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      allreduce(comm, t, opts, ((kWarmup + it) % 8) * 65536);
      comm.barrier();
      if (comm.rank() == 0)
        result.step_samples.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
    }
    bytes_delta[static_cast<std::size_t>(comm.rank())] =
        comm.stats().bytes_sent - bytes0;
    if (comm.rank() == 0) {
      result.pool = world.buffer_pool().stats();
      result.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
    }
    // Every rank publishes its final replica for the bit-equality check.
    const auto v = t.span<float>();
    replicas[static_cast<std::size_t>(comm.rank())].assign(v.begin(),
                                                           v.end());
  });
  std::uint64_t total = 0;
  for (const std::uint64_t b : bytes_delta) total += b;
  result.wire_bytes_per_step = total / static_cast<std::uint64_t>(iters);
  result.replicas_identical = true;
  for (int r = 1; r < kRanks; ++r)
    result.replicas_identical =
        result.replicas_identical &&
        std::memcmp(replicas[0].data(),
                    replicas[static_cast<std::size_t>(r)].data(),
                    kElems * sizeof(float)) == 0;
  result.result = std::move(replicas[0]);
  return result;
}

double rel_l2_error(const std::vector<float>& got,
                    const std::vector<float>& want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = static_cast<double>(got[i]) - want[i];
    num += d * d;
    den += static_cast<double>(want[i]) * want[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

struct LenetResult {
  double off = 0.0;
  double int8 = 0.0;
};

// Convergence parity: the Figure 6 LeNet-5 protocol (16x16 cluster images,
// aggressive warmup/decay schedule, 4 Adasum workers) run uncompressed vs
// int8 wire compression with error feedback (DistributedOptions EF snaps the
// effective gradient through the codec and banks the residual).
LenetResult run_lenet() {
  constexpr std::size_t kExamples = 8192;
  constexpr std::size_t kMicrobatch = 32;
  constexpr int kEpochs = 2;
  constexpr int kWorld = 4;
  data::ClusterImageDataset::Options opt;
  opt.num_examples = kExamples;
  opt.num_classes = 10;
  opt.channels = 1;
  opt.height = 16;
  opt.width = 16;
  opt.noise = 0.9;
  opt.seed = 71;
  data::ClusterImageDataset train_set(opt);
  opt.num_examples = 1024;
  opt.example_seed = 7272;
  data::ClusterImageDataset eval_set(opt);

  train::ModelFactory factory = [](Rng& rng) {
    return nn::make_lenet5(10, rng, /*relu=*/true, /*input_hw=*/16);
  };
  const long total_steps =
      kEpochs * static_cast<long>(kExamples / (kMicrobatch * kWorld));
  auto run = [&](CompressionMode mode) {
    optim::LinearWarmupDecay schedule(0.01, total_steps * 17 / 100,
                                      total_steps);
    train::TrainConfig config;
    config.world_size = kWorld;
    config.microbatch = kMicrobatch;
    config.epochs = kEpochs;
    config.optimizer = optim::OptimizerKind::kMomentum;
    config.dist.op = ReduceOp::kAdasum;
    config.dist.wire_compression.mode = mode;
    config.dist.error_feedback = true;
    config.schedule = &schedule;
    config.eval_examples = 512;
    config.seed = 17;
    return train::train_data_parallel(factory, train_set, eval_set, config);
  };
  LenetResult r;
  r.off = run(CompressionMode::kNone).best_accuracy;
  r.int8 = run(CompressionMode::kInt8).best_accuracy;
  return r;
}

struct FusedRow {
  const char* mode;
  double twopass_gbs;
  double fused_gbs;
  double speedup;
  bool parity;
};

// Two-pass vs fused decode-reduce on a compressed stream, single thread.
// Throughput is quoted over the DECODED payload bytes so the two columns are
// directly comparable.
FusedRow run_fused(CompressionMode mode, const char* name, std::size_t n,
                   int reps) {
  CompressionOptions opts;
  opts.mode = mode;
  std::vector<float> src(n);
  for (std::size_t i = 0; i < n; ++i)
    src[i] = static_cast<float>((i * 2654435761u) % 1000) / 1000.0f - 0.5f;
  std::vector<std::byte> blob(compressed_wire_bytes(n, opts));
  compress_f32(src, opts, blob.data());

  // Bit parity on fresh accumulators before any timing.
  std::vector<float> two(n, 0.25f), fused(n, 0.25f), scratch(n);
  decompress_f32(blob.data(), opts, scratch);
  kernels::add(std::span<const float>(scratch), std::span<float>(two));
  decompress_add_f32(blob.data(), opts, n, 0, fused);
  const bool parity =
      std::memcmp(two.data(), fused.data(), n * sizeof(float)) == 0;

  const auto time_median = [&](auto&& op) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    op();  // warm
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      op();
      samples.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    return bench::median(std::move(samples));
  };
  // Both paths accumulate into the same bounded-magnitude buffer; values
  // drift but stay finite, and the timing is value-independent.
  const double t_two = time_median([&] {
    decompress_f32(blob.data(), opts, scratch);
    kernels::add(std::span<const float>(scratch), std::span<float>(two));
  });
  const double t_fused =
      time_median([&] { decompress_add_f32(blob.data(), opts, n, 0, fused); });
  const double bytes = static_cast<double>(n) * sizeof(float);
  return {name, bytes / t_two / 1e9, bytes / t_fused / 1e9, t_two / t_fused,
          parity};
}

int run(const char* json_path, bool enforce) {
  bench::print_header(
      "Compressed-gradient collectives — wire bytes and step time",
      "§6 compression axis composed with Algorithm 1; DESIGN.md §13 gate");
  const int iters = bench::full_mode() ? 5 : 3;

  std::printf("config: %d ranks, %zu floats (64 MiB), Adasum RVH, %zu-byte "
              "chunks, %d us max injected send delay\n\n",
              kRanks, kElems, kChunkBytes, kDelayMaxUs);

  const ModeResult off = run_mode(CompressionMode::kNone, iters);
  const ModeResult int8 = run_mode(CompressionMode::kInt8, iters);
  const ModeResult int4 = run_mode(CompressionMode::kInt4, iters);
  const ModeResult sign = run_mode(CompressionMode::kSign, iters);

  const double off_s = bench::median(off.step_samples);
  const auto summarize = [&](const char* name, const ModeResult& m,
                             bench::Table& table) {
    const double s = bench::median(m.step_samples);
    table.row(name, s * 1e3, off_s / s,
              static_cast<double>(m.wire_bytes_per_step) / (1 << 20),
              static_cast<double>(off.wire_bytes_per_step) /
                  static_cast<double>(m.wire_bytes_per_step),
              m.replicas_identical ? "yes" : "NO");
    return s;
  };

  bench::Table table({"codec", "step ms (median)", "speedup",
                      "wire MiB/step", "wire reduction", "replicas =="});
  summarize("off", off, table);
  const double int8_s = summarize("int8", int8, table);
  summarize("int4", int4, table);
  summarize("sign", sign, table);
  table.print();

  const double int8_speedup = off_s / int8_s;
  const double int8_reduction =
      static_cast<double>(off.wire_bytes_per_step) /
      static_cast<double>(int8.wire_bytes_per_step);
  const double int4_reduction =
      static_cast<double>(off.wire_bytes_per_step) /
      static_cast<double>(int4.wire_bytes_per_step);
  const double sign_reduction =
      static_cast<double>(off.wire_bytes_per_step) /
      static_cast<double>(sign.wire_bytes_per_step);
  const double int8_err = rel_l2_error(int8.result, off.result);
  const double int4_err = rel_l2_error(int4.result, off.result);
  std::printf("\n  int8 rel L2 error vs fp32: %.2e; int4: %.2e\n",
              int8_err, int4_err);
  std::printf("  int8 pool allocs in timed window: %llu (heap: %llu)\n\n",
              static_cast<unsigned long long>(int8.pool.allocations),
              static_cast<unsigned long long>(int8.heap_allocs));

  const LenetResult lenet = run_lenet();
  std::printf("  LeNet-5 best accuracy: fp32 %.3f, int8+EF %.3f\n\n",
              lenet.off, lenet.int8);

  const std::size_t fn = (32ull << 20) / sizeof(float);  // 32 MiB decoded
  const int freps = bench::full_mode() ? 9 : 5;
  const FusedRow fused[] = {
      run_fused(CompressionMode::kInt8, "int8", fn, freps),
      run_fused(CompressionMode::kInt4, "int4", fn, freps),
      run_fused(CompressionMode::kSign, "sign", fn, freps),
  };
  bench::Table ft(
      {"fused decode-add", "two-pass GB/s", "fused GB/s", "speedup",
       "bit parity"});
  for (const FusedRow& r : fused)
    ft.row(r.mode, r.twopass_gbs, r.fused_gbs, r.speedup,
           r.parity ? "yes" : "NO");
  ft.print();
  const bool fused_parity = fused[0].parity && fused[1].parity &&
                            fused[2].parity;
  const bool vector_isa = simd::active_level() != simd::Level::kScalar;
  const double fused_floor = 1.5;
  const bool fused_ok =
      fused_parity && (!vector_isa || fused[0].speedup >= fused_floor);

  const bool replicas_ok = off.replicas_identical &&
                           int8.replicas_identical &&
                           int4.replicas_identical && sign.replicas_identical;
  const double speed_floor = 3.0;
  const double int8_floor = 3.9;  // sideband-capped, see header comment
  const double int4_floor = 4.0;
  const double parity_slack = 0.04;
  const bool lenet_ok = lenet.int8 >= lenet.off - parity_slack;
  const bool pass = int8_speedup >= speed_floor &&
                    int8_reduction >= int8_floor &&
                    int4_reduction >= int4_floor &&
                    int8.pool.allocations == 0 && replicas_ok && lenet_ok &&
                    fused_ok;

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"compressed_collectives\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"ranks\": " << kRanks << ",\n"
       << "  \"payload_bytes\": " << kElems * sizeof(float) << ",\n"
       << "  \"chunk_bytes\": " << kChunkBytes << ",\n"
       << "  \"delay_max_us\": " << kDelayMaxUs << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"warmup\": " << kWarmup << ",\n"
       << "  \"statistic\": \"median\",\n"
       << "  \"off_step_ms\": " << bench::fmt(off_s * 1e3, 3) << ",\n"
       << "  \"int8_step_ms\": " << bench::fmt(int8_s * 1e3, 3) << ",\n"
       << "  \"int8_speedup\": " << bench::fmt(int8_speedup, 3) << ",\n"
       << "  \"speedup_floor\": " << bench::fmt(speed_floor, 1) << ",\n"
       << "  \"off_wire_bytes\": " << off.wire_bytes_per_step << ",\n"
       << "  \"int8_wire_bytes\": " << int8.wire_bytes_per_step << ",\n"
       << "  \"int8_wire_reduction\": " << bench::fmt(int8_reduction, 3)
       << ",\n"
       << "  \"int8_reduction_floor\": " << bench::fmt(int8_floor, 2) << ",\n"
       << "  \"int8_reduction_note\": \"f32 scale sideband caps int8 at "
          "4/(1+4/block_elems) ~ 3.95x; payload-only ratio is 4.0x\",\n"
       << "  \"int4_wire_reduction\": " << bench::fmt(int4_reduction, 3)
       << ",\n"
       << "  \"sign_wire_reduction\": " << bench::fmt(sign_reduction, 3)
       << ",\n"
       << "  \"int8_rel_l2_error\": " << bench::fmt(int8_err, 6) << ",\n"
       << "  \"steady_state_allocations\": " << int8.pool.allocations << ",\n"
       << "  \"replicas_bit_identical\": " << (replicas_ok ? "true" : "false")
       << ",\n"
       << "  \"lenet_epochs\": 2,\n"
       << "  \"lenet_fp32_accuracy\": " << bench::fmt(lenet.off, 3) << ",\n"
       << "  \"lenet_int8_ef_accuracy\": " << bench::fmt(lenet.int8, 3)
       << ",\n"
       << "  \"lenet_parity_slack\": " << bench::fmt(parity_slack, 2) << ",\n"
       << "  \"fused\": [\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const FusedRow& r = fused[i];
    json << "    {\"mode\": \"" << r.mode
         << "\", \"twopass_gb_per_sec\": " << bench::fmt(r.twopass_gbs, 3)
         << ", \"fused_gb_per_sec\": " << bench::fmt(r.fused_gbs, 3)
         << ", \"speedup\": " << bench::fmt(r.speedup, 3)
         << ", \"bit_parity\": " << (r.parity ? "true" : "false") << "}"
         << (i + 1 < 3 ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"fused_int8_floor\": " << bench::fmt(fused_floor, 1) << ",\n"
       << "  \"fused_gate_enforced\": " << (vector_isa ? "true" : "false")
       << ",\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote %s\n", json_path);

  bench::check_shape(
      "int8 wire compression speeds the 64 MiB Adasum step >= 3x under the "
      "wire-delay model",
      int8_speedup >= speed_floor);
  bench::check_shape(
      "int8 measured bytes-on-wire reduction >= 3.9x (sideband-capped; int4 "
      "clears 4x outright)",
      int8_reduction >= int8_floor && int4_reduction >= int4_floor);
  bench::check_shape(
      "steady-state compressed step performs zero pool allocations",
      int8.pool.allocations == 0);
  bench::check_shape(
      "every rank decodes bit-identical replicas in every codec "
      "(owner encodes once, blob forwarded verbatim)",
      replicas_ok);
  bench::check_shape(
      "LeNet-5 with int8 wire compression + error feedback converges within "
      "4 points of uncompressed",
      lenet_ok);
  bench::check_shape(
      "fused decode-reduce matches two-pass bit for bit in every mode",
      fused_parity);
  if (vector_isa) {
    bench::check_shape("fused int8 decode-add >= 1.5x the two-pass formulation",
                       fused[0].speedup >= fused_floor);
  } else {
    std::printf(
        "paper-shape check: fused int8 >= 1.5x floor -> SKIPPED "
        "(scalar-only host; measured %.2fx recorded)\n",
        fused[0].speedup);
  }
  if (!pass && enforce) {
    std::fprintf(stderr, "compressed collectives gate FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool enforce = false;
  const char* json_path = "BENCH_compress.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compress_json") {
      enforce = true;
    } else if (arg.rfind("--compress_json=", 0) == 0) {
      enforce = true;
      json_path = argv[i] + sizeof("--compress_json=") - 1;
    }
  }
  return run(json_path, enforce);
}
