// Figure 4: latency of AdasumRVH vs NCCL sum-allreduce for message sizes
// 2^10 .. 2^28 bytes on 16 nodes x 4 V100 (PCIe inside, 100Gb IB across).
//
// The paper measured wall-clock on that Azure cluster; here the schedules
// are priced with the α-β cost model (DESIGN.md substitution table) — the
// claim under test is about schedule structure: despite the extra dot
// products and triple-allreduces, AdasumRVH tracks the elementwise NCCL sum
// closely across four orders of magnitude of message size.
//
// A secondary section validates the simulator itself: for a small
// configuration the in-process collectives are timed for real and their
// RELATIVE cost (Adasum/sum) is compared with the model's prediction.
//
// A third section is the zero-copy gate: the in-place pooled AdasumRVH and
// the copy-based reference (adasum_rvh_reference.h) are timed in the same run
// on a fig-4-style 64 MiB fused payload, heap allocations are counted with an
// operator-new hook, and the results land in BENCH_rvh.json so the speedup is
// a committed, re-checkable artifact.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <span>

#include "bench_util.h"
#include "collectives/adasum_rvh.h"
#include "collectives/adasum_rvh_reference.h"
#include "collectives/sum_allreduce.h"
#include "comm/cost_model.h"
#include "comm/world.h"
#include "tensor/tensor.h"

// Process-wide heap-allocation counter: every operator new in this binary
// bumps it, so the bench can report how many real allocations each allreduce
// path performs — the pooled path's claim is "zero at steady state", and a
// pool-stats counter alone could not see a malloc that bypassed the pool.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replacement operator new below hands out malloc'd
// memory, so free() in the matching operator delete trips a false
// -Wmismatched-new-delete.
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
using bench::Table;

void predicted_latency_curve() {
  bench::print_header("Figure 4 — allreduce latency vs message size",
                      "Fig. 4: ADASUMRVH vs NCCL, 64 tensors, 16 nodes x 4 GPU");
  CostModel model(Topology::azure_fig4());
  // Chunk-pipelined variant (DESIGN.md §12) at the default 256 KiB chunk.
  CostModel pipelined(Topology::azure_fig4());
  pipelined.set_chunk_bytes(256.0 * 1024.0);
  const int num_layers = 64;  // "we allocate 64 tensors ... so their sum is
                              // the number of bytes"
  Table table({"tensor(bytes)", "NCCL(ms)", "Adasum(ms)", "ratio",
               "Adasum-pipe(ms)", "ring-Adasum(ms)"});
  double worst_ratio = 0.0;
  for (int exp = 10; exp <= 28; exp += 2) {
    const double bytes = static_cast<double>(1ull << exp);
    const double nccl = model.nccl_allreduce_sum(bytes) * 1e3;
    const double ada = model.rvh_allreduce_adasum(bytes, num_layers) * 1e3;
    const double pipe =
        pipelined.rvh_allreduce_adasum_pipelined(bytes, num_layers) * 1e3;
    const double ring = model.ring_allreduce_adasum(bytes, num_layers) * 1e3;
    worst_ratio = std::max(worst_ratio, ada / nccl);
    table.row("2^" + std::to_string(exp), nccl, ada, ada / nccl, pipe, ring);
  }
  table.print();
  std::cout << "\n";
  bench::check_shape(
      "AdasumRVH stays within ~2x of the NCCL sum at every size (paper: "
      "'roughly equal')",
      worst_ratio < 2.0);
  CostModel m2(Topology::azure_fig4());
  bench::check_shape(
      "the ring-order Adasum is slower than AdasumRVH (paper §4.2.3)",
      m2.ring_allreduce_adasum(1 << 22, num_layers) >
          m2.rvh_allreduce_adasum(1 << 22, num_layers));
  // Pipelined-model shape checks: the per-chunk α must be priced honestly.
  bench::check_shape(
      "chunk-pipelined AdasumRVH beats the monolithic schedule at 2^28 "
      "(dot pass hides behind the chunk stream)",
      pipelined.rvh_allreduce_adasum_pipelined(1 << 28, num_layers) <
          model.rvh_allreduce_adasum(1 << 28, num_layers));
  CostModel tiny_chunks(Topology::azure_fig4());
  tiny_chunks.set_chunk_bytes(4.0 * 1024.0);
  bench::check_shape(
      "4 KiB chunks LOSE on a 4 MiB payload (per-chunk alpha outweighs the "
      "overlap — the model does not pretend chunking is free)",
      tiny_chunks.rvh_allreduce_adasum_pipelined(1 << 22, num_layers) >
          model.rvh_allreduce_adasum(1 << 22, num_layers));
  CostModel no_chunks(Topology::azure_fig4());
  bench::check_shape(
      "with chunking disabled the pipelined model degenerates to the "
      "monolithic prediction exactly",
      no_chunks.rvh_allreduce_adasum_pipelined(1 << 22, num_layers) ==
          model.rvh_allreduce_adasum(1 << 22, num_layers));
}

// Real wall-clock of the in-process collectives, to sanity-check that the
// extra Adasum arithmetic is small relative to the data movement the model
// assumes. (Absolute numbers are thread-simulator times, not network times.)
void measured_relative_cost() {
  std::cout << "\n--- simulator validation: measured compute overhead ---\n";
  const int ranks = 8;
  const std::size_t count = bench::full_mode() ? (1u << 20) : (1u << 16);
  World world(ranks);

  auto time_run = [&](bool adasum) {
    const auto start = std::chrono::steady_clock::now();
    world.run([&](Comm& comm) {
      Tensor t({count});
      auto s = t.span<float>();
      for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
               1000.0f;
      for (int rep = 0; rep < 3; ++rep) {
        if (adasum)
          adasum_rvh_allreduce(comm, t, {}, rep * 1024);
        else
          rvh_allreduce_sum(comm, t, rep * 1024);
      }
    });
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  time_run(false);  // warmup
  const double sum_s = time_run(false);
  const double ada_s = time_run(true);
  std::cout << "  sum-RVH:    " << bench::fmt(sum_s * 1e3) << " ms (8 ranks, "
            << count << " floats, 3 rounds)\n";
  std::cout << "  Adasum-RVH: " << bench::fmt(ada_s * 1e3) << " ms\n";
  std::cout << "  measured ratio: " << bench::fmt(ada_s / sum_s, 2) << "\n";
  bench::check_shape(
      "in-process AdasumRVH costs < 3x sum-RVH (dot products are cheap "
      "relative to data movement)",
      ada_s / sum_s < 3.0);
}

// Zero-copy gate: in-place pooled AdasumRVH vs the copy-based reference on a
// 64 MiB fused buffer split into 64 layers, 4 ranks — the fig-4 shape at the
// size where allocator round-trips and page faults dominate the seed path.
// The in-place path is measured once per transport (buffered mailbox and the
// one-sided shm view path), rank 0's result is memcmp'd across transports,
// and everything lands in BENCH_rvh.json. Pool stats and the operator-new
// counter cover the timed window only.

// One timed run of the in-place collective on a fresh World using the named
// transport. Per-iteration samples are bracketed by barriers so every sample
// covers one whole collective on all ranks; the reported statistic is the
// MEDIAN, so one scheduler hiccup cannot move the committed artifact.
struct InplaceRun {
  double sec_per_iter = 0.0;
  std::vector<double> samples;
  std::uint64_t heap_allocs = 0;  // total over the timed window
  BufferPool::Stats pool{};
  std::vector<float> result;  // rank 0's reduced payload, for parity checks
};

InplaceRun run_inplace(const char* transport, int ranks, std::size_t count,
                       std::span<const TensorSlice> slices, int iters,
                       int warmup) {
  InplaceRun res;
  // Sized up front: the parity snapshot below must not allocate inside the
  // counted window.
  res.result.resize(count);
  World world(ranks);
  if (!world.set_transport(transport)) {
    std::cerr << "unknown transport " << transport << "\n";
    std::exit(1);
  }
  std::vector<double>& samples = res.samples;
  samples.reserve(static_cast<std::size_t>(iters));
  world.run([&](Comm& comm) {
    Tensor t({count});
    auto s = t.span<float>();
    for (std::size_t i = 0; i < s.size(); ++i)
      s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                 1000.0f -
             0.5f;
    // Warm-up rounds so the pool holds the working set and the code path is
    // paged in before timing.
    for (int it = 0; it < warmup; ++it)
      adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/it << 16);
    comm.barrier();
    if (comm.rank() == 0) {
      // Peak in-flight buffers depend on thread interleaving, so organic
      // warm-up cannot deterministically reach the worst case; provision the
      // pool to the static bound instead (same idiom as fault_path_overhead
      // and the ZeroCopy tests).
      std::vector<std::vector<std::byte>> held;
      const int ranks_now = comm.size();
      for (int i = 0; i < 5 * ranks_now; ++i)
        held.push_back(
            world.buffer_pool().acquire((count / 2) * sizeof(float)));
      for (int i = 0; i < 8 * ranks_now; ++i)
        held.push_back(world.buffer_pool().acquire(128));
      for (auto& b : held) world.buffer_pool().release(std::move(b));
      world.buffer_pool().reset_stats();
      g_heap_allocs.store(0, std::memory_order_relaxed);
    }
    for (int it = 0; it < iters; ++it) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/(100 + it) << 16);
      comm.barrier();
      if (comm.rank() == 0)
        samples.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
    if (comm.rank() == 0) {
      res.pool = world.buffer_pool().stats();
      res.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
      std::memcpy(res.result.data(), t.data(), count * sizeof(float));
    }
  });
  res.sec_per_iter = bench::median(samples);
  return res;
}

void zero_copy_throughput() {
  std::cout << "\n--- zero-copy hot path: in-place vs copy-based AdasumRVH ---\n";
  const int ranks = 4;
  const int num_layers = 64;
  const std::size_t count = (64ull << 20) / sizeof(float);  // 64 MiB payload
  const int iters = bench::full_mode() ? 5 : 3;
  const int warmup = 2;

  std::vector<TensorSlice> slices;
  const std::size_t per_layer = count / num_layers;
  for (int l = 0; l < num_layers; ++l)
    slices.push_back({"l" + std::to_string(l),
                      static_cast<std::size_t>(l) * per_layer, per_layer});

  // In-place path, per transport, in ALTERNATING phases (mailbox, shm,
  // mailbox, shm) so a box-level slow period lands on both transports
  // instead of biasing one side of the ratio; the median is taken over the
  // pooled samples. Same deterministic inputs, so the results must be
  // bit-identical — the transport moves bytes, the schedule decides
  // arithmetic order.
  const auto merge = [](InplaceRun a, InplaceRun b) {
    a.samples.insert(a.samples.end(), b.samples.begin(), b.samples.end());
    a.heap_allocs += b.heap_allocs;
    a.pool.allocations += b.pool.allocations;
    a.pool.reuses += b.pool.reuses;
    a.sec_per_iter = bench::median(a.samples);
    return a;
  };
  InplaceRun mailbox =
      run_inplace("mailbox", ranks, count, slices, iters, warmup);
  InplaceRun shm = run_inplace("shm", ranks, count, slices, iters, warmup);
  mailbox = merge(std::move(mailbox),
                  run_inplace("mailbox", ranks, count, slices, iters, warmup));
  shm = merge(std::move(shm),
              run_inplace("shm", ranks, count, slices, iters, warmup));
  const bool parity = std::memcmp(mailbox.result.data(), shm.result.data(),
                                  count * sizeof(float)) == 0;

  // Copy-based reference (mailbox, the seed formulation) for the historical
  // speedup row.
  std::vector<double> reference_samples;
  reference_samples.reserve(static_cast<std::size_t>(iters));
  std::uint64_t reference_heap = 0;
  {
    World world(ranks);
    world.run([&](Comm& comm) {
      Tensor t({count});
      auto s = t.span<float>();
      for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                   1000.0f -
               0.5f;
      for (int it = 0; it < warmup; ++it)
        adasum_rvh_allreduce_reference(comm, t, slices,
                                       /*tag_base=*/(50 + it) << 16);
      comm.barrier();
      if (comm.rank() == 0) g_heap_allocs.store(0, std::memory_order_relaxed);
      for (int it = 0; it < iters; ++it) {
        comm.barrier();
        const auto t1 = std::chrono::steady_clock::now();
        adasum_rvh_allreduce_reference(comm, t, slices,
                                       /*tag_base=*/(200 + it) << 16);
        comm.barrier();
        if (comm.rank() == 0)
          reference_samples.push_back(std::chrono::duration<double>(
                                          std::chrono::steady_clock::now() - t1)
                                          .count());
      }
      if (comm.rank() == 0)
        reference_heap = g_heap_allocs.load(std::memory_order_relaxed);
    });
  }

  const double payload_bytes = static_cast<double>(count * sizeof(float));
  const auto gbps = [&](double s) { return payload_bytes / s / 1e9; };
  const int inplace_iters = 2 * iters;  // two phases per transport
  const double reference_s = bench::median(reference_samples);
  const double speedup = reference_s / mailbox.sec_per_iter;
  const double shm_vs_mailbox = mailbox.sec_per_iter / shm.sec_per_iter;

  Table table({"path", "sec/iter (median)", "GB/s", "heap allocs/iter",
               "pool allocs (window)"});
  table.row("in-place (mailbox)", mailbox.sec_per_iter,
            gbps(mailbox.sec_per_iter),
            static_cast<double>(mailbox.heap_allocs) / inplace_iters,
            std::to_string(mailbox.pool.allocations));
  table.row("in-place (shm 0-copy)", shm.sec_per_iter, gbps(shm.sec_per_iter),
            static_cast<double>(shm.heap_allocs) / inplace_iters,
            std::to_string(shm.pool.allocations));
  table.row("reference (copy)", reference_s, gbps(reference_s),
            static_cast<double>(reference_heap) / iters, "-");
  table.print();
  std::cout << "  in-place vs reference: " << bench::fmt(speedup, 2)
            << "x   shm vs mailbox: " << bench::fmt(shm_vs_mailbox, 2)
            << "x   bit parity: " << (parity ? "yes" : "NO") << "\n";

  const auto transport_json = [&](std::ostream& os, const char* name,
                                  const InplaceRun& r) {
    os << "    {\"transport\": \"" << name
       << "\", \"sec_per_iter\": " << bench::fmt(r.sec_per_iter, 6)
       << ", \"gb_per_sec\": " << bench::fmt(gbps(r.sec_per_iter), 3)
       << ", \"heap_allocs_per_iter\": " << r.heap_allocs / (2 * iters)
       << ", \"pool_allocations\": " << r.pool.allocations
       << ", \"pool_reuses\": " << r.pool.reuses << "}";
  };
  std::ofstream json("BENCH_rvh.json");
  json << "{\n"
       << "  \"bench\": \"adasum_rvh_zero_copy\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"payload_bytes\": " << static_cast<std::uint64_t>(payload_bytes)
       << ",\n"
       << "  \"ranks\": " << ranks << ",\n"
       << "  \"layers\": " << num_layers << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"warmup\": " << warmup << ",\n"
       << "  \"statistic\": \"median\",\n"
       << "  \"transports\": [\n";
  transport_json(json, "mailbox", mailbox);
  json << ",\n";
  transport_json(json, "shm", shm);
  json << "\n  ],\n"
       << "  \"inplace_sec_per_iter\": " << bench::fmt(mailbox.sec_per_iter, 6)
       << ",\n"
       << "  \"reference_sec_per_iter\": " << bench::fmt(reference_s, 6)
       << ",\n"
       << "  \"inplace_gb_per_sec\": "
       << bench::fmt(gbps(mailbox.sec_per_iter), 3) << ",\n"
       << "  \"shm_gb_per_sec\": " << bench::fmt(gbps(shm.sec_per_iter), 3)
       << ",\n"
       << "  \"reference_gb_per_sec\": " << bench::fmt(gbps(reference_s), 3)
       << ",\n"
       << "  \"speedup\": " << bench::fmt(speedup, 3) << ",\n"
       << "  \"shm_speedup_vs_mailbox\": " << bench::fmt(shm_vs_mailbox, 3)
       << ",\n"
       << "  \"shm_bit_parity\": " << (parity ? "true" : "false") << ",\n"
       << "  \"steady_state_pool_allocations\": " << mailbox.pool.allocations
       << ",\n"
       << "  \"pool_reuses\": " << mailbox.pool.reuses << ",\n"
       << "  \"inplace_heap_allocs_per_iter\": "
       << mailbox.heap_allocs / inplace_iters << ",\n"
       << "  \"shm_heap_allocs_per_iter\": "
       << shm.heap_allocs / inplace_iters << ",\n"
       << "  \"reference_heap_allocs_per_iter\": " << reference_heap / iters
       << "\n"
       << "}\n";
  std::cout << "  wrote BENCH_rvh.json\n";

  bench::check_shape(
      "in-place pooled AdasumRVH moves >= 2x the throughput of the copy-based "
      "seed formulation on the 64 MiB fused buffer",
      speedup >= 2.0);
  bench::check_shape(
      "shm zero-copy transport moves >= 2x the throughput of the buffered "
      "mailbox transport on the same run (the committed pre-transport floor "
      "was 0.281 GB/s; the same-run ratio is what survives box noise)",
      shm_vs_mailbox >= 2.0);
  bench::check_shape(
      "shm zero-copy transport beats the committed pre-transport absolute "
      "figure of 0.281 GB/s outright",
      gbps(shm.sec_per_iter) >= 0.281);
  bench::check_shape(
      "shm and mailbox transports produce bit-identical results", parity);
  bench::check_shape(
      "steady-state in-place allreduce performs no pool allocations on "
      "either transport",
      mailbox.pool.allocations == 0 && shm.pool.allocations == 0);
  bench::check_shape(
      "steady-state in-place allreduce performs ZERO heap allocations per "
      "iteration on either transport",
      mailbox.heap_allocs == 0 && shm.heap_allocs == 0);
}

// Fault-path overhead gate: the fault-tolerance machinery (DESIGN.md §9) is
// behind a single chaos() branch per communication op. With the injector off
// this section times the same warm in-place AdasumRVH under three configs —
// everything off (the seed fast path), fault tolerance on (deadline-bounded
// receives), and fault tolerance + per-message checksums — and checks that
// (a) the injector-off path still performs zero heap allocations per
// iteration and (b) bounded receives alone cost at most noise.
void fault_path_overhead() {
  std::cout << "\n--- fault-injection layer: injector-off overhead ---\n";
  const int ranks = 4;
  const int num_layers = 64;
  const std::size_t count = (16ull << 20) / sizeof(float);  // 16 MiB payload
  const int iters = bench::full_mode() ? 8 : 4;

  std::vector<TensorSlice> slices;
  const std::size_t per_layer = count / num_layers;
  for (int l = 0; l < num_layers; ++l)
    slices.push_back({"l" + std::to_string(l),
                      static_cast<std::size_t>(l) * per_layer, per_layer});

  struct Config {
    const char* name;
    bool fault_tolerant;
    bool checksums;
  };
  const Config configs[] = {
      {"all off (seed path)", false, false},
      {"fault tolerance on", true, false},
      {"ft + checksums", true, true},
  };

  double seconds[3] = {0, 0, 0};
  std::uint64_t heap[3] = {0, 0, 0};
  BufferPool::Stats pools[3] = {};
  for (int c = 0; c < 3; ++c) {
    World world(ranks);
    if (configs[c].fault_tolerant) world.enable_fault_tolerance();
    world.enable_checksums(configs[c].checksums);
    world.run([&](Comm& comm) {
      Tensor t({count});
      auto s = t.span<float>();
      for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<float>((i * 2654435761u + comm.rank()) % 1000) /
                   1000.0f -
               0.5f;
      for (int it = 0; it < 2; ++it)  // warm the code paths
        adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/it << 16);
      comm.barrier();
      if (comm.rank() == 0) {
        // Peak in-flight buffers depend on thread interleaving, so organic
        // warm-up cannot deterministically reach the worst case; provision
        // the pool to the static bound instead (same idiom as the ZeroCopy
        // tests): per rank, send payloads + scratch of at most count/2
        // elements, plus small dot-triple leases.
        std::vector<std::vector<std::byte>> held;
        for (int i = 0; i < 5 * ranks; ++i)
          held.push_back(world.buffer_pool().acquire((count / 2) *
                                                     sizeof(float)));
        for (int i = 0; i < 8 * ranks; ++i)
          held.push_back(world.buffer_pool().acquire(128));
        for (auto& b : held) world.buffer_pool().release(std::move(b));
        world.buffer_pool().reset_stats();
        g_heap_allocs.store(0, std::memory_order_relaxed);
      }
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int it = 0; it < iters; ++it)
        adasum_rvh_allreduce(comm, t, slices, /*tag_base=*/(10 + it) << 16);
      comm.barrier();
      if (comm.rank() == 0) {
        seconds[c] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        heap[c] = g_heap_allocs.load(std::memory_order_relaxed);
        pools[c] = world.buffer_pool().stats();
      }
    });
  }

  // The heap column is informational: a handful of mailbox queue-capacity
  // growths depend on thread interleaving and are not attributable to the
  // fault machinery. The hard, deterministic zero-heap-allocation gate for
  // the injector-off path lives in tests/chaos_test.cpp
  // (FaultTolerantHotPathAddsNoSteadyStateAllocations) and scripts/check.sh
  // runs it every time; here the gate mirrors §8: zero POOL allocations in
  // every config's steady state.
  Table table({"config", "sec/iter", "vs seed", "heap allocs/iter",
               "pool allocs (window)"});
  for (int c = 0; c < 3; ++c)
    table.row(configs[c].name, seconds[c] / iters, seconds[c] / seconds[0],
              static_cast<double>(heap[c]) / iters,
              std::to_string(pools[c].allocations));
  table.print();

  bench::check_shape(
      "injector-off seed path performs zero pool allocations at steady state",
      pools[0].allocations == 0);
  bench::check_shape(
      "fault-tolerant (deadline-bounded) path stays pool-allocation-free too",
      pools[1].allocations == 0 && pools[2].allocations == 0);
  bench::check_shape(
      "bounded receives without checksums cost < 2x the seed path "
      "(single chaos() branch + deadline arithmetic; the bound is loose "
      "because the simulator's absolute times are microseconds-scale and "
      "noisy under CI load)",
      seconds[1] / seconds[0] < 2.0);
}

}  // namespace

int main() {
  predicted_latency_curve();
  measured_relative_cost();
  zero_copy_throughput();
  fault_path_overhead();
  return bench::exit_status();
}
