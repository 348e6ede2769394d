// Table 4: system efficiency on BERT-Large at 64/256/512 GPUs.
//
// The paper reports phase-1/phase-2 throughput speedups (relative to
// Baseline-LAMB on 64 GPUs) and end-to-end pretraining time for Sum vs
// Adasum. Here the same quantities are derived from the α-β cost model on a
// DGX-2-like topology plus the paper's workload constants:
//   * BERT-Large: ~340M parameters, fp16 payload -> 680 MB per allreduce,
//     ~400 fused layer boundaries;
//   * effective batch 64K (phase 1) / 32K (phase 2);
//   * per-GPU compute throughput chosen so Baseline-LAMB@64GPU matches the
//     paper's 12.2K (phase 1) and 4.6K (phase 2) examples/sec;
//   * Adasum's 20% algorithmic-efficiency gain (Table 3: 7039 -> 5639 phase-1
//     iterations) folds into the time-to-train column.
#include "bench_util.h"
#include "comm/cost_model.h"

namespace {

using namespace adasum;
using bench::Table;

constexpr double kParams = 340e6;
constexpr double kPayloadBytes = kParams * 2;  // fp16
constexpr int kLayers = 400;

struct PhaseConstants {
  double batch;            // examples per allreduce (global)
  double base_examples_s;  // Baseline-LAMB@64GPU throughput (paper)
  double iterations_sum;   // Baseline-LAMB iterations (Table 3)
  double iterations_ada;   // Adasum-LAMB iterations (Table 3, -20%)
};

const PhaseConstants kPhase1{64e3, 12.2e3, 7039, 5639};
const PhaseConstants kPhase2{32e3, 4.6e3, 1563, 1250};

struct PhasePerf {
  double sum_speedup;
  double ada_speedup;
  double sum_time_s;
  double ada_time_s;
};

PhasePerf phase_perf(int gpus, const PhaseConstants& phase) {
  // Pure compute time per iteration at 64 GPUs, from the paper's measured
  // throughput with the (small) baseline allreduce cost backed out.
  CostModel base_model(Topology::dgx2(64 / 16));
  const double base_allreduce =
      base_model.hierarchical_allreduce_sum(kPayloadBytes);
  const double base_iter_s = phase.batch / phase.base_examples_s;
  const double compute64 = base_iter_s - base_allreduce;

  CostModel model(Topology::dgx2(gpus / 16));
  const double compute = compute64 * (64.0 / gpus);  // data-parallel split
  const double sum_iter =
      compute + model.hierarchical_allreduce_sum(kPayloadBytes);
  const double ada_iter =
      compute + model.hierarchical_allreduce_adasum(kPayloadBytes, kLayers);

  PhasePerf perf;
  perf.sum_speedup = base_iter_s / sum_iter;
  perf.ada_speedup = base_iter_s / ada_iter;
  perf.sum_time_s = sum_iter * phase.iterations_sum;
  perf.ada_time_s = ada_iter * phase.iterations_ada;
  return perf;
}

}  // namespace

int main() {
  bench::print_header("Table 4 — BERT-Large system efficiency",
                      "Table 4: PH1/PH2 speedup and total minutes, 64-512 GPUs");

  Table table({"GPUs", "PH1 Sum", "PH1 Adasum", "PH2 Sum", "PH2 Adasum",
               "Time Sum(min)", "Time Adasum(min)"});
  double speedup512_sum = 0, speedup512_ada = 0;
  double time256_sum = 0, time256_ada = 0;
  bool adasum_always_faster_e2e = true;
  for (int gpus : {64, 256, 512}) {
    const PhasePerf p1 = phase_perf(gpus, kPhase1);
    const PhasePerf p2 = phase_perf(gpus, kPhase2);
    const double sum_min = (p1.sum_time_s + p2.sum_time_s) / 60.0;
    const double ada_min = (p1.ada_time_s + p2.ada_time_s) / 60.0;
    table.row(gpus, p1.sum_speedup, p1.ada_speedup, p2.sum_speedup,
              p2.ada_speedup, sum_min, ada_min);
    if (gpus == 512) {
      speedup512_sum = p1.sum_speedup;
      speedup512_ada = p1.ada_speedup;
    }
    if (gpus == 256) {
      time256_sum = sum_min;
      time256_ada = ada_min;
    }
    adasum_always_faster_e2e &= ada_min < sum_min;
  }
  table.print();
  std::cout << "\n(paper @512 GPUs: Sum PH1 speedup 7.47, Adasum 6.48; "
               "@256 GPUs time 260 vs 214 min)\n\n";

  bench::check_shape(
      "Adasum's per-iteration throughput trails Sum slightly at scale "
      "(extra dot-product allreduces)",
      speedup512_ada < speedup512_sum &&
          speedup512_ada > 0.75 * speedup512_sum);
  bench::check_shape(
      "the 20% algorithmic-efficiency gain more than compensates: Adasum "
      "reaches target accuracy faster end-to-end at every scale",
      adasum_always_faster_e2e);
  bench::check_shape(
      "at 256 GPUs Adasum's end-to-end time beats Sum's by >10%",
      time256_ada < 0.9 * time256_sum);
  return bench::exit_status();
}
