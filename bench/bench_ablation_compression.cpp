// Ablation: payload compression for the Adasum effective gradients —
// fp32 vs fp16 (dynamic scaling, §4.4.1), plus the DESIGN.md §13 wire
// codecs (blockwise int8 / int4 / 1-bit sign applied inside the
// collectives, the §6 gradient-compression axis) swept with error feedback
// on and off. Reports final accuracy, the measured wire bytes per round
// (CommStats bytes sent by every rank over the run, divided by the
// communication rounds), and wall time per communication round.
#include <chrono>

#include "bench_util.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "tensor/compress/compress.h"
#include "train/trainer.h"

namespace {

using namespace adasum;
using bench::Table;

}  // namespace

int main() {
  bench::print_header(
      "Ablation — Adasum payload compression (fp32 / fp16 / wire codecs)",
      "§4.4.1 low-precision support + §6 compression axis; DESIGN.md §13");

  data::ClusterImageDataset::Options opt;
  opt.num_examples = 1024;
  opt.num_classes = 8;
  opt.height = 8;
  opt.width = 8;
  opt.noise = 1.0;
  opt.seed = 41;
  data::ClusterImageDataset train_set(opt);
  opt.num_examples = 512;
  opt.example_seed = 4242;
  data::ClusterImageDataset eval_set(opt);

  train::ModelFactory factory = [](Rng& rng) {
    return nn::make_resnet_tiny(1, 8, rng, 1, 4);
  };

  const int epochs = bench::full_mode() ? 24 : 14;
  struct RunResult {
    train::TrainResult train;
    double ms_per_round = 0.0;     // wall time / communication rounds
    double bytes_per_round = 0.0;  // measured bytes sent / rounds
  };
  auto run = [&](optim::GradientCompression compression,
                 CompressionMode wire, bool error_feedback) {
    optim::ConstantLr schedule(0.02);
    train::TrainConfig config;
    config.world_size = 8;
    config.microbatch = 4;
    config.epochs = epochs;
    config.optimizer = optim::OptimizerKind::kMomentum;
    config.dist.op = ReduceOp::kAdasum;
    config.dist.compression = compression;
    config.dist.wire_compression.mode = wire;
    config.dist.error_feedback = error_feedback;
    config.schedule = &schedule;
    config.eval_examples = 512;
    config.seed = 11;
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.train = train::train_data_parallel(factory, train_set, eval_set, config);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rounds = static_cast<double>(r.train.total_rounds);
    if (rounds > 0) {
      r.ms_per_round = s * 1e3 / rounds;
      r.bytes_per_round = static_cast<double>(r.train.bytes_sent) / rounds;
    }
    return r;
  };
  auto wire = [&](CompressionMode mode, bool ef) {
    return run(optim::GradientCompression::kNone, mode, ef);
  };

  const RunResult fp32 = wire(CompressionMode::kNone, false);
  const RunResult fp16 =
      run(optim::GradientCompression::kFp16, CompressionMode::kNone, false);

  Table table({"payload", "wire bytes/round", "ms/round", "final accuracy",
               "best"});
  table.row("fp32", fp32.bytes_per_round, fp32.ms_per_round,
            fp32.train.final_accuracy, fp32.train.best_accuracy);
  table.row("fp16 (dynamic scaling)", fp16.bytes_per_round, fp16.ms_per_round,
            fp16.train.final_accuracy, fp16.train.best_accuracy);
  table.print();
  std::cout << "\n";

  // Wire codec sweep (DESIGN.md §13): the collectives compress transferred
  // payloads blockwise; with EF on, the optimizer banks each round's
  // quantization residual. Wire bytes are measured, so they include the
  // scale sideband and the uncompressed Adasum dot triples.
  Table sweep({"wire codec", "EF", "wire bytes/round", "ms/round",
               "final accuracy", "best"});
  struct SweepRow {
    CompressionMode mode;
    bool ef;
    RunResult result;
  };
  std::vector<SweepRow> rows;
  for (const CompressionMode mode :
       {CompressionMode::kInt8, CompressionMode::kInt4,
        CompressionMode::kSign}) {
    for (const bool ef : {true, false}) {
      rows.push_back({mode, ef, wire(mode, ef)});
      const SweepRow& r = rows.back();
      sweep.row(compression_mode_name(mode), ef ? "on" : "off",
                r.result.bytes_per_round, r.result.ms_per_round,
                r.result.train.final_accuracy, r.result.train.best_accuracy);
    }
  }
  sweep.print();
  std::cout << "\n";

  const double wire_int8_ef = rows[0].result.train.best_accuracy;
  const double wire_sign_ef = rows[4].result.train.best_accuracy;
  const double int8_byte_ratio =
      fp32.bytes_per_round / rows[0].result.bytes_per_round;
  std::cout << "measured wire bytes, fp32 / int8 + EF: "
            << bench::fmt(int8_byte_ratio, 2) << "x\n";

  bench::check_shape(
      "fp16 payloads converge within 3 points of fp32 (the §4.4.1 claim that "
      "double-accumulated dot products keep fp16 viable)",
      fp16.train.best_accuracy >= fp32.train.best_accuracy - 0.03);
  bench::check_shape(
      "int8 + error feedback stays within 6 points of fp32 at 4x less wire "
      "traffic",
      wire_int8_ef >= fp32.train.best_accuracy - 0.06 &&
          int8_byte_ratio >= 4.0);
  bench::check_shape(
      "blockwise int8 wire compression + EF stays within 6 points of fp32 "
      "(the §6 composition: compressed wire, exact reductions)",
      wire_int8_ef >= fp32.train.best_accuracy - 0.06);
  bench::check_shape(
      "1-bit sign + EF still learns (>= 12 points above the 1/8 chance "
      "floor) at ~24x less wire traffic",
      wire_sign_ef >= 0.125 + 0.12);
  return bench::exit_status();
}
