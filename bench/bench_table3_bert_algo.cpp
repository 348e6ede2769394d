// Table 3: algorithmic efficiency on BERT-Large — iterations to target for
// Baseline-Adam / Baseline-LAMB / Adasum-Adam / Adasum-LAMB / Adasum-LAMB@128K,
// with two-phase pretraining (phase 1 short sequences, phase 2 long).
//
// Paper: BERT-Large, batch 64K (phase 1) / 32K (phase 2), SQuAD 90.5 target.
//   Baseline-Adam      -      -        (does not converge at 64K)
//   Baseline-LAMB      7039   1563
//   Adasum-Adam        7039   1563     (Adam now scales to 64K)
//   Adasum-LAMB -20%   5639   1250
//   Adasum-LAMB 128K   4574   1563
//
// Substitution: TinyBert on a synthetic Markov corpus; phase 1 = seq len 8,
// phase 2 = seq len 16 warm-started from each row's phase-1 model. The
// "64K" batch is 8 workers x microbatch 8 x 16 local accumulation steps;
// "128K" doubles the local steps. "Iterations" = communication rounds to the
// target next-token accuracy. Learning rates come from a coarse search (the
// paper also searched base LR); the per-row values are recorded below.
//
// Known deviation (documented in EXPERIMENTS.md): on this 5K-parameter model
// Baseline-Adam DOES still converge at the large batch — the Adam failure
// mode at 64K is a deep-model phenomenon. The surviving ordering claims are
// the LAMB ones (Adasum-LAMB ~20-30% fewer rounds; 128K fewer still) and
// that Adasum never hurts Adam.
#include "bench_util.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "train/trainer.h"

namespace {

using namespace adasum;
using bench::Table;

constexpr double kTarget = 0.70;

struct Row {
  std::string name;
  ReduceOp op;
  optim::OptimizerKind optimizer;
  int phase1_local_steps;
  std::vector<double> phase1_lrs;  // coarse base-LR search, best taken
  double phase2_lr;
};

struct PhaseOutcome {
  long rounds = -1;  // -1: did not reach target in budget
  Tensor final_params;
};

PhaseOutcome run_phase(const Row& row, const data::Dataset& train_set,
                       const data::Dataset& eval_set, int local_steps,
                       double lr, int epochs, const Tensor& warm_start) {
  train::ModelFactory factory = [](Rng& rng) {
    nn::TinyBertConfig c;
    c.vocab = 16;
    c.max_len = 16;
    c.dim = 16;
    c.ffn_dim = 32;
    c.layers = 1;
    return nn::make_tiny_bert(c, rng);
  };
  optim::ConstantLr schedule(lr);
  train::TrainConfig config;
  config.world_size = 8;
  config.microbatch = 8;
  config.epochs = epochs;
  config.optimizer = row.optimizer;
  config.dist.op = row.op;
  config.dist.local_steps = local_steps;
  config.schedule = &schedule;
  config.eval_examples = 256;
  config.target_accuracy = kTarget;
  config.seed = 13;
  config.initial_params = warm_start;
  const train::TrainResult r =
      train::train_data_parallel(factory, train_set, eval_set, config);
  PhaseOutcome out;
  out.rounds = r.reached_target ? r.epochs.back().rounds_so_far : -1;
  out.final_params = r.final_params;
  return out;
}

std::string rounds_str(long rounds) {
  return rounds < 0 ? std::string("-") : std::to_string(rounds);
}

}  // namespace

int main() {
  bench::print_header(
      "Table 3 — BERT algorithmic efficiency (iterations to target)",
      "Table 3: phase-1/phase-2 iterations, Adam/LAMB x Sum/Adasum");

  // Phase 1 corpus: short sequences.
  data::MarkovTextDataset::Options p1;
  p1.num_examples = 2048;
  p1.vocab = 16;
  p1.seq_len = 8;
  p1.noise = 0.15;
  p1.seed = 51;
  data::MarkovTextDataset phase1_train(p1);
  p1.num_examples = 512;
  p1.example_seed = 5252;
  data::MarkovTextDataset phase1_eval(p1);

  // Phase 2 corpus: same transition table, longer sequences.
  data::MarkovTextDataset::Options p2 = p1;
  p2.num_examples = 2048;
  p2.seq_len = 16;
  p2.example_seed = 0;
  data::MarkovTextDataset phase2_train(p2);
  p2.num_examples = 512;
  p2.example_seed = 6262;
  data::MarkovTextDataset phase2_eval(p2);

  // LRs from the coarse search documented in EXPERIMENTS.md.
  const std::vector<Row> rows{
      {"Baseline-Adam", ReduceOp::kSum, optim::OptimizerKind::kAdam, 16,
       {0.01}, 0.003},
      {"Baseline-LAMB", ReduceOp::kSum, optim::OptimizerKind::kLamb, 16,
       {0.01, 0.03}, 0.01},
      {"Adasum-Adam", ReduceOp::kAdasum, optim::OptimizerKind::kAdam, 16,
       {0.003}, 0.003},
      {"Adasum-LAMB", ReduceOp::kAdasum, optim::OptimizerKind::kLamb, 16,
       {0.001, 0.003}, 0.003},
      {"Adasum-LAMB-128K", ReduceOp::kAdasum, optim::OptimizerKind::kLamb, 32,
       {0.001}, 0.003},
  };

  const int phase1_epochs = bench::full_mode() ? 120 : 90;
  const int phase2_epochs = bench::full_mode() ? 60 : 40;

  Table table({"Algorithm", "Phase 1 iters", "Phase 2 iters",
               "paper PH1", "paper PH2"});
  const std::vector<std::pair<std::string, std::string>> paper{
      {"-", "-"}, {"7039", "1563"}, {"7039", "1563"}, {"5639", "1250"},
      {"4574", "1563"}};

  std::vector<long> phase1_rounds(rows.size(), -1);
  std::vector<long> phase2_rounds(rows.size(), -1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    PhaseOutcome ph1;
    for (double lr : row.phase1_lrs) {
      PhaseOutcome candidate =
          run_phase(row, phase1_train, phase1_eval, row.phase1_local_steps,
                    lr, phase1_epochs, Tensor());
      if (ph1.final_params.empty() ||
          (candidate.rounds > 0 &&
           (ph1.rounds < 0 || candidate.rounds < ph1.rounds)))
        ph1 = std::move(candidate);
    }
    phase1_rounds[i] = ph1.rounds;
    // Phase 2 runs at the 32K analogue (local_steps 8) for every row, warm
    // started from this row's phase-1 model (skip if phase 1 failed).
    if (ph1.rounds >= 0) {
      const PhaseOutcome ph2 =
          run_phase(row, phase2_train, phase2_eval, /*local_steps=*/8,
                    row.phase2_lr, phase2_epochs, ph1.final_params);
      phase2_rounds[i] = ph2.rounds;
    }
    table.row(row.name, rounds_str(phase1_rounds[i]),
              rounds_str(phase2_rounds[i]), paper[i].first, paper[i].second);
  }
  table.print();
  std::cout << "\n";

  const long lamb_base = phase1_rounds[1];
  const long ada_adam = phase1_rounds[2];
  const long ada_lamb = phase1_rounds[3];
  const long ada_lamb_128k = phase1_rounds[4];
  bench::check_shape(
      "Adasum-LAMB reaches the phase-1 target in >=15% fewer iterations than "
      "Baseline-LAMB (paper: 20%)",
      ada_lamb > 0 && lamb_base > 0 &&
          static_cast<double>(ada_lamb) <= 0.85 * lamb_base);
  bench::check_shape(
      "Adasum-LAMB still converges at double the batch (128K) with fewer "
      "phase-1 iterations than Baseline-LAMB (paper: 4574 < 7039)",
      ada_lamb_128k > 0 && ada_lamb_128k < lamb_base);
  bench::check_shape(
      "Adasum-Adam converges at the 64K batch (paper: Adam scaled to 64K "
      "with Adasum, matching LAMB's iteration count)",
      ada_adam > 0);
  bench::check_shape(
      "Adasum never slows Adam down (Adasum-Adam <= Baseline-Adam rounds)",
      ada_adam > 0 &&
          (phase1_rounds[0] < 0 || ada_adam <= phase1_rounds[0]));
  bool phase2_ok = true;
  for (std::size_t i = 2; i < rows.size(); ++i)
    phase2_ok &= phase2_rounds[i] > 0;
  bench::check_shape(
      "every Adasum configuration finishes phase 2 (32K) from its phase-1 "
      "model",
      phase2_ok);
  return bench::exit_status();
}
