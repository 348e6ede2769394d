// Figure 5 + the §5.1.2/§5.1.3 tables: ResNet-50 algorithmic and system
// efficiency with Sum vs Adasum at small and large effective batch.
//
// Paper setup: PyTorch ResNet-50/ImageNet, 64 V100s, Momentum-SGD, effective
// batches 2K and 16K. Claims:
//   (1) Sum@16K never reaches the target accuracy (algorithmic efficiency 0);
//   (2) Adasum@16K converges with only a small epoch penalty vs 2K;
//   (3) the large batch amortizes communication, so Adasum@16K has the best
//       time-to-accuracy (2.3x faster than Adasum@2K in the paper).
//
// Substitution: ResNetTiny on synthetic 8-class images, 8 workers,
// microbatch 4; the 8x batch growth (2K->16K) is realized as 8 local
// gradient-accumulation steps per round, which reproduces the LR-to-batch
// coupling the paper describes ("the combination amounts to a sum"). Like
// the paper we run a small base-LR search per configuration and report the
// best. The wall-clock axis prices epochs with compute/communication
// constants calibrated to the paper's own §5.1.3 measurements, with the
// Adasum/Sum allreduce ratio taken from the cost model.
#include <optional>

#include "bench_util.h"
#include "comm/cost_model.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "train/trainer.h"

namespace {

using namespace adasum;
using bench::Table;

struct ConfigResult {
  std::string name;
  double lr = 0.0;
  int epochs_to_target = -1;  // -1: never
  double minutes_per_epoch = 0.0;
  std::vector<double> accuracy;  // per epoch, best-lr run
};

constexpr double kTarget = 0.80;

ConfigResult best_over_lr(const std::string& name, ReduceOp op,
                          int local_steps, const std::vector<double>& lrs,
                          int epochs, const data::Dataset& train_set,
                          const data::Dataset& eval_set) {
  train::ModelFactory factory = [](Rng& rng) {
    return nn::make_resnet_tiny(1, 8, rng, /*blocks=*/1, /*width=*/4);
  };
  ConfigResult best;
  best.name = name;
  for (double lr : lrs) {
    optim::ConstantLr schedule(lr);
    train::TrainConfig config;
    config.world_size = 8;
    config.microbatch = 4;
    config.epochs = epochs;
    config.optimizer = optim::OptimizerKind::kMomentum;
    config.dist.op = op;
    config.dist.local_steps = local_steps;
    config.schedule = &schedule;
    config.eval_examples = 512;
    config.target_accuracy = kTarget;
    config.seed = 11;
    const train::TrainResult r =
        train::train_data_parallel(factory, train_set, eval_set, config);
    const int reached = r.reached_target ? r.epochs_to_target : -1;
    const bool better =
        (best.epochs_to_target < 0 && reached > 0) ||
        (reached > 0 && reached < best.epochs_to_target) ||
        (best.accuracy.empty());
    if (better) {
      best.lr = lr;
      best.epochs_to_target = reached;
      best.accuracy.clear();
      for (const auto& e : r.epochs) best.accuracy.push_back(e.eval_accuracy);
    }
  }
  return best;
}

// Per-epoch minutes, calibrated to the paper's §5.1.3 Sum rows
// (5.61 min @2K, 2.12 min @16K on 64 GPUs), with the Adasum allreduce priced
// relative to Sum by the cost model on the same topology.
double epoch_minutes(bool adasum, int local_steps) {
  // Back out the paper's per-epoch compute and per-round allreduce cost:
  //   compute + 625 rounds * t_ar = 5.61 min;  compute + 78 * t_ar = 2.12.
  const double t_ar_sum = (5.61 - 2.12) / (625.0 - 78.0);
  const double compute = 5.61 - 625.0 * t_ar_sum;
  CostModel model(Topology::azure_fig4());
  const double payload = 25.5e6 * 4;  // ResNet-50 fp32 gradients
  const double ratio = model.hierarchical_allreduce_adasum(payload, 161) /
                       model.hierarchical_allreduce_sum(payload);
  const double t_ar = adasum ? t_ar_sum * ratio : t_ar_sum;
  const double rounds = 625.0 / local_steps;
  return compute + rounds * t_ar;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 5 + §5.1 tables — ResNet-50 Sum vs Adasum at 2K/16K",
      "Fig. 5 time-to-accuracy; §5.1.2 epochs table; §5.1.3 min/epoch table");

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

  const int epochs = bench::full_mode() ? 32 : 20;
  const std::vector<double> sum_lrs{0.005, 0.01, 0.02};
  const std::vector<double> ada_lrs{0.01, 0.02, 0.04};

  std::vector<ConfigResult> results;
  results.push_back(best_over_lr("Sum 2k", ReduceOp::kSum, 1, sum_lrs, epochs,
                                 train_set, eval_set));
  results.push_back(best_over_lr("Sum 16k", ReduceOp::kSum, 8, sum_lrs,
                                 epochs, train_set, eval_set));
  results.push_back(best_over_lr("Adasum 2k", ReduceOp::kAdasum, 1, ada_lrs,
                                 epochs, train_set, eval_set));
  results.push_back(best_over_lr("Adasum 16k", ReduceOp::kAdasum, 8, ada_lrs,
                                 epochs, train_set, eval_set));
  results[0].minutes_per_epoch = epoch_minutes(false, 1);
  results[1].minutes_per_epoch = epoch_minutes(false, 8);
  results[2].minutes_per_epoch = epoch_minutes(true, 1);
  results[3].minutes_per_epoch = epoch_minutes(true, 8);

  std::cout << "--- §5.1.2 algorithmic efficiency: epochs to " << kTarget * 100
            << "% accuracy (paper: 62 / - / 62 / 69 to 74.9%) ---\n";
  Table algo({"config", "best lr", "epochs to target"});
  for (const auto& r : results)
    algo.row(r.name, r.lr,
             r.epochs_to_target < 0 ? std::string("never")
                                    : std::to_string(r.epochs_to_target));
  algo.print();

  std::cout << "\n--- §5.1.3 system efficiency: minutes per epoch "
               "(paper: 5.61 / 2.12 / 5.72 / 2.23) ---\n";
  Table sys({"config", "min/epoch", "time to target (min)"});
  for (const auto& r : results)
    sys.row(r.name, r.minutes_per_epoch,
            r.epochs_to_target < 0
                ? std::string("-")
                : bench::fmt(r.minutes_per_epoch * r.epochs_to_target, 1));
  sys.print();

  std::cout << "\n--- Figure 5 series: accuracy vs simulated minutes ---\n";
  Table fig({"config", "epoch", "minutes", "accuracy"});
  for (const auto& r : results)
    for (std::size_t e = 0; e < r.accuracy.size(); ++e)
      fig.row(r.name, e + 1, r.minutes_per_epoch * (e + 1), r.accuracy[e]);
  fig.print();
  std::cout << "\n";

  const auto& sum2k = results[0];
  const auto& sum16k = results[1];
  const auto& ada2k = results[2];
  const auto& ada16k = results[3];
  bench::check_shape("Sum@2k reaches the target (the tuned baseline)",
                     sum2k.epochs_to_target > 0);
  bench::check_shape(
      "Sum@16k NEVER reaches the target (paper: algorithmic efficiency 0)",
      sum16k.epochs_to_target < 0);
  bench::check_shape("Adasum@16k converges where Sum@16k cannot",
                     ada16k.epochs_to_target > 0);
  if (ada2k.epochs_to_target > 0 && ada16k.epochs_to_target > 0) {
    bench::check_shape(
        "Adasum@16k has the best time-to-accuracy (large batch amortizes "
        "communication; paper: 2.3x over Adasum@2k)",
        ada16k.epochs_to_target * ada16k.minutes_per_epoch <
            ada2k.epochs_to_target * ada2k.minutes_per_epoch);
  }
  return bench::exit_status();
}
