// Ablations on the reduction design choices DESIGN.md §4 calls out:
//   (1) tree vs linear (ring-order) application of the pairwise operator
//       (§3.4/§4.2.3) — estimator quality and convergence equivalence;
//   (2) per-layer vs whole-gradient Adasum (§3.6) — accuracy under the
//       aggressive-scaling regime of Figure 6;
//   (3) multi-path sampling (§3.3) — variance of the combined update versus
//       the one-sided (single-order) staleness correction.
#include <cmath>

#include "bench_util.h"
#include "core/adasum.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "tensor/kernels.h"
#include "train/trainer.h"

namespace {

using namespace adasum;
using bench::Table;

double norm(const Tensor& t) {
  return std::sqrt(kernels::norm_squared_bytes(t.data(), t.size(), t.dtype()));
}

// --- (1) tree vs linear ------------------------------------------------------

void tree_vs_linear() {
  std::cout << "--- ablation 1: tree vs linear (ring-order) Adasum ---\n";
  Rng rng(11);
  const std::size_t dim = 512;
  const int n = 16;
  // Correlated gradient population (mean direction + noise), the regime
  // where the estimators differ most.
  Tensor mean({dim});
  for (std::size_t i = 0; i < dim; ++i) mean.set(i, rng.normal());
  double tree_cos = 0, linear_cos = 0, tree_norm = 0, linear_norm = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    std::vector<Tensor> grads;
    for (int g = 0; g < n; ++g) {
      Tensor s = mean.clone();
      for (std::size_t i = 0; i < dim; ++i)
        s.set(i, s.at(i) + rng.normal(0.0, 1.0));
      grads.push_back(std::move(s));
    }
    const Tensor tree = adasum_tree(grads);
    const Tensor lin = adasum_linear(grads);
    const auto vt = kernels::dot_triple_bytes(tree.data(), mean.data(), dim,
                                              DType::kFloat32);
    const auto vl = kernels::dot_triple_bytes(lin.data(), mean.data(), dim,
                                              DType::kFloat32);
    tree_cos += vt.ab / std::sqrt(vt.aa * vt.bb) / trials;
    linear_cos += vl.ab / std::sqrt(vl.aa * vl.bb) / trials;
    tree_norm += norm(tree) / trials;
    linear_norm += norm(lin) / trials;
  }
  Table table({"estimator", "cos(angle to true grad)", "mean norm"});
  table.row("tree (log n combines)", tree_cos, tree_norm);
  table.row("linear (n-1 combines)", linear_cos, linear_norm);
  table.print();
  bench::check_shape(
      "both orderings keep a strongly positive angle to the true gradient "
      "(valid pseudogradients, Appendix A)",
      tree_cos > 0.9 && linear_cos > 0.9);
  bench::check_shape(
      "the tree applies fewer combines, keeping more of the summed magnitude "
      "than the left-fold",
      tree_norm >= linear_norm * 0.95);
}

// --- (2) per-layer vs whole-gradient ------------------------------------------

void layerwise_vs_whole() {
  std::cout << "\n--- ablation 2: per-layer vs whole-gradient Adasum (§3.6) "
               "---\n";
  data::ClusterImageDataset::Options opt;
  opt.num_examples = 4096;
  opt.num_classes = 10;
  opt.channels = 1;
  opt.height = 16;
  opt.width = 16;
  opt.noise = 0.9;
  opt.seed = 71;
  data::ClusterImageDataset train_set(opt);
  opt.num_examples = 512;
  opt.example_seed = 7272;
  data::ClusterImageDataset eval_set(opt);

  auto run = [&](bool layerwise) {
    train::ModelFactory factory = [](Rng& rng) {
      return nn::make_lenet5(10, rng, true, 16);
    };
    const long total_steps = 2 * 4096 / (32 * 16);
    optim::LinearWarmupDecay schedule(0.01, total_steps * 17 / 100,
                                      total_steps);
    train::TrainConfig config;
    config.world_size = 16;
    config.microbatch = 32;
    config.epochs = 2;
    config.optimizer = optim::OptimizerKind::kMomentum;
    config.dist.op = ReduceOp::kAdasum;
    config.dist.layerwise = layerwise;
    config.schedule = &schedule;
    config.eval_examples = 512;
    config.seed = 17;
    return train::train_data_parallel(factory, train_set, eval_set, config)
        .final_accuracy;
  };
  const double with_layers = run(true);
  const double whole = run(false);
  Table table({"mode", "accuracy @16 workers, aggressive schedule"});
  table.row("per-layer Adasum", with_layers);
  table.row("whole-gradient Adasum", whole);
  table.print();
  bench::check_shape(
      "per-layer application is at least as good as whole-gradient (the "
      "paper's §3.6 choice)",
      with_layers >= whole - 0.02);
}

// --- (3) multi-path variance (§3.3) -------------------------------------------

void multipath_variance() {
  std::cout << "\n--- ablation 3: order-averaging reduces estimator variance "
               "(§3.3) ---\n";
  Rng rng(13);
  const std::size_t dim = 256;
  Tensor mean({dim});
  for (std::size_t i = 0; i < dim; ++i) mean.set(i, rng.normal());
  const int trials = 400;
  // Compare Adasum (average of both orders) with the one-sided correction
  // w_{1,2} (Equation 5): same expectation family, different variance.
  std::vector<double> ada_proj, onesided_proj;
  for (int t = 0; t < trials; ++t) {
    Tensor a = mean.clone(), b = mean.clone();
    for (std::size_t i = 0; i < dim; ++i) {
      a.set(i, a.at(i) + rng.normal(0.0, 1.5));
      b.set(i, b.at(i) + rng.normal(0.0, 1.5));
    }
    const auto v = kernels::dot_triple(a.span<float>(), b.span<float>());
    const Tensor ada = adasum_pair(a, b);
    Tensor one({dim});
    kernels::scaled_sum(a.span<float>(), 1.0, b.span<float>(),
                        1.0 - v.ab / v.bb, one.span<float>());
    // Project on the true direction; variance of this scalar measures
    // estimator noise along the axis that matters.
    ada_proj.push_back(
        kernels::dot_triple_bytes(ada.data(), mean.data(), dim,
                                  DType::kFloat32)
            .ab);
    onesided_proj.push_back(
        kernels::dot_triple_bytes(one.data(), mean.data(), dim,
                                  DType::kFloat32)
            .ab);
  }
  auto variance = [](const std::vector<double>& xs) {
    double m = 0;
    for (double x : xs) m += x / xs.size();
    double v = 0;
    for (double x : xs) v += (x - m) * (x - m) / xs.size();
    return v;
  };
  const double v_ada = variance(ada_proj);
  const double v_one = variance(onesided_proj);
  Table table({"estimator", "variance of projection on true gradient"});
  table.row("Adasum (both orders averaged)", v_ada);
  table.row("one-sided correction (w_{1,2})", v_one);
  table.print();
  bench::check_shape(
      "sampling both visiting orders lowers variance vs one order (§3.3: "
      "'two samples for the cost of one')",
      v_ada < v_one);
}

}  // namespace

int main() {
  bench::print_header("Ablations — reduction design choices",
                      "DESIGN.md §4: tree/linear, per-layer, order-averaging");
  tree_vs_linear();
  layerwise_vs_whole();
  multipath_variance();
  return bench::exit_status();
}
