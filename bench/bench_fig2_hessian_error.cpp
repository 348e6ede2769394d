// Figure 2: approximation error of Adasum and synchronous SGD relative to a
// sequential emulation that uses the exact Hessian (§3.7).
//
// The paper ran LeNet-5/MNIST with 64 nodes and PyTorch autograd Hessians;
// here a small MLP on synthetic MNIST with 8 workers and central-difference
// Hessian-vector products (exact to O(eps^2)) — small enough that the
// O(workers^2) gradient evaluations per step stay fast, while the comparison
// itself is identical in structure: at every communication step, compute
//   emu    = tree-recursive sequential emulation with the exact Hessian,
//   adasum = Adasum tree of the same gradients,
//   sync   = plain sum of the same gradients,
// and report ||method - emu|| / ||emu||.
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "core/adasum.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "tensor/kernels.h"
#include "train/hessian.h"

namespace {

using namespace adasum;
using bench::Table;

double rel_err(const Tensor& method, const Tensor& reference) {
  double num = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < method.size(); ++i) {
    const double d = method.at(i) - reference.at(i);
    num += d * d;
    denom += reference.at(i) * reference.at(i);
  }
  return std::sqrt(num / std::max(denom, 1e-30));
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2 — approximation error vs exact-Hessian sequential emulation",
      "Fig. 2: Adasum error < synchronous-SGD error, both per step");

  const int workers = 8;
  const std::size_t microbatch = 8;
  const int steps = bench::full_mode() ? 240 : 90;

  data::ClusterImageDataset::Options dopt;
  dopt.num_examples = 4096;
  dopt.num_classes = 8;
  dopt.height = 8;
  dopt.width = 8;
  dopt.noise = 1.2;
  dopt.seed = 21;
  data::ClusterImageDataset dataset(dopt);

  Rng rng(77);
  auto model = nn::make_mlp({64, 32, 8}, rng);
  auto params = model->parameters();

  Table table({"step", "lr", "adasum_err", "syncsgd_err"});
  double adasum_sum = 0, sync_sum = 0;
  double sync_early = 0, sync_late = 0;
  int wins = 0;
  // The Adasum correction is derived under the locally optimal learning rate
  // alpha* = 1/||g||^2 (Appendix A.2). The run therefore tracks a smoothed,
  // clamped estimate of alpha* — the regime the paper's converging LeNet-5
  // schedule operates in.
  double lr_ema = 0.05;

  Rng index_rng(177);
  for (int step = 0; step < steps; ++step) {
    // Each worker draws a disjoint microbatch.
    std::vector<data::Batch> batches;
    for (int w = 0; w < workers; ++w) {
      std::vector<std::size_t> idx(microbatch);
      for (auto& i : idx) i = index_rng.uniform_int(dataset.size());
      data::Batch b = data::make_batch(dataset, idx);
      b.inputs = b.inputs.reshaped({microbatch, 64});
      batches.push_back(std::move(b));
    }

    const Tensor w0 = train::params_to_flat(params);
    std::vector<Tensor> grads;
    double mean_norm_sq = 0.0;
    for (const data::Batch& b : batches) {
      grads.push_back(train::gradient_at(*model, b, w0));
      mean_norm_sq +=
          kernels::norm_squared(grads.back().span<float>()) / workers;
    }
    const double opt_lr =
        std::clamp(1.0 / std::max(mean_norm_sq, 1e-8), 0.005, 0.15);
    lr_ema = 0.7 * lr_ema + 0.3 * opt_lr;
    const double lr = lr_ema;

    const Tensor emu =
        train::sequential_emulation_update(*model, batches, w0, lr);
    const Tensor ada = adasum_tree(grads);
    Tensor sum({w0.size()});
    for (const Tensor& g : grads)
      kernels::add(g.span<float>(), sum.span<float>());

    const double e_ada = rel_err(ada, emu);
    const double e_sum = rel_err(sum, emu);
    adasum_sum += e_ada;
    sync_sum += e_sum;
    if (e_ada < e_sum) ++wins;
    if (step < steps / 4) sync_early += e_sum;
    if (step >= 3 * steps / 4) sync_late += e_sum;
    if (step % (steps / 18) == 0) table.row(step, lr, e_ada, e_sum);

    // Advance the model with the Adasum update (the run the paper profiles
    // is an Adasum training run).
    Tensor next = w0.clone();
    kernels::axpy(-lr, ada.span<float>(), next.span<float>());
    train::flat_to_params(next, params);
  }
  table.print();

  std::cout << "\nmean error: adasum=" << bench::fmt(adasum_sum / steps)
            << "  syncsgd=" << bench::fmt(sync_sum / steps) << "  (adasum "
            << "closer on " << wins << "/" << steps << " steps)\n\n";

  bench::check_shape(
      "Adasum tracks the exact-Hessian sequential emulation more closely "
      "than synchronous SGD on average",
      adasum_sum < sync_sum);
  bench::check_shape(
      "Adasum is closer on the majority of steps",
      wins > steps * 6 / 10);
  bench::check_shape(
      "sync-SGD error shrinks as training converges (||g|| decay makes "
      "H ~ g g^T decay quadratically, paper §3.7)",
      sync_late < sync_early);
  return bench::exit_status();
}
