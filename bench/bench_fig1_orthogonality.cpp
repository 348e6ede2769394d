// Figure 1: per-layer orthogonality of gradients during training.
//
// Paper setup: ResNet-50/ImageNet (Fig 1a) and BERT-Large (Fig 1b) on 64
// GPUs; at points during training, the orthogonality metric
// ||Adasum(g_1..n)||^2 / sum_i ||g_i||^2 is computed per layer. The claims:
//  (1) gradients start out aligned (metric near 1/n) and become orthogonal
//      (metric -> 1) as training proceeds;
//  (2) layers differ — some stay less orthogonal throughout (esp. the
//      transformer);
//  (3) the metric drops exactly at learning-rate-schedule boundaries.
//
// Substitution: ResNetTiny on synthetic images and TinyBert on a synthetic
// Markov corpus, 16 workers, step-decay LR (DESIGN.md).
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "core/adasum.h"
#include "core/orthogonality.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "tensor/kernels.h"
#include "train/hessian.h"

namespace {

using namespace adasum;
using bench::Table;

struct SeriesPoint {
  int step;
  double lr;
  double average;
  double min_layer;
  double max_layer;
};

// Runs `steps` of 16-worker data-parallel training (serially emulated: all
// worker gradients are computed at the same model point, then combined with
// per-layer tree Adasum), recording the layer-orthogonality metric.
template <typename MakeBatch>
std::vector<SeriesPoint> run(nn::Sequential& model, MakeBatch&& make_batch,
                             const optim::LrSchedule& schedule, int steps,
                             int workers, int record_every) {
  auto params = model.parameters();
  std::vector<SeriesPoint> series;
  for (int step = 0; step < steps; ++step) {
    const Tensor w0 = train::params_to_flat(params);
    std::vector<Tensor> fused_grads;
    std::vector<TensorSlice> slices;
    for (int w = 0; w < workers; ++w) {
      nn::zero_grads(params);
      const data::Batch b = make_batch(step, w);
      const Tensor logits = model.forward(b.inputs, /*train=*/true);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, b.labels);
      model.backward(loss.grad);
      // Fuse this worker's gradients with per-parameter boundaries.
      std::vector<const Tensor*> ptrs;
      std::vector<std::string> names;
      for (nn::Parameter* p : params) {
        ptrs.push_back(&p->grad);
        names.push_back(p->name);
      }
      FusedTensor fused = fuse(ptrs, &names);
      if (slices.empty()) slices = fused.slices;
      fused_grads.push_back(std::move(fused.flat));
    }

    if (step % record_every == 0 || step == steps - 1) {
      const LayerOrthogonality lo = layer_orthogonality(fused_grads, slices);
      SeriesPoint pt;
      pt.step = step;
      pt.lr = schedule.lr(step);
      pt.average = lo.average;
      pt.min_layer =
          *std::min_element(lo.per_layer.begin(), lo.per_layer.end());
      pt.max_layer =
          *std::max_element(lo.per_layer.begin(), lo.per_layer.end());
      series.push_back(pt);
    }

    // Apply the per-layer Adasum update.
    const Tensor combined = adasum_tree_layerwise(fused_grads, slices);
    Tensor next = w0.clone();
    kernels::axpy(-schedule.lr(step), combined.span<float>(),
                  next.span<float>());
    train::flat_to_params(next, params);
    nn::zero_grads(params);
  }
  return series;
}

void print_series(const std::string& label,
                  const std::vector<SeriesPoint>& series) {
  std::cout << "\n--- " << label << " ---\n";
  Table table({"step", "lr", "avg_orthogonality", "min_layer", "max_layer"});
  for (const SeriesPoint& pt : series)
    table.row(pt.step, pt.lr, pt.average, pt.min_layer, pt.max_layer);
  table.print();
}

double avg_over(const std::vector<SeriesPoint>& s, std::size_t lo,
                std::size_t hi) {
  double acc = 0;
  for (std::size_t i = lo; i < hi && i < s.size(); ++i) acc += s[i].average;
  return acc / static_cast<double>(std::min(hi, s.size()) - lo);
}

}  // namespace

int main() {
  bench::print_header("Figure 1 — per-layer gradient orthogonality",
                      "Fig. 1a (ResNet) / 1b (transformer), 16 workers");

  const int workers = 16;
  const int steps = bench::full_mode() ? 240 : 90;
  const int boundary = steps * 2 / 3;
  optim::StepDecay schedule(0.08, 0.1, {boundary});

  // --- Fig 1a stand-in: residual convnet on synthetic images --------------
  data::ClusterImageDataset::Options iopt;
  iopt.num_examples = 8192;
  iopt.num_classes = 8;
  iopt.height = 8;
  iopt.width = 8;
  iopt.noise = 0.8;
  iopt.seed = 31;
  data::ClusterImageDataset images(iopt);
  Rng rng_a(401);
  auto convnet = nn::make_resnet_tiny(1, 8, rng_a, /*blocks=*/1, /*width=*/4);
  Rng batch_rng_a(402);
  auto image_batch = [&](int /*step*/, int /*worker*/) {
    std::vector<std::size_t> idx(8);
    for (auto& i : idx) i = batch_rng_a.uniform_int(images.size());
    return data::make_batch(images, idx);
  };
  const auto series_a =
      run(*convnet, image_batch, schedule, steps, workers, steps / 15);
  print_series("ResNetTiny on synthetic images (Fig 1a stand-in)", series_a);

  // --- Fig 1b stand-in: TinyBert on the Markov corpus ----------------------
  data::MarkovTextDataset::Options topt;
  topt.num_examples = 8192;
  topt.vocab = 16;
  topt.seq_len = 8;
  topt.noise = 0.15;
  topt.seed = 32;
  data::MarkovTextDataset text(topt);
  nn::TinyBertConfig bcfg;
  bcfg.vocab = 16;
  bcfg.max_len = 8;
  bcfg.dim = 16;
  bcfg.ffn_dim = 32;
  bcfg.layers = 1;
  Rng rng_b(403);
  auto bert = nn::make_tiny_bert(bcfg, rng_b);
  Rng batch_rng_b(404);
  auto text_batch = [&](int /*step*/, int /*worker*/) {
    std::vector<std::size_t> idx(8);
    for (auto& i : idx) i = batch_rng_b.uniform_int(text.size());
    return data::make_batch(text, idx);
  };
  const auto series_b =
      run(*bert, text_batch, schedule, steps, workers, steps / 15);
  print_series("TinyBert on synthetic corpus (Fig 1b stand-in)", series_b);

  // --- shape checks ---------------------------------------------------------
  std::cout << "\n";
  const double early_a = avg_over(series_a, 0, 2);
  const double late_a = avg_over(series_a, series_a.size() - 4,
                                 series_a.size());
  bench::check_shape(
      "convnet: gradients start aligned and become more orthogonal "
      "(early avg " + bench::fmt(early_a) + " < late avg " +
          bench::fmt(late_a) + ")",
      early_a < late_a);
  const double early_b = avg_over(series_b, 0, 2);
  const double late_b = avg_over(series_b, series_b.size() - 4,
                                 series_b.size());
  bench::check_shape(
      "transformer: same trend (early avg " + bench::fmt(early_b) +
          " < late avg " + bench::fmt(late_b) + ")",
      early_b < late_b);
  // Spread across layers (claim 2): max_layer - min_layer stays substantial.
  double spread = 0;
  for (const auto& pt : series_b) spread = std::max(spread, pt.max_layer - pt.min_layer);
  bench::check_shape(
      "layers differ in orthogonality (max per-layer spread " +
          bench::fmt(spread) + " > 0.1), motivating per-layer Adasum (§3.6)",
      spread > 0.1);
  // Drop at the LR boundary (claim 3): the first recorded point after the
  // boundary is below the last one before it.
  auto drop_at_boundary = [&](const std::vector<SeriesPoint>& s) {
    double before = -1, after = -1;
    for (std::size_t i = 0; i + 1 < s.size(); ++i) {
      if (s[i].step < boundary && s[i + 1].step >= boundary) {
        before = s[i].average;
        after = s[i + 1].average;
      }
    }
    return before > 0 && after < before;
  };
  bench::check_shape(
      "orthogonality drops at the LR-schedule boundary (convnet)",
      drop_at_boundary(series_a));
  return bench::exit_status();
}
