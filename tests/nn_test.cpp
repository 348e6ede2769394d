// Gradient-correctness tests for every layer via central-difference checks,
// plus loss math and model construction invariants. Getting backward() exactly
// right is what makes every downstream experiment meaningful.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "base/check.h"
#include "base/rng.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/transformer.h"
#include "tensor/simd/simd.h"

namespace adasum::nn {
namespace {

Tensor random_tensor(const std::vector<std::size_t>& shape, Rng& rng,
                     double scale = 1.0) {
  Tensor t(shape);
  auto s = t.span<float>();
  for (auto& v : s) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

// Scalar probe loss: L = sum_i coeff_i * y_i with fixed random coeffs. Its
// gradient w.r.t. y is exactly `coeff`, so backward(coeff) must produce
// dL/dx and dL/dparams matching finite differences of L.
class GradCheck {
 public:
  GradCheck(Layer& layer, const Tensor& input, std::uint64_t seed)
      : layer_(layer), input_(input.clone()) {
    Rng rng(seed);
    Tensor probe_out = layer_.forward(input_, /*train=*/true);
    coeff_ = random_tensor(probe_out.shape(), rng);
    out_shape_ = probe_out.shape();
  }

  double loss_at_current_state() {
    const Tensor y = layer_.forward(input_, true);
    double acc = 0.0;
    const auto ys = y.span<float>();
    const auto cs = coeff_.span<float>();
    for (std::size_t i = 0; i < ys.size(); ++i)
      acc += static_cast<double>(ys[i]) * static_cast<double>(cs[i]);
    return acc;
  }

  // Returns max relative error between analytic and numeric gradients over
  // input and all parameters.
  double max_relative_error(double eps = 1e-3) {
    for (Parameter* p : layer_.parameters()) p->grad.fill(0.0);
    layer_.forward(input_, true);
    const Tensor grad_in = layer_.backward(coeff_);

    double worst = 0.0;
    // Input gradient.
    {
      auto xs = input_.span<float>();
      const auto gs = grad_in.span<float>();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const float saved = xs[i];
        xs[i] = saved + static_cast<float>(eps);
        const double lp = loss_at_current_state();
        xs[i] = saved - static_cast<float>(eps);
        const double lm = loss_at_current_state();
        xs[i] = saved;
        const double numeric = (lp - lm) / (2 * eps);
        worst = std::max(worst, relative_error(gs[i], numeric));
      }
    }
    // Parameter gradients.
    for (Parameter* p : layer_.parameters()) {
      auto ws = p->value.span<float>();
      const auto gs = p->grad.span<float>();
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const float saved = ws[i];
        ws[i] = saved + static_cast<float>(eps);
        const double lp = loss_at_current_state();
        ws[i] = saved - static_cast<float>(eps);
        const double lm = loss_at_current_state();
        ws[i] = saved;
        const double numeric = (lp - lm) / (2 * eps);
        worst = std::max(worst, relative_error(gs[i], numeric));
      }
    }
    return worst;
  }

 private:
  static double relative_error(double analytic, double numeric) {
    const double denom = std::max({std::abs(analytic), std::abs(numeric), 1.0});
    return std::abs(analytic - numeric) / denom;
  }

  Layer& layer_;
  Tensor input_;
  Tensor coeff_;
  std::vector<std::size_t> out_shape_;
};

TEST(GradCheckTest, Linear) {
  Rng rng(1);
  Linear layer("fc", 7, 5, rng);
  const Tensor x = random_tensor({3, 7}, rng);
  GradCheck check(layer, x, 2);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, LinearOnTokenTensor) {
  Rng rng(3);
  Linear layer("fc", 6, 4, rng);
  const Tensor x = random_tensor({2, 5, 6}, rng);
  GradCheck check(layer, x, 4);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, LinearNoBias) {
  Rng rng(5);
  Linear layer("fc", 4, 4, rng, false, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  const Tensor x = random_tensor({2, 4}, rng);
  GradCheck check(layer, x, 6);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, ReLU) {
  Rng rng(7);
  ReLU layer;
  const Tensor x = random_tensor({4, 9}, rng);
  GradCheck check(layer, x, 8);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, TanhLayer) {
  Rng rng(9);
  Tanh layer;
  const Tensor x = random_tensor({4, 9}, rng);
  GradCheck check(layer, x, 10);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, GeluLayer) {
  Rng rng(11);
  Gelu layer;
  const Tensor x = random_tensor({4, 9}, rng);
  GradCheck check(layer, x, 12);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, Conv2d) {
  Rng rng(13);
  Conv2d layer("conv", 2, 3, 3, rng, 1, 1);
  const Tensor x = random_tensor({2, 2, 6, 6}, rng);
  GradCheck check(layer, x, 14);
  EXPECT_LT(check.max_relative_error(), 3e-3);
}

TEST(GradCheckTest, Conv2dStride2NoPad) {
  Rng rng(15);
  Conv2d layer("conv", 1, 2, 3, rng, 2, 0);
  const Tensor x = random_tensor({2, 1, 7, 7}, rng);
  GradCheck check(layer, x, 16);
  EXPECT_LT(check.max_relative_error(), 3e-3);
}

TEST(GradCheckTest, MaxPool) {
  Rng rng(17);
  MaxPool2d layer("pool", 2);
  // Spread values so eps-perturbations cannot flip the argmax.
  Tensor x({2, 2, 4, 4});
  auto xs = x.span<float>();
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(rng.normal(0, 1)) + 0.1f * static_cast<float>(i % 17);
  GradCheck check(layer, x, 18);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, GlobalAvgPool) {
  Rng rng(19);
  GlobalAvgPool layer;
  const Tensor x = random_tensor({3, 4, 5, 5}, rng);
  GradCheck check(layer, x, 20);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, LayerNormLayer) {
  Rng rng(21);
  LayerNorm layer("ln", 10);
  const Tensor x = random_tensor({4, 10}, rng);
  GradCheck check(layer, x, 22);
  EXPECT_LT(check.max_relative_error(), 3e-3);
}

TEST(GradCheckTest, SelfAttentionCausal) {
  Rng rng(23);
  SelfAttention layer("attn", 8, rng, /*causal=*/true);
  const Tensor x = random_tensor({2, 5, 8}, rng, 0.5);
  GradCheck check(layer, x, 24);
  EXPECT_LT(check.max_relative_error(), 5e-3);
}

TEST(GradCheckTest, SelfAttentionBidirectional) {
  Rng rng(25);
  SelfAttention layer("attn", 6, rng, /*causal=*/false);
  const Tensor x = random_tensor({2, 4, 6}, rng, 0.5);
  GradCheck check(layer, x, 26);
  EXPECT_LT(check.max_relative_error(), 5e-3);
}

TEST(GradCheckTest, ResidualAroundLinear) {
  Rng rng(27);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<Linear>("fc", 6, 6, rng);
  Residual layer("res", std::move(body));
  const Tensor x = random_tensor({3, 6}, rng);
  GradCheck check(layer, x, 28);
  EXPECT_LT(check.max_relative_error(), 2e-3);
}

TEST(GradCheckTest, SmallSequentialStack) {
  Rng rng(29);
  Sequential net("net");
  net.emplace<Linear>("fc1", 6, 8, rng);
  net.emplace<ReLU>("r1");
  net.emplace<LayerNorm>("ln", 8);
  net.emplace<Linear>("fc2", 8, 3, rng);
  const Tensor x = random_tensor({4, 6}, rng);
  GradCheck check(net, x, 30);
  EXPECT_LT(check.max_relative_error(), 3e-3);
}

TEST(GradCheckTest, ConvPoolFcStack) {
  // A LeNet-shaped miniature (conv-pool-conv-fc) small enough for a full
  // finite-difference sweep; the full LeNet-5 reuses exactly these layers.
  Rng rng(31);
  Sequential net("mini_lenet");
  net.emplace<Conv2d>("conv1", 1, 2, 3, rng, 1, 1);
  net.emplace<ReLU>("r1");
  net.emplace<MaxPool2d>("pool", 2);
  net.emplace<Conv2d>("conv2", 2, 3, 3, rng);
  net.emplace<ReLU>("r2");
  net.emplace<Flatten>("flat");
  net.emplace<Linear>("fc", 3 * 2 * 2, 4, rng, true);
  const Tensor x = random_tensor({2, 1, 8, 8}, rng, 0.5);
  GradCheck check(net, x, 32);
  EXPECT_LT(check.max_relative_error(), 5e-3);
}

// ---- forward kernels vs the direct loops ----------------------------------
//
// Conv2d::forward (im2col tiles, lanes across output elements) and matmul_bt
// (packed bᵀ, lanes across columns) must reproduce the direct loops below bit
// for bit: each output element keeps the same summation order. The oracles
// are the original scalar loops, kept here and nowhere in src/.

Tensor oracle_conv_forward(const Tensor& x, const Tensor& weight,
                           const Tensor& bias, std::size_t stride,
                           std::size_t padding) {
  const std::size_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t out_c = weight.dim(0), kernel = weight.dim(2);
  const std::size_t oh = (h + 2 * padding - kernel) / stride + 1;
  const std::size_t ow = (w + 2 * padding - kernel) / stride + 1;
  Tensor y({batch, out_c, oh, ow});
  const auto xs = x.span<float>();
  const auto ws = weight.span<float>();
  const auto bs = bias.span<float>();
  auto ys = y.span<float>();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      float* yplane = ys.data() + (b * out_c + oc) * oh * ow;
      for (std::size_t i = 0; i < oh * ow; ++i) yplane[i] = bs[oc];
      for (std::size_t ic = 0; ic < in_c; ++ic) {
        const float* xplane = xs.data() + (b * in_c + ic) * h * w;
        const float* wplane = ws.data() + (oc * in_c + ic) * kernel * kernel;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float acc = 0.0f;
            for (std::size_t ky = 0; ky < kernel; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(padding);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < kernel; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(padding);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                acc += xplane[iy * static_cast<std::ptrdiff_t>(w) + ix] *
                       wplane[ky * kernel + kx];
              }
            }
            yplane[oy * ow + ox] += acc;
          }
        }
      }
    }
  }
  return y;
}

void oracle_matmul_bt(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

// Linear::forward with the oracle GEMM.
Tensor oracle_linear_forward(const Tensor& x, Linear& fc) {
  const std::size_t rows = x.dim(0), in = fc.in_features(),
                    out = fc.out_features();
  Tensor y({rows, out});
  oracle_matmul_bt(x.span<float>().data(),
                   fc.weight().value.span<float>().data(),
                   y.span<float>().data(), rows, in, out, false);
  auto ys = y.span<float>();
  const auto bs = fc.bias().value.span<float>();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t o = 0; o < out; ++o) ys[r * out + o] += bs[o];
  return y;
}

// Normal values with runs of exact zeros (as ReLU leaves them), including a
// few -0.0f.
Tensor sparse_tensor(const std::vector<std::size_t>& shape, Rng& rng) {
  Tensor t = random_tensor(shape, rng);
  auto s = t.span<float>();
  for (std::size_t i = 0; i < s.size(); ++i)
    if ((i / 5) % 3 == 1) s[i] = (i % 7 == 0) ? -0.0f : 0.0f;
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.span<float>().data(), b.span<float>().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(ForwardParity, Conv2dMatchesDirectLoopBitForBit) {
  // 13x11 images with 3 input / 4 output channels split batch 33 (and 7)
  // into uneven sample tiles for every kernel size. The smallest input the
  // layer accepts (kernel - 2 * padding, at least 1) has padding columns on
  // both sides of a single output column.
  Rng rng(101);
  for (std::size_t kernel : {1, 3, 5})
    for (std::size_t stride : {1, 2})
      for (std::size_t padding : {0, 1, 2})
        for (std::size_t batch : {1, 2, 7, 33})
          for (bool smallest : {false, true}) {
            const std::size_t min_hw =
                kernel > 2 * padding ? kernel - 2 * padding : 1;
            const std::size_t h = smallest ? min_hw : 13;
            const std::size_t w = smallest ? min_hw : 11;
            SCOPED_TRACE(::testing::Message()
                         << "k=" << kernel << " s=" << stride
                         << " p=" << padding << " b=" << batch
                         << " hw=" << h << "x" << w);
            Conv2d conv("conv", 3, 4, kernel, rng, stride, padding);
            auto params = conv.parameters();
            params[1]->value = random_tensor({4}, rng);
            // An exact-zero weight multiplies real and padded taps alike.
            params[0]->value.span<float>()[1 % params[0]->size()] = 0.0f;
            const Tensor x = sparse_tensor({batch, 3, h, w}, rng);
            const Tensor y = conv.forward(x, true);
            const Tensor want = oracle_conv_forward(
                x, params[0]->value, params[1]->value, stride, padding);
            EXPECT_TRUE(same_bits(y, want));
          }
}

struct GemmDims {
  std::size_t m, k, n;
};

// Ragged shapes, n = 1 and k = 1, and shapes whose packed bᵀ exceeds the
// scratch: k = 300 packs n = 130 in three column blocks, k = 20000 one column
// at a time.
const std::vector<GemmDims> kGemmDims = {
    {1, 1, 1},     {3, 1, 7},    {5, 9, 1},     {7, 13, 17},
    {32, 64, 120}, {33, 120, 84}, {4, 300, 130}, {2, 20000, 3}};

TEST(ForwardParity, MatmulBtMatchesDirectLoopBitForBit) {
  Rng rng(102);
  for (const GemmDims& d : kGemmDims)
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "m=" << d.m << " k=" << d.k
                                        << " n=" << d.n
                                        << " accumulate=" << accumulate);
      const Tensor a = sparse_tensor({d.m, d.k}, rng);
      const Tensor b = random_tensor({d.n, d.k}, rng);
      const Tensor c0 = random_tensor({d.m, d.n}, rng);
      Tensor got = c0.clone(), want = c0.clone();
      matmul_bt(a.span<float>().data(), b.span<float>().data(),
                got.span<float>().data(), d.m, d.k, d.n, accumulate);
      oracle_matmul_bt(a.span<float>().data(), b.span<float>().data(),
                       want.span<float>().data(), d.m, d.k, d.n, accumulate);
      EXPECT_TRUE(same_bits(got, want));
    }
}

TEST(ForwardParity, LeNet5LogitsMatchDirectLoopForward) {
  Rng rng(103);
  auto net = make_lenet5(10, rng, /*relu=*/true, 16);
  const auto params = net->parameters();
  ASSERT_EQ(params.size(), 10u);
  for (std::size_t i = 1; i < params.size(); i += 2)
    params[i]->value = random_tensor(params[i]->value.shape(), rng, 0.1);
  const Tensor x = random_tensor({32, 1, 16, 16}, rng);
  const Tensor logits = net->forward(x, false);

  // The same layers, with Conv2d and Linear run through the oracles.
  const std::size_t paddings[] = {2, 0};  // conv1, conv2 in make_lenet5
  std::size_t convs = 0;
  Tensor h = x;
  for (std::size_t i = 0; i < net->size(); ++i) {
    Layer& layer = net->layer(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      const auto p = conv->parameters();
      h = oracle_conv_forward(h, p[0]->value, p[1]->value, 1,
                              paddings[convs++]);
    } else if (auto* fc = dynamic_cast<Linear*>(&layer)) {
      h = oracle_linear_forward(h, *fc);
    } else {
      h = layer.forward(h, false);
    }
  }
  EXPECT_EQ(convs, 2u);
  EXPECT_TRUE(same_bits(logits, h));
}

// ---- backward kernels vs the direct loops ---------------------------------
//
// Conv2d::backward (nonzero lists, whole-row taps), ReLU::backward (select)
// and matmul/matmul_at (nonzero lists) must reproduce the zero-skipping
// scalar loops they replaced bit for bit. The oracles below are those loops.

// Accumulates into weight_grad and bias_grad; returns the input gradient.
Tensor oracle_conv_backward(const Tensor& x, const Tensor& weight,
                            const Tensor& grad_out, std::size_t stride,
                            std::size_t padding, Tensor& weight_grad,
                            Tensor& bias_grad) {
  const std::size_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t out_c = weight.dim(0), kernel = weight.dim(2);
  const std::size_t oh = (h + 2 * padding - kernel) / stride + 1;
  const std::size_t ow = (w + 2 * padding - kernel) / stride + 1;
  Tensor grad_in(x.shape());
  const auto xs = x.span<float>();
  const auto ws = weight.span<float>();
  const auto gys = grad_out.span<float>();
  auto gxs = grad_in.span<float>();
  auto gws = weight_grad.span<float>();
  auto gbs = bias_grad.span<float>();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      const float* gyplane = gys.data() + (b * out_c + oc) * oh * ow;
      for (std::size_t i = 0; i < oh * ow; ++i) gbs[oc] += gyplane[i];
      for (std::size_t ic = 0; ic < in_c; ++ic) {
        const float* xplane = xs.data() + (b * in_c + ic) * h * w;
        float* gxplane = gxs.data() + (b * in_c + ic) * h * w;
        const float* wplane = ws.data() + (oc * in_c + ic) * kernel * kernel;
        float* gwplane = gws.data() + (oc * in_c + ic) * kernel * kernel;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const float gy = gyplane[oy * ow + ox];
            if (gy == 0.0f) continue;
            for (std::size_t ky = 0; ky < kernel; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(padding);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < kernel; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(padding);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t xi = static_cast<std::size_t>(iy) * w +
                                       static_cast<std::size_t>(ix);
                gwplane[ky * kernel + kx] += gy * xplane[xi];
                gxplane[xi] += gy * wplane[ky * kernel + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void oracle_matmul(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void oracle_matmul_at(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, k * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* crow = c + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Linear::backward with the oracle GEMMs; accumulates into the parameter
// gradients given.
Tensor oracle_linear_backward(const Tensor& x, Linear& fc,
                              const Tensor& grad_out, Tensor& weight_grad,
                              Tensor& bias_grad) {
  const std::size_t rows = x.dim(0), in = fc.in_features(),
                    out = fc.out_features();
  oracle_matmul_at(grad_out.span<float>().data(), x.span<float>().data(),
                   weight_grad.span<float>().data(), rows, out, in, true);
  auto gb = bias_grad.span<float>();
  const auto gy = grad_out.span<float>();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t o = 0; o < out; ++o) gb[o] += gy[r * out + o];
  Tensor grad_in(x.shape());
  oracle_matmul(gy.data(), fc.weight().value.span<float>().data(),
                grad_in.span<float>().data(), rows, out, in, false);
  return grad_in;
}

// The platform's default NaN, made at run time the way Inf * 0 makes it (x86
// and Arm differ in its sign bit). With every NaN in one bit pattern, a
// result's bits cannot depend on which NaN operand an add propagates.
float default_nan() {
  volatile float zero = 0.0f;
  return std::numeric_limits<float>::infinity() * zero;
}

// Overwrites a few scattered elements with NaN, +Inf and -Inf.
void add_nonfinite(Tensor& t) {
  auto s = t.span<float>();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {default_nan(), inf, -inf};
  for (std::size_t i = 0, v = 0; i < s.size(); i += 97, ++v)
    s[(i * 31) % s.size()] = values[v % 3];
}

TEST(BackwardParity, Conv2dMatchesDirectLoopBitForBit) {
  // As ForwardParity's sweep, plus kernel 7 (no whole-row path), with
  // parameter gradients that start non-zero (backward accumulates) and
  // output gradients holding ±0 runs and, in half the cases, a few NaN/±Inf
  // entries. grad_x is allocated by backward itself.
  Rng rng(111);
  for (std::size_t kernel : {1, 3, 5, 7})
    for (std::size_t stride : {1, 2})
      for (std::size_t padding : {0, 1, 2})
        for (std::size_t batch : {1, 2, 7, 33})
          for (bool smallest : {false, true})
            for (bool nonfinite : {false, true}) {
              const std::size_t min_hw =
                  kernel > 2 * padding ? kernel - 2 * padding : 1;
              const std::size_t h = smallest ? min_hw : 13;
              const std::size_t w = smallest ? min_hw : 11;
              SCOPED_TRACE(::testing::Message()
                           << "k=" << kernel << " s=" << stride
                           << " p=" << padding << " b=" << batch
                           << " hw=" << h << "x" << w
                           << " nonfinite=" << nonfinite);
              Conv2d conv("conv", 3, 4, kernel, rng, stride, padding);
              auto params = conv.parameters();
              params[0]->grad = random_tensor(params[0]->grad.shape(), rng);
              params[1]->grad = random_tensor({4}, rng);
              const Tensor weight_grad0 = params[0]->grad.clone();
              const Tensor bias_grad0 = params[1]->grad.clone();
              // A non-finite x makes NaN of every zero gradient a loop fails
              // to skip.
              Tensor x = sparse_tensor({batch, 3, h, w}, rng);
              if (nonfinite) add_nonfinite(x);
              const Tensor y = conv.forward(x, true);
              Tensor gy = sparse_tensor(y.shape(), rng);
              if (nonfinite) add_nonfinite(gy);

              const Tensor gx = conv.backward(gy);
              Tensor want_weight_grad = weight_grad0.clone();
              Tensor want_bias_grad = bias_grad0.clone();
              const Tensor want_gx = oracle_conv_backward(
                  x, params[0]->value, gy, stride, padding, want_weight_grad,
                  want_bias_grad);
              EXPECT_TRUE(same_bits(gx, want_gx));
              EXPECT_TRUE(same_bits(params[0]->grad, want_weight_grad));
              EXPECT_TRUE(same_bits(params[1]->grad, want_bias_grad));
            }
}

TEST(BackwardParity, MatmulAndMatmulAtMatchDirectLoopsBitForBit) {
  Rng rng(112);
  for (const GemmDims& d : kGemmDims)
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "m=" << d.m << " k=" << d.k
                                        << " n=" << d.n
                                        << " accumulate=" << accumulate);
      Tensor a = sparse_tensor({d.m, d.k}, rng);
      add_nonfinite(a);
      const float* as = a.span<float>().data();
      // Non-finite a and b values: a zero a[i,kk] that is not skipped turns
      // an Inf in b into NaN.
      {
        Tensor b = random_tensor({d.k, d.n}, rng);
        add_nonfinite(b);
        const Tensor c0 = random_tensor({d.m, d.n}, rng);
        Tensor got = c0.clone(), want = c0.clone();
        matmul(as, b.span<float>().data(), got.span<float>().data(), d.m, d.k,
               d.n, accumulate);
        oracle_matmul(as, b.span<float>().data(), want.span<float>().data(),
                      d.m, d.k, d.n, accumulate);
        EXPECT_TRUE(same_bits(got, want)) << "matmul";
      }
      {
        Tensor b = random_tensor({d.m, d.n}, rng);
        add_nonfinite(b);
        const Tensor c0 = random_tensor({d.k, d.n}, rng);
        Tensor got = c0.clone(), want = c0.clone();
        matmul_at(as, b.span<float>().data(), got.span<float>().data(), d.m,
                  d.k, d.n, accumulate);
        oracle_matmul_at(as, b.span<float>().data(),
                         want.span<float>().data(), d.m, d.k, d.n,
                         accumulate);
        EXPECT_TRUE(same_bits(got, want)) << "matmul_at";
      }
    }
}

TEST(BackwardParity, ReluMatchesDirectLoopBitForBit) {
  // Inputs at ±0, NaN, ±denormal and ordinary values against gradients that
  // include ±0 and non-finite values; 37 elements leave a ragged vector tail.
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float xs_in[] = {0.0f, -0.0f, default_nan(), denormal, -denormal,
                         1.5f, -2.0f};
  const float gs_in[] = {0.25f, -0.0f, 0.0f,  -3.0f, default_nan(),
                         inf,   -inf,  7.0f,  -0.5f, 1e-40f, 2.0f};
  Tensor x({37}), g({37});
  auto xs = x.span<float>();
  auto gs = g.span<float>();
  for (std::size_t i = 0; i < 37; ++i) {
    xs[i] = xs_in[i % std::size(xs_in)];
    gs[i] = gs_in[i % std::size(gs_in)];
  }
  ReLU relu("relu");
  relu.forward(x, true);
  const Tensor got = relu.backward(g);
  Tensor want({37});
  auto ws = want.span<float>();
  for (std::size_t i = 0; i < 37; ++i) ws[i] = xs[i] > 0.0f ? gs[i] : 0.0f;
  EXPECT_TRUE(same_bits(got, want));
}

// MaxPool2d's direct loops: each output is the first element of its window,
// in raster order, that is greater than every earlier one, starting from
// -inf (the window's first element when none is, as in an all-NaN or all
// -inf window); backward adds each output gradient to that element.
void oracle_maxpool(const Tensor& x, std::size_t window, const Tensor& grad_out,
                    Tensor& y, Tensor& grad_in) {
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t oh = h / window, ow = w / window;
  y = Tensor({batch, c, oh, ow});
  grad_in = Tensor(x.shape());
  const auto xs = x.span<float>();
  const auto gys = grad_out.span<float>();
  auto ys = y.span<float>();
  auto gxs = grad_in.span<float>();
  for (std::size_t p = 0; p < batch * c; ++p)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t at = p * h * w + oy * window * w + ox * window;
        for (std::size_t ky = 0; ky < window; ++ky)
          for (std::size_t kx = 0; kx < window; ++kx) {
            const std::size_t i =
                p * h * w + (oy * window + ky) * w + ox * window + kx;
            if (xs[i] > best) {
              best = xs[i];
              at = i;
            }
          }
        const std::size_t o = (p * oh + oy) * ow + ox;
        ys[o] = best;
        gxs[at] += gys[o];
      }
}

TEST(BackwardParity, MaxPool2dMatchesDirectLoopBitForBit) {
  // Values from a small set make tied maxima common. Window 0 of every
  // plane is all -inf and window 1 all NaN; NaN elsewhere is scattered.
  // The larger shape runs first on the same layer, so a smaller forward
  // must not read what the larger one left in the argmax cache.
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(115);
  for (std::size_t window : {1, 2, 3}) {
    MaxPool2d pool("pool", window);
    for (const auto& shape : std::vector<std::vector<std::size_t>>{
             {3, 2, 13, 11}, {2, 3, 7, 9}, {1, 1, window, 2 * window}}) {
      SCOPED_TRACE(::testing::Message()
                   << "window=" << window << " shape=" << shape[0] << "x"
                   << shape[1] << "x" << shape[2] << "x" << shape[3]);
      const std::size_t h = shape[2], w = shape[3];
      Tensor x(shape);
      auto xs = x.span<float>();
      for (auto& v : xs) v = static_cast<float>(rng.uniform_int(4)) - 1.0f;
      for (std::size_t i = 0; i < xs.size(); i += 23) xs[i] = default_nan();
      for (std::size_t p = 0; p < shape[0] * shape[1]; ++p)
        for (std::size_t ky = 0; ky < window; ++ky)
          for (std::size_t kx = 0; kx < window; ++kx) {
            xs[p * h * w + ky * w + kx] = -inf;
            xs[p * h * w + ky * w + window + kx] = default_nan();
          }
      const Tensor y = pool.forward(x, true);
      const Tensor gy = random_tensor(y.shape(), rng);
      const Tensor gx = pool.backward(gy);
      Tensor want_y, want_gx;
      oracle_maxpool(x, window, gy, want_y, want_gx);
      EXPECT_TRUE(same_bits(y, want_y));
      EXPECT_TRUE(same_bits(gx, want_gx));
    }
  }
}

TEST(BackwardParity, LeNet5GradientsMatchDirectLoopBackward) {
  // Two replicas from one seed: one runs Sequential::backward, the other the
  // same layers with Conv2d and Linear through the oracles. Every parameter
  // gradient must agree bit for bit. The root's input is data, so its
  // backward returns no input gradient.
  Rng rng_a(113), rng_b(113);
  auto net = make_lenet5(10, rng_a, /*relu=*/true, 16);
  auto ref = make_lenet5(10, rng_b, /*relu=*/true, 16);
  const auto params = net->parameters();
  const auto ref_params = ref->parameters();
  ASSERT_EQ(params.size(), 10u);
  Rng rng(114);
  for (std::size_t i = 1; i < params.size(); i += 2) {
    params[i]->value = random_tensor(params[i]->value.shape(), rng, 0.1);
    ref_params[i]->value = params[i]->value.clone();
  }
  const Tensor x = random_tensor({32, 1, 16, 16}, rng);
  const Tensor logits = net->forward(x, true);
  const Tensor grad_logits = random_tensor(logits.shape(), rng);
  const Tensor grad_x = net->backward(grad_logits);

  // Inputs of every reference layer, then its backward pass in reverse.
  std::vector<Tensor> inputs;
  Tensor h = x;
  for (std::size_t i = 0; i < ref->size(); ++i) {
    inputs.push_back(h);
    h = ref->layer(i).forward(h, true);
  }
  EXPECT_TRUE(same_bits(h, logits));
  const std::size_t paddings[] = {0, 2};  // conv2, conv1 in reverse order
  std::size_t convs = 0;
  Tensor g = grad_logits;
  for (std::size_t i = ref->size(); i-- > 0;) {
    Layer& layer = ref->layer(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      const auto p = conv->parameters();
      g = oracle_conv_backward(inputs[i], p[0]->value, g, 1,
                               paddings[convs++], p[0]->grad, p[1]->grad);
    } else if (auto* fc = dynamic_cast<Linear*>(&layer)) {
      g = oracle_linear_backward(inputs[i], *fc, g, fc->weight().grad,
                                 fc->bias().grad);
    } else {
      g = layer.backward(g);
    }
  }
  EXPECT_EQ(convs, 2u);
  EXPECT_TRUE(grad_x.empty());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(params[i]->name);
    EXPECT_TRUE(same_bits(params[i]->grad, ref_params[i]->grad));
  }
}

// ---- the two nn kernel builds ----------------------------------------------
//
// nn/kernels.cpp is compiled at baseline and, on AVX2 builds, again with
// -mavx2 (nn/kernels.h). Every output element keeps its own rounded
// multiplies and adds in the same order in both, so every output and every
// gradient must match bit for bit: at LeNet's shapes, at ragged ones, and
// with gradients that hold ±0, NaN and ±Inf.

// Normal values with runs of ±0 and, with `nonfinite`, a few NaN and ±Inf.
std::vector<float> kernel_values(std::size_t n, Rng& rng, bool nonfinite) {
  Tensor t = sparse_tensor({n}, rng);
  if (nonfinite) add_nonfinite(t);
  const auto s = t.span<float>();
  return {s.begin(), s.end()};
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

ConvShape conv_shape(std::size_t batch, std::size_t in_c, std::size_t out_c,
                     std::size_t h, std::size_t w, std::size_t kernel,
                     std::size_t stride, std::size_t padding) {
  return {.batch = batch, .in_c = in_c, .out_c = out_c, .h = h, .w = w,
          .oh = (h + 2 * padding - kernel) / stride + 1,
          .ow = (w + 2 * padding - kernel) / stride + 1, .kernel = kernel,
          .stride = stride, .padding = padding};
}

// Everything one table computes for a conv case: the forward output, the
// full backward (gx, gw, gb) and backward_params (gw, gb without gx).
struct ConvRun {
  std::vector<float> y, gx, gw, gb, gw_params, gb_params;
};

ConvRun run_conv(const Kernels& t, const ConvShape& s,
                 const std::vector<float>& x, const std::vector<float>& w,
                 const std::vector<float>& b, const std::vector<float>& gy,
                 const std::vector<float>& gw0,
                 const std::vector<float>& gb0) {
  ConvRun r{.y = std::vector<float>(gy.size()),
            .gx = std::vector<float>(x.size()),
            .gw = gw0, .gb = gb0, .gw_params = gw0, .gb_params = gb0};
  t.conv_forward(s, x.data(), w.data(), b.data(), r.y.data());
  t.conv_backward(s, x.data(), w.data(), gy.data(), r.gx.data(), r.gw.data(),
                  r.gb.data());
  t.conv_backward(s, x.data(), w.data(), gy.data(), nullptr,
                  r.gw_params.data(), r.gb_params.data());
  return r;
}

// The three GEMMs of one Linear layer over `rows` rows: y = x wᵀ (stored and
// accumulated), gw += gyᵀ x and gx = gy w.
struct GemmRun {
  std::vector<float> y, y_acc, gw, gx;
};

GemmRun run_gemms(const Kernels& t, std::size_t rows, std::size_t in,
                  std::size_t out, const std::vector<float>& x,
                  const std::vector<float>& w, const std::vector<float>& gy,
                  const std::vector<float>& y0, const std::vector<float>& gw0) {
  GemmRun r{.y = std::vector<float>(rows * out), .y_acc = y0, .gw = gw0,
            .gx = std::vector<float>(rows * in)};
  t.matmul_bt(x.data(), w.data(), r.y.data(), rows, in, out, false);
  t.matmul_bt(x.data(), w.data(), r.y_acc.data(), rows, in, out, true);
  t.matmul_at(gy.data(), x.data(), r.gw.data(), rows, out, in, true);
  t.matmul(gy.data(), w.data(), r.gx.data(), rows, out, in, false);
  return r;
}

TEST(NnKernels, Avx2TableMatchesBaselineBitForBit) {
  const Kernels* avx2 = kernels_for(simd::Level::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const Kernels* base = kernels_for(simd::Level::kScalar);
  ASSERT_NE(base, nullptr);
  Rng rng(120);

  // LeNet-5 at 16x16 (conv1, conv2) at batch 32, 1 and 33; 13x11 planes,
  // whose columns end inside a lane group; K = 3 at stride 2 and padding 1.
  const ConvShape convs[] = {
      conv_shape(32, 1, 6, 16, 16, 5, 1, 2), conv_shape(32, 6, 16, 8, 8, 5, 1, 0),
      conv_shape(1, 1, 6, 16, 16, 5, 1, 2),  conv_shape(33, 6, 16, 8, 8, 5, 1, 0),
      conv_shape(7, 3, 4, 13, 11, 5, 1, 2),  conv_shape(33, 3, 4, 13, 11, 3, 2, 1),
      conv_shape(1, 2, 5, 9, 7, 3, 2, 1)};
  for (const ConvShape& s : convs)
    for (const bool nonfinite : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "conv b=" << s.batch << " " << s.in_c << "->" << s.out_c
                   << " " << s.h << "x" << s.w << " k=" << s.kernel
                   << " s=" << s.stride << " p=" << s.padding
                   << " nonfinite=" << nonfinite);
      const std::size_t wn = s.out_c * s.in_c * s.kernel * s.kernel;
      const auto x = kernel_values(s.batch * s.in_c * s.h * s.w, rng, false);
      const auto w = kernel_values(wn, rng, false);
      const auto b = kernel_values(s.out_c, rng, false);
      const auto gy =
          kernel_values(s.batch * s.out_c * s.oh * s.ow, rng, nonfinite);
      const auto gw0 = kernel_values(wn, rng, false);
      const auto gb0 = kernel_values(s.out_c, rng, false);
      const ConvRun want = run_conv(*base, s, x, w, b, gy, gw0, gb0);
      const ConvRun got = run_conv(*avx2, s, x, w, b, gy, gw0, gb0);
      EXPECT_TRUE(same_floats(got.y, want.y)) << "forward";
      EXPECT_TRUE(same_floats(got.gx, want.gx)) << "input gradient";
      EXPECT_TRUE(same_floats(got.gw, want.gw)) << "weight gradient";
      EXPECT_TRUE(same_floats(got.gb, want.gb)) << "bias gradient";
      EXPECT_TRUE(same_floats(got.gw_params, want.gw_params))
          << "backward_params weight gradient";
      EXPECT_TRUE(same_floats(got.gb_params, want.gb_params))
          << "backward_params bias gradient";
    }

  // LeNet's fc1, fc2 and fc3 at batch 32, 1 and 33, and a Linear on a
  // (B, T, in) = (3, 5, 7) token tensor, whose rows are B * T.
  const GemmDims gemms[] = {{32, 64, 120}, {32, 120, 84}, {32, 84, 10},
                            {1, 64, 120},  {33, 120, 84}, {3 * 5, 7, 9}};
  for (const GemmDims& d : gemms)
    for (const bool nonfinite : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "linear rows=" << d.m << " in=" << d.k
                   << " out=" << d.n << " nonfinite=" << nonfinite);
      const auto x = kernel_values(d.m * d.k, rng, false);
      const auto w = kernel_values(d.n * d.k, rng, false);
      const auto gy = kernel_values(d.m * d.n, rng, nonfinite);
      const auto y0 = kernel_values(d.m * d.n, rng, false);
      const auto gw0 = kernel_values(d.n * d.k, rng, false);
      const GemmRun want = run_gemms(*base, d.m, d.k, d.n, x, w, gy, y0, gw0);
      const GemmRun got = run_gemms(*avx2, d.m, d.k, d.n, x, w, gy, y0, gw0);
      EXPECT_TRUE(same_floats(got.y, want.y)) << "matmul_bt";
      EXPECT_TRUE(same_floats(got.y_acc, want.y_acc))
          << "matmul_bt, accumulate";
      EXPECT_TRUE(same_floats(got.gw, want.gw)) << "matmul_at";
      EXPECT_TRUE(same_floats(got.gx, want.gx)) << "matmul";
    }

  // ReLU and 2x2 max pooling over LeNet's act1/pool1 and a ragged 33-sample
  // batch of odd 7x9 planes, inputs and gradients both holding ±0, NaN and
  // ±Inf.
  for (const std::size_t planes : {32u * 6u, 33u * 3u}) {
    const std::size_t h = planes == 32 * 6 ? 16 : 7;
    const std::size_t w = planes == 32 * 6 ? 16 : 9;
    SCOPED_TRACE(::testing::Message() << "planes=" << planes << " " << h
                                      << "x" << w);
    const std::size_t n = planes * h * w;
    const std::size_t pooled = planes * (h / 2) * (w / 2);
    const auto x = kernel_values(n, rng, true);
    const auto gy = kernel_values(n, rng, true);
    const auto gpool = kernel_values(pooled, rng, true);
    std::vector<float> y[2], gx[2], py[2], pgx[2];
    std::vector<std::size_t> argmax[2];
    const Kernels* tables[] = {base, avx2};
    for (int i = 0; i < 2; ++i) {
      y[i].resize(n);
      gx[i].resize(n);
      py[i].resize(pooled);
      pgx[i].assign(n, 0.0f);
      argmax[i].resize(pooled);
      tables[i]->relu_forward(x.data(), y[i].data(), n);
      tables[i]->relu_backward(x.data(), gy.data(), gx[i].data(), n);
      tables[i]->maxpool_forward(x.data(), py[i].data(), argmax[i].data(),
                                 planes, h, w, 2);
      tables[i]->maxpool_backward(gpool.data(), argmax[i].data(),
                                  pgx[i].data(), pooled);
    }
    EXPECT_TRUE(same_floats(y[1], y[0])) << "relu forward";
    EXPECT_TRUE(same_floats(gx[1], gx[0])) << "relu backward";
    EXPECT_TRUE(same_floats(py[1], py[0])) << "maxpool forward";
    EXPECT_EQ(argmax[1], argmax[0]) << "maxpool argmax";
    EXPECT_TRUE(same_floats(pgx[1], pgx[0])) << "maxpool backward";
  }
}

TEST(NnKernels, LayersUseTheActiveLevelsTable) {
  const Kernels* active = kernels_for(simd::active_level());
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(&active_kernels(), active);
  EXPECT_STREQ(active_kernels().name,
               simd::active_level() == simd::Level::kAvx2 ? "avx2"
                                                          : "baseline");
}

// ---- argument validation --------------------------------------------------

TEST(LayerArguments, ZeroStrideKernelOrWindowThrows) {
  Rng rng(104);
  EXPECT_THROW(Conv2d("conv", 1, 1, 3, rng, /*stride=*/0), CheckError);
  EXPECT_THROW(Conv2d("conv", 1, 1, /*kernel=*/0, rng), CheckError);
  EXPECT_THROW(MaxPool2d("pool", 0), CheckError);
}

TEST(LayerArguments, InputSmallerThanPaddedKernelThrows) {
  Rng rng(105);
  Conv2d conv("conv", 1, 1, 5, rng, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 2, 8}), false), CheckError);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 8, 2}), false), CheckError);
  // Exactly kernel - 2 * padding fits: one output row and column.
  const Tensor y = conv.forward(Tensor({1, 1, 3, 3}), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 1}));
}

// ---- losses -----------------------------------------------------------------

TEST(Loss, SoftmaxCrossEntropyMatchesHandComputation) {
  Tensor logits = Tensor::from_vector({1.0, 2.0, 3.0}).reshaped({1, 3});
  const LossResult r = softmax_cross_entropy(logits, {2});
  // L = log(sum exp(l)) - l_2
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(r.loss, std::log(denom) - 3.0, 1e-6);
  // grad = softmax - onehot
  EXPECT_NEAR(r.grad.at(0), std::exp(1.0) / denom, 1e-6);
  EXPECT_NEAR(r.grad.at(2), std::exp(3.0) / denom - 1.0, 1e-6);
}

TEST(Loss, CrossEntropyGradientIsNumericallyCorrect) {
  Rng rng(33);
  Tensor logits = random_tensor({3, 5}, rng);
  const std::vector<int> labels{1, 4, 0};
  const LossResult r = softmax_cross_entropy(logits, labels);
  auto ls = logits.span<float>();
  const double eps = 1e-3;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const float saved = ls[i];
    ls[i] = saved + static_cast<float>(eps);
    const double lp = softmax_cross_entropy(logits, labels).loss;
    ls[i] = saved - static_cast<float>(eps);
    const double lm = softmax_cross_entropy(logits, labels).loss;
    ls[i] = saved;
    EXPECT_NEAR(r.grad.at(i), (lp - lm) / (2 * eps), 1e-4) << i;
  }
}

TEST(Loss, IgnoredLabelsContributeNothing) {
  Rng rng(34);
  Tensor logits = random_tensor({4, 3}, rng);
  const LossResult all = softmax_cross_entropy(logits, {0, 1, 2, 0});
  const LossResult some = softmax_cross_entropy(logits, {0, -1, 2, -1});
  // Ignored rows have zero gradient.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(some.grad.at(3 + c), 0.0f);
    EXPECT_NE(all.grad.at(3 + c), 0.0f);
  }
}

TEST(Loss, AllIgnoredIsZeroLoss) {
  Tensor logits({2, 3});
  const LossResult r = softmax_cross_entropy(logits, {-1, -1});
  EXPECT_EQ(r.loss, 0.0);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits = Tensor::from_vector({5, 1, 1,   1, 5, 1,   1, 1, 5})
                      .reshaped({3, 3});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, -1, 0}), 0.5);
}

TEST(Loss, MseGradient) {
  Tensor pred = Tensor::from_vector({1, 2});
  Tensor target = Tensor::from_vector({0, 4});
  const LossResult r = mse_loss(pred, target);
  EXPECT_NEAR(r.loss, (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(r.grad.at(0), 2.0 * 1.0 / 2.0, 1e-6);
  EXPECT_NEAR(r.grad.at(1), 2.0 * -2.0 / 2.0, 1e-6);
}

// ---- models / misc ------------------------------------------------------------

TEST(Models, IdenticalSeedsGiveIdenticalReplicas) {
  Rng rng1(42), rng2(42);
  auto m1 = make_lenet5(10, rng1);
  auto m2 = make_lenet5(10, rng2);
  const auto p1 = m1->parameters();
  const auto p2 = m2->parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i]->size(), p2[i]->size());
    for (std::size_t j = 0; j < p1[i]->size(); ++j)
      ASSERT_EQ(p1[i]->value.at(j), p2[i]->value.at(j));
  }
}

TEST(Models, ParameterNamesAreUniqueAndLayerScoped) {
  Rng rng(43);
  auto model = make_tiny_bert({}, rng);
  const auto params = model->parameters();
  std::set<std::string> names;
  for (const Parameter* p : params) {
    EXPECT_TRUE(names.insert(p->name).second) << "duplicate " << p->name;
  }
  EXPECT_GT(params.size(), 10u);
}

TEST(Models, TinyBertShapes) {
  Rng rng(44);
  TinyBertConfig config;
  config.vocab = 16;
  config.max_len = 8;
  config.dim = 12;
  config.ffn_dim = 24;
  config.layers = 2;
  auto model = make_tiny_bert(config, rng);
  Tensor ids({2, 8});
  for (std::size_t i = 0; i < ids.size(); ++i) ids.set(i, double(i % 16));
  const Tensor logits = model->forward(ids, false);
  ASSERT_EQ(logits.rank(), 3u);
  EXPECT_EQ(logits.dim(0), 2u);
  EXPECT_EQ(logits.dim(1), 8u);
  EXPECT_EQ(logits.dim(2), 16u);
}

TEST(Models, TinyBertGradCheck) {
  Rng rng(45);
  TinyBertConfig config;
  config.vocab = 8;
  config.max_len = 4;
  config.dim = 6;
  config.ffn_dim = 12;
  config.layers = 1;
  auto model = make_tiny_bert(config, rng);
  // Probe gradients of all parameters through the full stack with a real
  // cross-entropy loss at one position.
  Tensor ids({1, 4});
  ids.set(0, 1);
  ids.set(1, 3);
  ids.set(2, 5);
  ids.set(3, 2);
  const std::vector<int> labels{-1, -1, 2, 7};

  auto params = model->parameters();
  zero_grads(params);
  Tensor logits = model->forward(ids, false);
  LossResult lr = softmax_cross_entropy(logits, labels);
  model->backward(lr.grad);

  Rng pick(46);
  const double eps = 1e-3;
  double worst = 0.0;
  for (Parameter* p : params) {
    // Spot-check a few entries per parameter (full sweep is slow).
    for (int probe = 0; probe < 3; ++probe) {
      const std::size_t j = pick.uniform_int(p->size());
      auto w = p->value.span<float>();
      const float saved = w[j];
      w[j] = saved + static_cast<float>(eps);
      const double lp =
          softmax_cross_entropy(model->forward(ids, false), labels).loss;
      w[j] = saved - static_cast<float>(eps);
      const double lm =
          softmax_cross_entropy(model->forward(ids, false), labels).loss;
      w[j] = saved;
      const double numeric = (lp - lm) / (2 * eps);
      const double analytic = p->grad.at(j);
      const double err = std::abs(analytic - numeric) /
                         std::max({std::abs(analytic), std::abs(numeric), 1e-2});
      worst = std::max(worst, err);
    }
  }
  EXPECT_LT(worst, 2e-2);
}

TEST(Models, DropoutOnlyActiveInTraining) {
  Rng rng(47);
  Dropout drop("d", 0.5, rng.fork(1));
  Tensor x = Tensor::full({100}, 1.0);
  const Tensor eval_out = drop.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(eval_out.at(i), 1.0);
  const Tensor train_out = drop.forward(x, /*train=*/true);
  int zeros = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (train_out.at(i) == 0.0) ++zeros;
  EXPECT_GT(zeros, 20);
  EXPECT_LT(zeros, 80);
}

// make_mlp, make_lenet5 and make_resnet_tiny build a root whose input is
// data: its backward skips the first layer's input gradient and returns an
// empty Tensor. A hand-built replica of the same layers still computes that
// gradient; every parameter gradient must match it bit for bit.
void expect_data_root_matches_replica(
    Sequential& model, Sequential& replica,
    const std::vector<std::size_t>& input_shape, std::uint64_t seed) {
  const auto params = model.parameters();
  const auto replica_params = replica.parameters();
  ASSERT_EQ(params.size(), replica_params.size());
  Rng rng(seed);
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->name, replica_params[i]->name);
    if (i % 2 == 1)  // biases start at zero; give them values
      params[i]->value = random_tensor(params[i]->value.shape(), rng, 0.1);
    replica_params[i]->value = params[i]->value.clone();
  }
  const Tensor x = random_tensor(input_shape, rng);
  const Tensor y = model.forward(x, true);
  ASSERT_TRUE(same_bits(y, replica.forward(x, true)));
  const Tensor gy = random_tensor(y.shape(), rng);
  EXPECT_TRUE(model.backward(gy).empty());
  EXPECT_EQ(replica.backward(gy).shape(), x.shape());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(params[i]->name);
    EXPECT_TRUE(same_bits(params[i]->grad, replica_params[i]->grad));
  }
}

TEST(Models, LeNet5RootSkipsOnlyTheInputGradient) {
  Rng rng(49);
  auto model = make_lenet5(10, rng, /*relu=*/true, 16);
  Sequential replica("lenet5");
  replica.emplace<Conv2d>("conv1", 1, 6, 5, rng, 1, 2);
  replica.emplace<ReLU>("act1");
  replica.emplace<MaxPool2d>("pool1", 2);
  replica.emplace<Conv2d>("conv2", 6, 16, 5, rng);
  replica.emplace<ReLU>("act2");
  replica.emplace<MaxPool2d>("pool2", 2);
  replica.emplace<Flatten>("flatten");
  replica.emplace<Linear>("fc1", 16 * 2 * 2, 120, rng);
  replica.emplace<ReLU>("act3");
  replica.emplace<Linear>("fc2", 120, 84, rng);
  replica.emplace<ReLU>("act4");
  replica.emplace<Linear>("fc3", 84, 10, rng, /*xavier=*/true);
  expect_data_root_matches_replica(*model, replica, {32, 1, 16, 16}, 50);
}

TEST(Models, ResNetTinyRootSkipsOnlyTheInputGradient) {
  Rng rng(51);
  auto model = make_resnet_tiny(1, 4, rng, /*blocks=*/1, /*width=*/4);
  const auto block = [&](const std::string& name) {
    auto body = std::make_unique<Sequential>(name + ".body");
    body->emplace<Conv2d>(name + ".conv1", 4, 4, 3, rng, 1, 1);
    body->emplace<ReLU>(name + ".relu");
    body->emplace<Conv2d>(name + ".conv2", 4, 4, 3, rng, 1, 1);
    return std::make_unique<Residual>(name, std::move(body));
  };
  Sequential replica("resnet_tiny");
  replica.emplace<Conv2d>("stem", 1, 4, 3, rng, 1, 1);
  replica.emplace<ReLU>("stem.relu");
  replica.add(block("block1_0"));
  replica.emplace<ReLU>("block1_0.out_relu");
  replica.emplace<MaxPool2d>("pool", 2);
  replica.add(block("block2_0"));
  replica.emplace<ReLU>("block2_0.out_relu");
  replica.emplace<GlobalAvgPool>("gap");
  replica.emplace<Linear>("head", 4, 4, rng, /*xavier=*/true);
  expect_data_root_matches_replica(*model, replica, {8, 1, 16, 16}, 52);
}

TEST(Models, MlpRootSkipsOnlyTheInputGradient) {
  Rng rng(53);
  auto model = make_mlp({12, 8, 3}, rng);
  Sequential replica("mlp");
  replica.emplace<Linear>("mlp.fc0", 12, 8, rng);
  replica.emplace<ReLU>("mlp.relu0");
  replica.emplace<Linear>("mlp.fc1", 8, 3, rng, /*xavier=*/true);
  expect_data_root_matches_replica(*model, replica, {16, 12}, 54);
}

TEST(Models, TotalParameterCount) {
  Rng rng(48);
  Linear fc("fc", 10, 5, rng);
  EXPECT_EQ(total_parameter_count(fc.parameters()), 10u * 5u + 5u);
}

}  // namespace
}  // namespace adasum::nn
