#include "nn/linear.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/check.h"

namespace adasum::nn {

float* forward_scratch(std::size_t floats) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < floats) scratch.resize(floats);
  return scratch.data();
}

std::size_t* index_scratch(std::size_t n) {
  thread_local std::vector<std::size_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  // i-k-j order: streams b and c rows, vectorizes the inner j loop. Each row
  // of a runs only its nonzero kk, in order, so every c element keeps the
  // adds a zero-skipping loop makes.
  std::size_t* const nz = index_scratch(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    const std::size_t count = nonzero_indices(arow, k, 0, nz);
    for (std::size_t e = 0; e < count; ++e) {
      const float av = arow[nz[e]];
      const float* brow = b + nz[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  // c[i,j] = sum_kk a[i,kk] * b[j,kk]. A column block of bᵀ is packed so the
  // inner j loop is contiguous; each c[i,j] still sums its products in kk
  // order into a zeroed accumulator before it is stored or added to c.
  const std::size_t block =
      std::max<std::size_t>(1, std::min(n, kForwardScratchFloats / (k + 1)));
  float* const bt = forward_scratch((k + 1) * block);
  for (std::size_t j0 = 0; j0 < n; j0 += block) {
    const std::size_t nb = std::min(block, n - j0);
    float* const acc = bt + k * nb;
    for (std::size_t j = 0; j < nb; ++j)
      for (std::size_t kk = 0; kk < k; ++kk)
        bt[kk * nb + j] = b[(j0 + j) * k + kk];
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      std::fill_n(acc, nb, 0.0f);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* btrow = bt + kk * nb;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += av * btrow[j];
      }
      float* crow = c + i * n + j0;
      if (accumulate)
        for (std::size_t j = 0; j < nb; ++j) crow[j] += acc[j];
      else
        std::copy_n(acc, nb, crow);
    }
  }
}

void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, k * n * sizeof(float));
  // c[kk,j] += a[i,kk] * b[i,j]: outer-product accumulation per i, over the
  // nonzero kk of row i only.
  std::size_t* const nz = index_scratch(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    const std::size_t count = nonzero_indices(arow, k, 0, nz);
    for (std::size_t e = 0; e < count; ++e) {
      const float av = arow[nz[e]];
      float* crow = c + nz[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

namespace {

// Rows of a possibly token-shaped input: (B, in) -> B, (B, T, in) -> B*T.
std::size_t row_count(const Tensor& x, std::size_t in_features) {
  ADASUM_CHECK_GE(x.rank(), 2u);
  ADASUM_CHECK_EQ(x.shape().back(), in_features);
  return x.size() / in_features;
}

std::vector<std::size_t> output_shape(const Tensor& x, std::size_t out) {
  std::vector<std::size_t> shape = x.shape();
  shape.back() = out;
  return shape;
}

}  // namespace

Linear::Linear(std::string name, std::size_t in_features,
               std::size_t out_features, Rng& rng, bool xavier, bool bias)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_(name_ + ".weight", {out_features, in_features}),
      bias_(name_ + ".bias", {out_features}) {
  if (xavier)
    xavier_init(weight_.value, in_, out_, rng);
  else
    he_init(weight_.value, in_, rng);
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  const std::size_t rows = row_count(x, in_);
  cached_input_ = x;
  Tensor y(output_shape(x, out_));
  // y[r, o] = sum_i x[r, i] * w[o, i]  (+ b[o])
  matmul_bt(x.span<float>().data(), weight_.value.span<float>().data(),
            y.span<float>().data(), rows, in_, out_);
  if (has_bias_) {
    auto ys = y.span<float>();
    const auto bs = bias_.value.span<float>();
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t o = 0; o < out_; ++o) ys[r * out_ + o] += bs[o];
  }
  return y;
}

void Linear::backward_params(const Tensor& grad_out) {
  ADASUM_CHECK(!cached_input_.empty());
  const std::size_t rows = row_count(cached_input_, in_);
  ADASUM_CHECK_EQ(grad_out.size(), rows * out_);

  // dW[o, i] += sum_r dy[r, o] * x[r, i]
  matmul_at(grad_out.span<float>().data(),
            cached_input_.span<float>().data(),
            weight_.grad.span<float>().data(), rows, out_, in_,
            /*accumulate=*/true);
  if (has_bias_) {
    auto gb = bias_.grad.span<float>();
    const auto gy = grad_out.span<float>();
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t o = 0; o < out_; ++o) gb[o] += gy[r * out_ + o];
  }
}

Tensor Linear::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  // dx[r, i] = sum_o dy[r, o] * w[o, i]
  Tensor grad_in(cached_input_.shape());
  matmul(grad_out.span<float>().data(), weight_.value.span<float>().data(),
         grad_in.span<float>().data(), row_count(cached_input_, in_), out_,
         in_);
  return grad_in;
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace adasum::nn
