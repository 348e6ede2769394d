#include "nn/linear.h"

#include <vector>

#include "base/check.h"
#include "nn/kernels.h"

namespace adasum::nn {

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate) {
  active_kernels().matmul(a, b, c, m, k, n, accumulate);
}

void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  active_kernels().matmul_bt(a, b, c, m, k, n, accumulate);
}

void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  active_kernels().matmul_at(a, b, c, m, k, n, accumulate);
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
