#include "nn/activations.h"

#include <cmath>
#include <numbers>

#include "base/check.h"
#include "nn/kernels.h"

namespace adasum::nn {

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y(x.shape());
  active_kernels().relu_forward(x.span<float>().data(),
                                y.span<float>().data(), x.size());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  ADASUM_CHECK_EQ(grad_out.size(), cached_input_.size());
  Tensor grad_in(cached_input_.shape());
  active_kernels().relu_backward(cached_input_.span<float>().data(),
                                 grad_out.span<float>().data(),
                                 grad_in.span<float>().data(),
                                 cached_input_.size());
  return grad_in;
}

Tensor Tanh::forward(const Tensor& x, bool /*train*/) {
  Tensor y(x.shape());
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = std::tanh(xs[i]);
  cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  Tensor grad_in(cached_output_.shape());
  const auto ys = cached_output_.span<float>();
  const auto gs = grad_out.span<float>();
  auto os = grad_in.span<float>();
  for (std::size_t i = 0; i < ys.size(); ++i)
    os[i] = gs[i] * (1.0f - ys[i] * ys[i]);
  return grad_in;
}

namespace {
// tanh-approximated GELU and its derivative.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float gelu_grad(float x) {
  const float x3 = x * x * x;
  const float inner = kGeluC * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}
}  // namespace

Tensor Gelu::forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y(x.shape());
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = gelu(xs[i]);
  return y;
}

Tensor Gelu::backward(const Tensor& grad_out) {
  Tensor grad_in(cached_input_.shape());
  const auto xs = cached_input_.span<float>();
  const auto gs = grad_out.span<float>();
  auto os = grad_in.span<float>();
  for (std::size_t i = 0; i < xs.size(); ++i) os[i] = gs[i] * gelu_grad(xs[i]);
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_GE(x.rank(), 2u);
  cached_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

Dropout::Dropout(std::string name, double drop_probability, Rng rng)
    : name_(std::move(name)), drop_(drop_probability), rng_(rng) {
  ADASUM_CHECK_GE(drop_, 0.0);
  ADASUM_CHECK_LT(drop_, 1.0);
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train || drop_ == 0.0) {
    mask_ = Tensor();
    return x;
  }
  const float keep = static_cast<float>(1.0 - drop_);
  mask_ = Tensor(x.shape());
  Tensor y(x.shape());
  const auto xs = x.span<float>();
  auto ms = mask_.span<float>();
  auto ys = y.span<float>();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ms[i] = rng_.uniform() < drop_ ? 0.0f : 1.0f / keep;
    ys[i] = xs[i] * ms[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  Tensor grad_in(grad_out.shape());
  const auto gs = grad_out.span<float>();
  const auto ms = mask_.span<float>();
  auto os = grad_in.span<float>();
  for (std::size_t i = 0; i < gs.size(); ++i) os[i] = gs[i] * ms[i];
  return grad_in;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (layers_.empty()) return x;
  Tensor h = layers_.front()->forward(x, train);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    h = layers_[i]->forward(h, train);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  const bool data = input_ == SequentialInput::kData && !layers_.empty();
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i > (data ? 1 : 0); --i)
    g = layers_[i - 1]->backward(g);
  if (!data) return g;
  layers_.front()->backward_params(g);
  return Tensor();
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_)
    for (Parameter* p : layer->parameters()) params.push_back(p);
  return params;
}

Tensor Residual::forward(const Tensor& x, bool train) {
  Tensor y = body_->forward(x, train);
  ADASUM_CHECK_EQ(y.size(), x.size());
  auto ys = y.span<float>();
  const auto xs = x.span<float>();
  for (std::size_t i = 0; i < ys.size(); ++i) ys[i] += xs[i];
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor gx = body_->backward(grad_out);
  ADASUM_CHECK_EQ(gx.size(), grad_out.size());
  auto gs = gx.span<float>();
  const auto go = grad_out.span<float>();
  for (std::size_t i = 0; i < gs.size(); ++i) gs[i] += go[i];
  return gx;
}

}  // namespace adasum::nn
