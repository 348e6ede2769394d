#include "nn/conv.h"

#include <utility>

#include "base/check.h"
#include "nn/kernels.h"

namespace adasum::nn {

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel, Rng& rng,
               std::size_t stride, std::size_t padding)
    : name_(std::move(name)),
      in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(name_ + ".weight", {out_channels, in_channels, kernel, kernel}),
      bias_(name_ + ".bias", {out_channels}) {
  ADASUM_CHECK_GT(kernel_, 0u);
  ADASUM_CHECK_GT(stride_, 0u);
  he_init(weight_.value, in_c_ * kernel_ * kernel_, rng);
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  ADASUM_CHECK_EQ(x.dim(1), in_c_);
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  ADASUM_CHECK_MSG(h + 2 * padding_ >= kernel_ && w + 2 * padding_ >= kernel_,
                   "input smaller than the padded kernel");
  cached_input_ = x;
  const ConvShape s = shape_of(x);
  Tensor y({batch, out_c_, s.oh, s.ow});
  active_kernels().conv_forward(s, x.span<float>().data(),
                                weight_.value.span<float>().data(),
                                bias_.value.span<float>().data(),
                                y.span<float>().data());
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  Tensor grad_in(cached_input_.shape());
  accumulate_gradients(grad_out, grad_in.span<float>().data());
  return grad_in;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  accumulate_gradients(grad_out, nullptr);
}

ConvShape Conv2d::shape_of(const Tensor& x) const {
  return {.batch = x.dim(0), .in_c = in_c_, .out_c = out_c_, .h = x.dim(2),
          .w = x.dim(3), .oh = out_size(x.dim(2)), .ow = out_size(x.dim(3)),
          .kernel = kernel_, .stride = stride_, .padding = padding_};
}

void Conv2d::accumulate_gradients(const Tensor& grad_out, float* gxs) {
  const ConvShape s = shape_of(cached_input_);
  ADASUM_CHECK_EQ(grad_out.size(), s.batch * out_c_ * s.oh * s.ow);
  active_kernels().conv_backward(s, cached_input_.span<float>().data(),
                                 weight_.value.span<float>().data(),
                                 grad_out.span<float>().data(), gxs,
                                 weight_.grad.span<float>().data(),
                                 bias_.grad.span<float>().data());
}

std::vector<Parameter*> Conv2d::parameters() { return {&weight_, &bias_}; }

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  input_shape_ = x.shape();
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  ADASUM_CHECK_GT(oh, 0u);
  Tensor y({batch, c, oh, ow});
  argmax_.resize(y.size());  // every element is written below
  active_kernels().maxpool_forward(x.span<float>().data(),
                                   y.span<float>().data(), argmax_.data(),
                                   batch * c, h, w, window_);
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  ADASUM_CHECK_EQ(grad_out.size(), argmax_.size());
  Tensor grad_in(input_shape_);
  active_kernels().maxpool_backward(grad_out.span<float>().data(),
                                    argmax_.data(),
                                    grad_in.span<float>().data(),
                                    argmax_.size());
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  ADASUM_CHECK_EQ(x.rank(), 4u);
  cached_shape_ = x.shape();
  const std::size_t batch = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({batch, c});
  const auto xs = x.span<float>();
  auto ys = y.span<float>();
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xs.data() + (b * c + ch) * hw;
      float acc = 0.0f;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      ys[b * c + ch] = acc / static_cast<float>(hw);
    }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const std::size_t batch = cached_shape_[0], c = cached_shape_[1],
                    hw = cached_shape_[2] * cached_shape_[3];
  ADASUM_CHECK_EQ(grad_out.size(), batch * c);
  Tensor grad_in(cached_shape_);
  const auto gys = grad_out.span<float>();
  auto gxs = grad_in.span<float>();
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = gys[b * c + ch] / static_cast<float>(hw);
      float* plane = gxs.data() + (b * c + ch) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  return grad_in;
}

}  // namespace adasum::nn
