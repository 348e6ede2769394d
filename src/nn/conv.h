// 2-D convolution and max pooling (NCHW layout). The loops run in the nn
// kernel table (nn/kernels.h): Conv2d::forward lowers tiles of samples to
// im2col columns with the lanes across output elements, and Conv2d::backward
// runs only the nonzero output gradients, each element keeping the direct
// loop's adds and order (DESIGN.md §18). Conv2d::backward_params runs the
// same loops without the input gradient.
#pragma once

#include "base/check.h"
#include "nn/module.h"

namespace adasum::nn {

struct ConvShape;

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, Rng& rng, std::size_t stride = 1,
         std::size_t padding = 0);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  std::size_t out_size(std::size_t in) const {
    return (in + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  // Accumulates the parameter gradients of the most recent forward and, when
  // gxs is not null, the input gradient into gxs (zeroed, the input's shape).
  void accumulate_gradients(const Tensor& grad_out, float* gxs);
  ConvShape shape_of(const Tensor& x) const;

  std::string name_;
  std::size_t in_c_, out_c_, kernel_, stride_, padding_;
  Parameter weight_;  // (out_c, in_c, k, k)
  Parameter bias_;    // (out_c)
  Tensor cached_input_;
};

// 2x2-style max pooling with stride == window.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, std::size_t window)
      : name_(std::move(name)), window_(window) {
    ADASUM_CHECK_GT(window_, 0u);
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::size_t window_;
  std::vector<std::size_t> input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

// Global average pooling: (B, C, H, W) -> (B, C).
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::size_t> cached_shape_;
};

}  // namespace adasum::nn
