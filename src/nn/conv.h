// 2-D convolution and max pooling (NCHW layout).
//
// Conv2d::forward lowers a tile of whole samples to im2col columns in the
// shared forward scratch (nn/linear.h), copying each row's in-range span as
// one block at stride 1, and accumulates each output channel with the lanes
// running across output elements, so it vectorizes while every element keeps
// the direct loop's summation order (DESIGN.md §18).
// Conv2d::backward lists each output plane's nonzero gradients without a
// branch per element and runs only those, with whole kernel rows as vector
// ops where the window's columns lie inside the input; every gradient element
// keeps the zero-skipping direct loop's adds and order (DESIGN.md §18).
// Conv2d::backward_params runs the same loops without the input gradient.
#pragma once

#include "base/check.h"
#include "nn/module.h"

namespace adasum::nn {

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
