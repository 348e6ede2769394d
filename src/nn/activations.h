// Elementwise activation layers, shape-preserving utility layers
// (Flatten, Dropout) and the Sequential container.
#pragma once

#include <functional>
#include <memory>

#include "nn/module.h"

namespace adasum::nn {

class ReLU : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor cached_input_;
};

class Tanh : public Layer {
 public:
  explicit Tanh(std::string name = "tanh") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor cached_output_;
};

// Gaussian error linear unit, tanh approximation (as in BERT).
class Gelu : public Layer {
 public:
  explicit Gelu(std::string name = "gelu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor cached_input_;
};

// Reshapes (B, ...) to (B, prod(...)). Backward restores the original shape.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::size_t> cached_shape_;
};

// Inverted dropout: active only when train=true; scales survivors by 1/keep.
// Deterministic given the layer's Rng stream.
class Dropout : public Layer {
 public:
  Dropout(std::string name, double drop_probability, Rng rng);
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  double drop_;
  Rng rng_;
  Tensor mask_;  // empty when the last forward was eval-mode
};

// What a Sequential's input is. kData marks a model's root, whose input is
// the batch: its backward() runs the first layer's backward_params() and
// returns an empty Tensor. kActivation (hand-built and nested Sequentials)
// returns the input gradient.
enum class SequentialInput { kActivation, kData };

// Runs layers in order; concatenates their parameters.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name = "seq",
                      SequentialInput input = SequentialInput::kActivation)
      : name_(std::move(name)), input_(input) {}

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::string name_;
  SequentialInput input_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

// Residual connection: y = x + body(x). The body's output shape must equal
// the input shape (ResNetTiny's blocks keep channel counts constant).
class Residual : public Layer {
 public:
  Residual(std::string name, std::unique_ptr<Layer> body)
      : name_(std::move(name)), body_(std::move(body)) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return body_->parameters(); }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::unique_ptr<Layer> body_;
};

}  // namespace adasum::nn
