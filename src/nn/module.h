// Layer/parameter framework for the training substrate.
//
// A deliberately small define-by-run-free framework: each Layer owns its
// parameters and caches whatever it needs from forward() to compute
// backward(). Gradients ACCUMULATE into Parameter::grad — callers zero them
// between steps (zero_grads) exactly like the frameworks the paper targets.
// All NN math is fp32 (the communication payload may be cast to fp16 by the
// distributed optimizer; see src/optim).
//
// The per-layer parameter names feed the fusion boundary table, which is what
// the per-layer Adasum (§3.6) keys on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "tensor/tensor.h"

namespace adasum::nn {

// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string name_, std::vector<std::size_t> shape)
      : name(std::move(name_)), value(shape), grad(std::move(shape)) {}

  std::size_t size() const { return value.size(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass. `train` toggles train-time behavior (dropout). The layer
  // may cache activations needed by backward(); forward/backward calls must
  // alternate (one in flight).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  // Backward pass for the most recent forward(): accumulates parameter
  // gradients and returns the gradient w.r.t. the layer input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Backward for a layer whose input is data, which needs no gradient:
  // accumulates the same parameter gradients as backward() and computes no
  // input gradient. The default runs backward() and drops its result; Conv2d
  // and Linear skip that work (DESIGN.md §18).
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  // Trainable parameters, stable order. Default: none.
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;
};

// Utility shared by every model: flattened parameter access.
inline std::size_t total_parameter_count(
    const std::vector<Parameter*>& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) n += p->value.size();
  return n;
}

inline void zero_grads(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->grad.fill(0.0);
}

// ---- weight initialization ---------------------------------------------------

// He (Kaiming) normal init for ReLU networks: N(0, sqrt(2/fan_in)).
void he_init(Tensor& w, std::size_t fan_in, Rng& rng);
// Xavier/Glorot uniform init: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
void xavier_init(Tensor& w, std::size_t fan_in, std::size_t fan_out, Rng& rng);
// N(0, stddev) init (embeddings, layernorm-free transformer weights).
void normal_init(Tensor& w, double stddev, Rng& rng);

}  // namespace adasum::nn
