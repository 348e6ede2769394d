// Fully-connected layer: y = x Wᵀ + b.
#pragma once

#include "nn/module.h"

namespace adasum::nn {

// Input (B, in_features) -> output (B, out_features). Also accepts
// (B, T, in_features) token tensors, treating B*T as the batch dimension —
// the transformer blocks rely on this.
class Linear : public Layer {
 public:
  // He init by default (ReLU nets); set `xavier` for tanh/softmax heads.
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         Rng& rng, bool xavier = false, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  std::size_t in_, out_;
  bool has_bias_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  Tensor cached_input_;
};

// Minimal row-major GEMM helpers shared by the NN layers:
//   c[m,n] (+)= a[m,k] * b[k,n]          (matmul)
//   c[m,n] (+)= a[m,k] * b[n,k]ᵀ         (matmul_bt)
//   c[k,n] (+)= a[m,k]ᵀ * b[m,n]         (matmul_at)
// `accumulate` false overwrites c. Sizes are in elements; all fp32. c must
// not overlap a or b: matmul and matmul_at list a row's nonzero a values
// before they write c, and matmul_bt packs b before it does. They run in the
// nn kernel table (nn/kernels.h).
void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate = false);
void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate = false);
void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate = false);

}  // namespace adasum::nn
