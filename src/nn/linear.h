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
// before they write c, and matmul_bt packs b before it does.
void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate = false);
void matmul_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate = false);
void matmul_at(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate = false);

// Per-thread scratch for the forward kernels (matmul_bt's packed bᵀ, the
// Conv2d im2col tile), grown to at least `floats` and reused across calls.
// Callers size their tiles to kForwardScratchFloats (64 KiB) and exceed it
// only when a single row or sample cannot fit. Contents do not survive the
// next call.
inline constexpr std::size_t kForwardScratchFloats = 64 * 1024 / sizeof(float);
float* forward_scratch(std::size_t floats);

// Per-thread index buffer for the backward kernels' nonzero lists, grown to
// at least `n` and reused across calls. Contents do not survive the next call.
std::size_t* index_scratch(std::size_t n);

// Stores base + i for every i < n with v[i] != 0 (NaN counts, ±0 does not)
// to idx in increasing order and returns how many it stored. idx needs room
// for n: every index is stored and only the count decides whether it stays,
// so the loop has no data-dependent branch to mispredict.
inline std::size_t nonzero_indices(const float* v, std::size_t n,
                                   std::size_t base, std::size_t* idx) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx[count] = base + i;
    count += v[i] != 0.0f;
  }
  return count;
}

}  // namespace adasum::nn
