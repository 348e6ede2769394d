// Model factories — the stand-ins for the paper's evaluation workloads
// (DESIGN.md substitution table):
//   Mlp        — generic dense net (Figure 2's Hessian-emulation subject)
//   LeNet5     — LeNet-5 on (synthetic) MNIST (§5.4, Figure 6)
//   ResNetTiny — residual convnet standing in for ResNet-50 (§5.1, Figure 5)
//   TinyBert   — causal transformer encoder standing in for BERT-Large
//                (§5.3, Tables 3/4, Figure 1b)
//
// Every factory seeds deterministically from the provided Rng, so all ranks
// of a data-parallel run construct bit-identical replicas from the same seed
// (the "user is responsible for initializing the model correctly in all
// nodes" contract of §4.1).
//
// make_mlp, make_lenet5 and make_resnet_tiny build their root with
// SequentialInput::kData: the input is the batch, so backward() accumulates
// every parameter gradient and returns an empty Tensor instead of the
// gradient of the data (DESIGN.md §18).
#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/module.h"

namespace adasum::nn {

// Dense net: dims = {in, hidden..., out}; ReLU between layers, linear head.
std::unique_ptr<Sequential> make_mlp(const std::vector<std::size_t>& dims,
                                     Rng& rng, const std::string& name = "mlp");

// Classic LeNet-5 shape: conv(6,5x5,pad2)-pool-conv(16,5x5)-pool-fc120-
// fc84-fc<classes>, tanh activations as in the original, ReLU optional.
// `input_hw` is the (square) input resolution; 28 gives the canonical
// MNIST geometry, smaller values shrink the flattened fc1 fan-in
// accordingly (the benches use 16 for speed).
std::unique_ptr<Sequential> make_lenet5(std::size_t num_classes, Rng& rng,
                                        bool relu = true,
                                        std::size_t input_hw = 28);

// Small residual convnet for (in_channels)x16x16 images: stem conv, then
// `blocks` residual pairs, pool, `blocks` more, global-avg-pool, linear head.
std::unique_ptr<Sequential> make_resnet_tiny(std::size_t in_channels,
                                             std::size_t num_classes,
                                             Rng& rng, int blocks = 2,
                                             std::size_t width = 16);

struct TinyBertConfig {
  std::size_t vocab = 64;
  std::size_t max_len = 32;
  std::size_t dim = 32;
  std::size_t ffn_dim = 64;
  int layers = 2;
  double dropout = 0.0;
};

// Pre-LN causal transformer: Embedding -> layers x [x += Attn(LN(x));
// x += FFN(LN(x))] -> LN -> Linear(vocab). Input (B, T) float token ids,
// output (B, T, vocab) logits. Suitable for a next-token objective.
std::unique_ptr<Sequential> make_tiny_bert(const TinyBertConfig& config,
                                           Rng& rng);

}  // namespace adasum::nn
