#include "nn/models.h"

#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/transformer.h"

namespace adasum::nn {

std::unique_ptr<Sequential> make_mlp(const std::vector<std::size_t>& dims,
                                     Rng& rng, const std::string& name) {
  ADASUM_CHECK_GE(dims.size(), 2u);
  auto net = std::make_unique<Sequential>(name, SequentialInput::kData);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    net->emplace<Linear>(name + ".fc" + std::to_string(i), dims[i],
                         dims[i + 1], rng, /*xavier=*/last);
    if (!last) net->emplace<ReLU>(name + ".relu" + std::to_string(i));
  }
  return net;
}

std::unique_ptr<Sequential> make_lenet5(std::size_t num_classes, Rng& rng,
                                        bool relu, std::size_t input_hw) {
  ADASUM_CHECK_GE(input_hw, 14u);
  auto net = std::make_unique<Sequential>("lenet5", SequentialInput::kData);
  auto act = [&](const std::string& n) -> std::unique_ptr<Layer> {
    if (relu) return std::make_unique<ReLU>(n);
    return std::make_unique<Tanh>(n);
  };
  // conv1 (pad 2, k5) preserves resolution; pool halves; conv2 (k5) shrinks
  // by 4; pool halves again: 28 -> 5x5, 16 -> 2x2.
  const std::size_t after = (input_hw / 2 - 4) / 2;
  net->emplace<Conv2d>("conv1", 1, 6, 5, rng, 1, 2);
  net->add(act("act1"));
  net->emplace<MaxPool2d>("pool1", 2);
  net->emplace<Conv2d>("conv2", 6, 16, 5, rng);
  net->add(act("act2"));
  net->emplace<MaxPool2d>("pool2", 2);
  net->emplace<Flatten>("flatten");
  net->emplace<Linear>("fc1", 16 * after * after, 120, rng);
  net->add(act("act3"));
  net->emplace<Linear>("fc2", 120, 84, rng);
  net->add(act("act4"));
  net->emplace<Linear>("fc3", 84, num_classes, rng, /*xavier=*/true);
  return net;
}

namespace {

std::unique_ptr<Layer> residual_conv_block(const std::string& name,
                                           std::size_t channels, Rng& rng) {
  auto body = std::make_unique<Sequential>(name + ".body");
  body->emplace<Conv2d>(name + ".conv1", channels, channels, 3, rng, 1, 1);
  body->emplace<ReLU>(name + ".relu");
  body->emplace<Conv2d>(name + ".conv2", channels, channels, 3, rng, 1, 1);
  return std::make_unique<Residual>(name, std::move(body));
}

}  // namespace

std::unique_ptr<Sequential> make_resnet_tiny(std::size_t in_channels,
                                             std::size_t num_classes,
                                             Rng& rng, int blocks,
                                             std::size_t width) {
  auto net =
      std::make_unique<Sequential>("resnet_tiny", SequentialInput::kData);
  net->emplace<Conv2d>("stem", in_channels, width, 3, rng, 1, 1);
  net->emplace<ReLU>("stem.relu");
  for (int b = 0; b < blocks; ++b) {
    net->add(residual_conv_block("block1_" + std::to_string(b), width, rng));
    net->emplace<ReLU>("block1_" + std::to_string(b) + ".out_relu");
  }
  net->emplace<MaxPool2d>("pool", 2);
  for (int b = 0; b < blocks; ++b) {
    net->add(residual_conv_block("block2_" + std::to_string(b), width, rng));
    net->emplace<ReLU>("block2_" + std::to_string(b) + ".out_relu");
  }
  net->emplace<GlobalAvgPool>("gap");
  net->emplace<Linear>("head", width, num_classes, rng, /*xavier=*/true);
  return net;
}

std::unique_ptr<Sequential> make_tiny_bert(const TinyBertConfig& config,
                                           Rng& rng) {
  auto net = std::make_unique<Sequential>("tiny_bert");
  net->emplace<Embedding>("embed", config.vocab, config.max_len, config.dim,
                          rng);
  for (int l = 0; l < config.layers; ++l) {
    const std::string prefix = "layer" + std::to_string(l);
    {
      auto body = std::make_unique<Sequential>(prefix + ".attn_body");
      body->emplace<LayerNorm>(prefix + ".ln1", config.dim);
      body->emplace<SelfAttention>(prefix + ".attn", config.dim, rng,
                                   /*causal=*/true);
      if (config.dropout > 0.0)
        body->emplace<Dropout>(prefix + ".attn_drop", config.dropout,
                               rng.fork(1000 + static_cast<std::uint64_t>(l)));
      net->emplace<Residual>(prefix + ".attn_res", std::move(body));
    }
    {
      auto body = std::make_unique<Sequential>(prefix + ".ffn_body");
      body->emplace<LayerNorm>(prefix + ".ln2", config.dim);
      body->emplace<Linear>(prefix + ".ffn1", config.dim, config.ffn_dim, rng);
      body->emplace<Gelu>(prefix + ".gelu");
      body->emplace<Linear>(prefix + ".ffn2", config.ffn_dim, config.dim, rng,
                            /*xavier=*/true);
      if (config.dropout > 0.0)
        body->emplace<Dropout>(prefix + ".ffn_drop", config.dropout,
                               rng.fork(2000 + static_cast<std::uint64_t>(l)));
      net->emplace<Residual>(prefix + ".ffn_res", std::move(body));
    }
  }
  net->emplace<LayerNorm>("final_ln", config.dim);
  net->emplace<Linear>("lm_head", config.dim, config.vocab, rng,
                       /*xavier=*/true);
  return net;
}

}  // namespace adasum::nn
