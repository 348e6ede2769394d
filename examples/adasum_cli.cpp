// adasum_cli — a configurable training driver over the public API.
//
//   build/examples/adasum_cli [flags]
//
// Flags (all optional):
//   --model=lenet|resnet|mlp|bert   workload (default lenet)
//   --op=adasum|sum|average         reduction (default adasum)
//   --workers=N                     simulated ranks (default 8)
//   --microbatch=N                  examples per rank per step (default 32)
//   --local-steps=N                 steps per communication round (default 1)
//   --lr=F                          base learning rate (default 0.01)
//   --epochs=N                      epochs (default 4)
//   --optimizer=sgd|momentum|adam|lars|lamb   (default momentum)
//   --compression=none|fp16|int8    effective-gradient payload (default none);
//                                   int8 is the blockwise int8 wire codec
//                                   with error feedback
//   --algo=auto|ring|rvh|hier       allreduce schedule (default auto)
//   --checkpoint=PATH               save final model parameters here
//   --seed=N                        experiment seed (default 1234)
//
// Example: reproduce the Figure-6 divergence interactively:
//   adasum_cli --model=lenet --op=sum --workers=16      # collapses
//   adasum_cli --model=lenet --op=adasum --workers=16   # converges
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "data/synthetic.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "optim/lr_schedule.h"
#include "train/checkpoint.h"
#include "train/hessian.h"
#include "train/trainer.h"

using namespace adasum;

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unrecognized argument: " << arg << "\n";
      std::exit(1);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos)
      flags[arg] = "1";
    else
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return flags;
}

template <typename T>
T get(const std::map<std::string, std::string>& flags,
      const std::string& key, T fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  if constexpr (std::is_same_v<T, std::string>) {
    return it->second;
  } else if constexpr (std::is_same_v<T, double>) {
    return std::stod(it->second);
  } else {
    return static_cast<T>(std::stol(it->second));
  }
}

[[noreturn]] void die(const std::string& what) {
  std::cerr << "error: " << what << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  const std::string model_name = get<std::string>(flags, "model", "lenet");
  const std::string op_name = get<std::string>(flags, "op", "adasum");
  const std::string opt_name = get<std::string>(flags, "optimizer", "momentum");
  const std::string comp_name = get<std::string>(flags, "compression", "none");
  const std::string algo_name = get<std::string>(flags, "algo", "auto");
  const std::string checkpoint = get<std::string>(flags, "checkpoint", "");
  const int workers = get<int>(flags, "workers", 8);
  const std::size_t microbatch = get<std::size_t>(flags, "microbatch", 32);
  const int local_steps = get<int>(flags, "local-steps", 1);
  const double lr = get<double>(flags, "lr", 0.01);
  const int epochs = get<int>(flags, "epochs", 4);
  const std::uint64_t seed = get<std::uint64_t>(flags, "seed", 1234);

  train::TrainConfig config;
  config.world_size = workers;
  config.microbatch = microbatch;
  config.epochs = epochs;
  config.seed = seed;
  config.dist.local_steps = local_steps;

  if (op_name == "adasum") config.dist.op = ReduceOp::kAdasum;
  else if (op_name == "sum") config.dist.op = ReduceOp::kSum;
  else if (op_name == "average") config.dist.op = ReduceOp::kAverage;
  else die("unknown --op " + op_name);

  if (opt_name == "sgd") config.optimizer = optim::OptimizerKind::kSgd;
  else if (opt_name == "momentum") config.optimizer = optim::OptimizerKind::kMomentum;
  else if (opt_name == "adam") config.optimizer = optim::OptimizerKind::kAdam;
  else if (opt_name == "lars") config.optimizer = optim::OptimizerKind::kLars;
  else if (opt_name == "lamb") config.optimizer = optim::OptimizerKind::kLamb;
  else die("unknown --optimizer " + opt_name);

  if (comp_name == "none") config.dist.compression = optim::GradientCompression::kNone;
  else if (comp_name == "fp16") config.dist.compression = optim::GradientCompression::kFp16;
  else if (comp_name == "int8") {
    config.dist.wire_compression.mode = CompressionMode::kInt8;
    config.dist.error_feedback = true;
  } else die("unknown --compression " + comp_name);

  if (algo_name == "auto") config.dist.algo = AllreduceAlgo::kAuto;
  else if (algo_name == "ring") config.dist.algo = AllreduceAlgo::kRing;
  else if (algo_name == "rvh") config.dist.algo = AllreduceAlgo::kRvh;
  else if (algo_name == "hier") {
    config.dist.algo = AllreduceAlgo::kHierarchical;
    config.dist.ranks_per_node = std::max(1, workers / 2);
  } else {
    die("unknown --algo " + algo_name);
  }

  // Workload + model.
  train::ModelFactory factory;
  std::unique_ptr<data::Dataset> train_set, eval_set;
  if (model_name == "bert") {
    data::MarkovTextDataset::Options opt;
    opt.num_examples = 2048;
    opt.vocab = 16;
    opt.seq_len = 8;
    opt.noise = 0.15;
    opt.seed = 51;
    train_set = std::make_unique<data::MarkovTextDataset>(opt);
    opt.num_examples = 512;
    opt.example_seed = 5252;
    eval_set = std::make_unique<data::MarkovTextDataset>(opt);
    factory = [](Rng& rng) {
      nn::TinyBertConfig c;
      c.vocab = 16;
      c.max_len = 8;
      c.dim = 16;
      c.ffn_dim = 32;
      c.layers = 1;
      return nn::make_tiny_bert(c, rng);
    };
  } else {
    data::ClusterImageDataset::Options opt;
    opt.num_examples = 4096;
    opt.num_classes = 10;
    opt.channels = 1;
    opt.height = model_name == "resnet" ? 8 : 16;
    opt.width = opt.height;
    opt.num_classes = model_name == "resnet" ? 8 : 10;
    opt.noise = 0.9;
    opt.seed = 71;
    train_set = std::make_unique<data::ClusterImageDataset>(opt);
    opt.num_examples = 1024;
    opt.example_seed = 7272;
    eval_set = std::make_unique<data::ClusterImageDataset>(opt);
    if (model_name == "lenet") {
      factory = [](Rng& rng) { return nn::make_lenet5(10, rng, true, 16); };
    } else if (model_name == "resnet") {
      factory = [](Rng& rng) { return nn::make_resnet_tiny(1, 8, rng, 1, 4); };
    } else if (model_name == "mlp") {
      const std::size_t pixels = opt.height * opt.width;
      factory = [pixels](Rng& rng) {
        auto net = std::make_unique<nn::Sequential>("mlp");
        net->emplace<nn::Flatten>("flat");
        net->emplace<nn::Linear>("fc1", pixels, 64, rng);
        net->emplace<nn::ReLU>("r");
        net->emplace<nn::Linear>("fc2", 64, 10, rng, true);
        return net;
      };
    } else {
      die("unknown --model " + model_name);
    }
  }

  optim::ConstantLr schedule(lr);
  config.schedule = &schedule;
  config.eval_examples = 512;

  std::cout << "model=" << model_name << " op=" << op_name << " optimizer="
            << opt_name << " workers=" << workers << " microbatch="
            << microbatch << " local_steps=" << local_steps << " lr=" << lr
            << " compression=" << comp_name << " algo=" << algo_name << "\n";
  const train::TrainResult result =
      train::train_data_parallel(factory, *train_set, *eval_set, config);
  for (const auto& e : result.epochs)
    std::cout << "epoch " << e.epoch << "  loss " << e.train_loss
              << "  accuracy " << e.eval_accuracy << "  rounds "
              << e.rounds_so_far << "\n";
  std::cout << "final accuracy " << result.final_accuracy << "\n";

  if (!checkpoint.empty()) {
    // Rebuild a replica with the final parameters and save it.
    Rng rng(config.seed);
    auto model = factory(rng);
    auto params = model->parameters();
    train::flat_to_params(result.final_params, params);
    train::save_parameters(checkpoint, params);
    std::cout << "saved checkpoint to " << checkpoint << "\n";
  }
  return 0;
}
