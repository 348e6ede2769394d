// The repository benchmark: three closed-loop workloads over the in-process
// 4-rank World, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. Every number is taken from outside the
// library: spans bracket calls into its public functions, and the counters
// come from BufferPool::stats(), CommStats deltas and the operator-new hook
// below.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|small] [--trace-out <path>]
//
// The last line of stdout is the result object {correct, attempted, failed,
// metrics}; earlier lines record the resolved configuration and a readable
// copy of every metric. README.md describes the workloads and the
// layer -> end-to-end table. Exit code: 0 when every correctness check held,
// 1 when one failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collectives/adasum_rvh.h"
#include "collectives/adasum_rvh_reference.h"
#include "comm/world.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "inputs.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/distributed_optimizer.h"
#include "optim/optimizer.h"
#include "tensor/compress/compress.h"
#include "tensor/kernels.h"
#include "tensor/parallel/pool.h"
#include "tensor/simd/simd.h"
#include "trace.h"
#include "train/hessian.h"

// Counts every operator new in the process, so the steady-state allocation
// property of the timed window is a number, not an assumption.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replacement operator new hands out malloc'd
// memory, so free() in the matching operator delete trips a false
// -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace adasum;
using perfbench::Clock;
using perfbench::Layer;
using perfbench::Scope;
using perfbench::SpanLog;
using perfbench::Tracer;

// The World's rank threads; matches the 4-core host the bounds were set on.
constexpr int kRanks = 4;
// Codec accuracy bound for int8 wire compression at the default block
// (BENCH_compress.json reports the same figure).
constexpr double kInt8RelL2Bound = 0.016;
// LeNet-5 at 16x16, the adasum_cli --model=lenet configuration.
constexpr std::size_t kMicrobatch = 32;
constexpr double kLearningRate = 0.01;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// Linear interpolation between order statistics.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- checks ---------------------------------------------------------------

std::atomic<std::uint64_t> g_failed{0};

void fail(const std::string& what) {
  g_failed.fetch_add(1);
  std::cerr << "perfbench: check failed: " << what << "\n";
}

// ---- command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <adasum-shm-64m|"
               "adasum-int8-mailbox-64m|train-lenet> --seed <n> --seconds "
               "<s> --trace <0|1> [--size full|small] [--trace-out <path>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "small") usage("bad --size " + value);
      args.small = value == "small";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown argument " + std::string(key));
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return args;
}

// ---- workloads ------------------------------------------------------------

enum class Kind { kAllreduce, kTrain };

struct Workload {
  const char* name;
  Kind kind;
  const char* transport;
  CompressionMode compression;
};

constexpr Workload kWorkloads[] = {
    {"adasum-shm-64m", Kind::kAllreduce, "shm", CompressionMode::kNone},
    {"adasum-int8-mailbox-64m", Kind::kAllreduce, "mailbox",
     CompressionMode::kInt8},
    {"train-lenet", Kind::kTrain, "mailbox", CompressionMode::kNone},
};

// Run shape. `small` is the self-test's reduced size.
struct Sizes {
  std::size_t payload_floats;  // fused allreduce payload (64 MiB at full)
  int layers;                  // equal layers in the payload
  int ops_per_episode;         // timed allreduce calls per World
  int warmup_ops;
  int steps_per_episode;       // timed training steps per World
  int warmup_steps;
  int min_episodes;
  int probe_ops;               // short allreduce loop in a traced train run
  int probe_steps;             // short training loop in a traced allreduce run
  std::size_t kernel_floats;   // RVH level-0 half; level 1 is half of it
  int probe_reps;
};
constexpr Sizes kFullSizes{std::size_t{16} << 20, 64, 30, 2, 100, 5, 3, 100,
                           30, std::size_t{8} << 20, 5};
constexpr Sizes kSmallSizes{std::size_t{1} << 16, 64, 5, 1, 10, 2, 3, 10,
                            5, std::size_t{1} << 16, 2};

// Pins everything a workload defines, so ADASUM_TRANSPORT, ADASUM_COMPRESS
// or ADASUM_PIPELINE in the environment cannot change it.
void pin_world(World& world, const char* transport, CompressionMode mode) {
  if (!world.set_transport(transport)) {
    std::cerr << "perfbench: unknown transport " << transport << "\n";
    std::exit(2);
  }
  world.set_pipeline(PipelineOptions{});  // chunking off
  CompressionOptions compression;          // default block, stochastic
  compression.mode = mode;
  world.set_compression(compression);
}

std::vector<TensorSlice> equal_layers(std::size_t count, int layers) {
  std::vector<TensorSlice> slices;
  const std::size_t per = count / static_cast<std::size_t>(layers);
  for (int l = 0; l < layers; ++l)
    slices.push_back({"l" + std::to_string(l),
                      static_cast<std::size_t>(l) * per,
                      l + 1 == layers ? count - static_cast<std::size_t>(l) * per
                                      : per});
  return slices;
}

// What one workload loop measured. Counters cover the timed windows only.
struct LoopResult {
  std::vector<double> op_ms;         // untraced episodes, rank 0
  std::vector<double> traced_op_ms;  // traced episodes, rank 0
  std::vector<double> setup_s;       // one per episode
  int episodes = 0;
  std::vector<double> episode_p50_ms;  // shows a bimodal World at a glance
  std::vector<double> episode_p95_ms;
  std::uint64_t ops = 0;
  std::uint64_t pool_allocations = 0, pool_reuses = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t bytes_sent = 0, messages_sent = 0;  // all ranks
  long rounds = 0, skipped_rounds = 0;              // training only
  std::uint64_t input_checksum = 0, result_checksum = 0;
  double rel_l2_error = 0.0;  // allreduce only
  double train_loss = 0.0;    // training only
};

// Counter snapshot at the edges of a timed window, read by rank 0 between
// barriers.
struct Snapshot {
  BufferPool::Stats pool{};
  std::uint64_t heap = 0;
  static Snapshot take(World& world) {
    return {world.buffer_pool().stats(),
            g_heap_allocs.load(std::memory_order_relaxed)};
  }
};

void add_window(LoopResult& res, const Snapshot& a, const Snapshot& b,
                const std::array<CommStats, kRanks>& traffic) {
  res.pool_allocations += b.pool.allocations - a.pool.allocations;
  res.pool_reuses += b.pool.reuses - a.pool.reuses;
  res.heap_allocs += b.heap - a.heap;
  for (const CommStats& s : traffic) {
    res.bytes_sent += s.bytes_sent;
    res.messages_sent += s.messages_sent;
  }
}

// Closed-loop Adasum allreduce: each episode builds a World, synthesizes the
// seeded payload on every rank, warms up, then times `ops_per_episode`
// barrier-bracketed calls. Between calls every rank checks its replica
// against the first timed call's output and restores its inputs, so each
// call reduces the seeded payload.
class AllreduceLoop {
 public:
  struct Spec {
    const char* transport;
    CompressionMode compression;
    std::vector<TensorSlice> slices;
    std::size_t count;
    int ops_per_episode;
    int warmup_ops;
  };

  AllreduceLoop(Spec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(seed), expected_(spec_.count) {}

  void episode(int index, Tracer* tracer, LoopResult& res) {
    const auto start = Clock::now();
    World world(kRanks);
    pin_world(world, spec_.transport, spec_.compression);
    std::vector<double>& samples = tracer ? res.traced_op_ms : res.op_ms;
    samples.reserve(samples.size() +
                    static_cast<std::size_t>(spec_.ops_per_episode));
    const std::size_t bytes = spec_.count * sizeof(float);
    const std::uint32_t op_base = next_op_id_;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> mismatches{0};
    std::array<std::uint64_t, kRanks> input_sums{};
    std::array<CommStats, kRanks> traffic{};
    Snapshot before, after;

    world.run([&](Comm& comm) {
      const int rank = comm.rank();
      SpanLog* log = tracer ? tracer->log(rank) : nullptr;
      // Synthesized once per episode; restoring from a copy costs a third
      // of regenerating, which leaves more of the run for timed calls.
      std::vector<float> inputs(spec_.count), data(spec_.count);
      perfbench::fill_payload(seed_, rank, spec_.slices, inputs);
      const auto restore = [&] {
        std::memcpy(data.data(), inputs.data(), bytes);
      };
      const auto allreduce = [&] {
        adasum_rvh_allreduce(comm, reinterpret_cast<std::byte*>(data.data()),
                             spec_.count, DType::kFloat32, spec_.slices);
      };
      restore();
      if (index == 0)
        input_sums[static_cast<std::size_t>(rank)] =
            perfbench::checksum(inputs.data(), bytes);
      for (int w = 0; w < spec_.warmup_ops; ++w) {
        allreduce();
        restore();
      }
      comm.barrier();
      if (rank == 0) {
        res.setup_s.push_back(seconds_since(start));
        before = Snapshot::take(world);
      }
      const CommStats traffic0 = comm.stats();
      for (int op = 0;; ++op) {
        if (rank == 0) stop.store(op == spec_.ops_per_episode);
        comm.barrier();
        if (stop.load()) break;
        const std::uint32_t op_id = op_base + static_cast<std::uint32_t>(op);
        const auto t0 = Clock::now();
        {
          Scope root(log, Layer::kOp, op_id);
          Scope call(log, Layer::kCollectivesCall, op_id, root.index());
          allreduce();
        }
        comm.barrier();
        if (rank == 0) samples.push_back(ms_since(t0));
        if (index == 0 && op == 0) {
          if (rank == 0) std::memcpy(expected_.data(), data.data(), bytes);
          comm.barrier();
        }
        if (std::memcmp(data.data(), expected_.data(), bytes) != 0)
          mismatches.fetch_add(1);
        restore();
      }
      const CommStats& s = comm.stats();
      traffic[static_cast<std::size_t>(rank)] = {
          s.messages_sent - traffic0.messages_sent,
          s.bytes_sent - traffic0.bytes_sent};
      comm.barrier();
      if (rank == 0) after = Snapshot::take(world);
    });

    next_op_id_ += static_cast<std::uint32_t>(spec_.ops_per_episode);
    ++res.episodes;
    res.ops += static_cast<std::uint64_t>(spec_.ops_per_episode);
    add_window(res, before, after, traffic);
    if (mismatches.load() > 0)
      fail(std::to_string(mismatches.load()) +
           " replica(s) differ from the first timed call's output");
    if (index == 0) {
      std::uint64_t h = 0;
      for (std::uint64_t s : input_sums) h = perfbench::checksum(&s, sizeof s, h);
      res.input_checksum = h;
    }
  }

  // Reduces the same seeded inputs with adasum_rvh_allreduce_reference
  // (exact fp32, copy-based) and holds the first timed call against it:
  // bit-for-bit when the wire is exact, within the codec bound otherwise.
  void reference_check(LoopResult& res) {
    World world(kRanks);
    pin_world(world, "mailbox", CompressionMode::kNone);
    const std::size_t bytes = spec_.count * sizeof(float);
    bool identical = false;
    double err2 = 0.0, ref2 = 0.0;
    world.run([&](Comm& comm) {
      std::vector<float> data(spec_.count);
      perfbench::fill_payload(seed_, comm.rank(), spec_.slices, data);
      adasum_rvh_allreduce_reference(
          comm, reinterpret_cast<std::byte*>(data.data()), spec_.count,
          DType::kFloat32, spec_.slices);
      if (comm.rank() != 0) return;
      identical = std::memcmp(data.data(), expected_.data(), bytes) == 0;
      for (std::size_t i = 0; i < spec_.count; ++i) {
        const double d = static_cast<double>(expected_[i]) - data[i];
        err2 += d * d;
        ref2 += static_cast<double>(data[i]) * data[i];
      }
    });
    res.rel_l2_error = ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
    res.result_checksum = perfbench::checksum(expected_.data(), bytes);
    if (spec_.compression == CompressionMode::kNone) {
      if (!identical)
        fail("first timed call differs from adasum_rvh_allreduce_reference");
    } else if (!(res.rel_l2_error <= kInt8RelL2Bound)) {
      fail("rel_l2_error " + std::to_string(res.rel_l2_error) +
           " exceeds the codec bound");
    }
  }

 private:
  Spec spec_;
  std::uint64_t seed_;
  std::vector<float> expected_;  // rank 0's output of the first timed call
  std::uint32_t next_op_id_ = 0;
};

// Closed-loop LeNet-5 training: the benchmark drives the step itself
// (DataLoader::batch -> forward -> softmax_cross_entropy -> backward ->
// DistributedOptimizer::step) with Adasum over a momentum inner optimizer.
// Every episode trains a fresh model from the seed for the same steps, so
// the mean loss and the final parameters must repeat bit for bit.
class TrainLoop {
 public:
  TrainLoop(std::uint64_t seed, int steps, int warmup_steps)
      : seed_(seed), steps_(steps), warmup_(warmup_steps) {}

  // The model's fused-gradient layer table (the allreduce payload of a step).
  static std::vector<TensorSlice> layer_table() {
    Rng rng(1);
    const auto model = nn::make_lenet5(10, rng, true, 16);
    std::vector<TensorSlice> slices;
    std::size_t offset = 0;
    for (const nn::Parameter* p : model->parameters()) {
      slices.push_back({p->name, offset, p->size()});
      offset += p->size();
    }
    return slices;
  }

  void episode(int index, Tracer* tracer, LoopResult& res) {
    const auto start = Clock::now();
    data::ClusterImageDataset dataset(dataset_options());
    World world(kRanks);
    pin_world(world, "mailbox", CompressionMode::kNone);
    std::vector<double>& samples = tracer ? res.traced_op_ms : res.op_ms;
    samples.reserve(samples.size() + static_cast<std::size_t>(steps_));
    const std::uint32_t op_base = next_op_id_;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> nonfinite{0};
    std::array<double, kRanks> loss_sums{};
    std::array<std::uint64_t, kRanks> input_sums{};
    std::array<std::vector<float>, kRanks> finals;
    std::array<CommStats, kRanks> traffic{};
    Snapshot before, after;
    long rounds = 0, skipped = 0;

    world.run([&](Comm& comm) {
      const int rank = comm.rank();
      const auto r = static_cast<std::size_t>(rank);
      SpanLog* log = tracer ? tracer->log(rank) : nullptr;
      Rng model_rng(fold(0x3c6ef372U));
      const std::unique_ptr<nn::Sequential> model =
          nn::make_lenet5(10, model_rng, true, 16);
      const std::vector<nn::Parameter*> params = model->parameters();
      optim::DistributedOptions dist;
      dist.op = ReduceOp::kAdasum;
      dist.algo = AllreduceAlgo::kRvh;  // explicit, so ADASUM_AUTOTUNE cannot re-pick
      dist.wire_compression.mode = CompressionMode::kNone;
      optim::DistributedOptimizer dopt(
          comm, optim::make_optimizer(optim::OptimizerKind::kMomentum, params),
          dist);
      const data::DataLoader loader(dataset, kMicrobatch, rank, kRanks,
                                    fold(0xda7a10adU));
      const std::size_t per_epoch = loader.batches_per_epoch();

      const auto step = [&](long s, SpanLog* lg, std::uint32_t op_id,
                            int parent) {
        const auto idx = static_cast<std::size_t>(s);
        data::Batch batch;
        {
          Scope span(lg, Layer::kDataBatch, op_id, parent);
          batch = loader.batch(idx / per_epoch, idx % per_epoch);
        }
        Tensor logits;
        {
          Scope span(lg, Layer::kNnForward, op_id, parent);
          logits = model->forward(batch.inputs, /*train=*/true);
        }
        nn::LossResult loss;
        {
          Scope span(lg, Layer::kNnLoss, op_id, parent);
          loss = nn::softmax_cross_entropy(logits, batch.labels);
        }
        {
          Scope span(lg, Layer::kNnBackward, op_id, parent);
          model->backward(loss.grad);
        }
        {
          Scope span(lg, Layer::kOptimStep, op_id, parent);
          dopt.step(kLearningRate);
        }
        return loss.loss;
      };

      if (index == 0) {
        const Tensor init = train::params_to_flat(params);
        const data::Batch first = loader.batch(0, 0);
        std::uint64_t h = perfbench::checksum(init.data(), init.nbytes());
        h = perfbench::checksum(first.inputs.data(), first.inputs.nbytes(), h);
        input_sums[r] = perfbench::checksum(
            first.labels.data(), first.labels.size() * sizeof(int), h);
      }
      for (int w = 0; w < warmup_; ++w) step(w, nullptr, 0, -1);
      comm.barrier();
      if (rank == 0) {
        res.setup_s.push_back(seconds_since(start));
        before = Snapshot::take(world);
        rounds = dopt.rounds();
        skipped = dopt.skipped_rounds();
      }
      const CommStats traffic0 = comm.stats();
      for (int op = 0;; ++op) {
        if (rank == 0) stop.store(op == steps_);
        comm.barrier();
        if (stop.load()) break;
        const std::uint32_t op_id = op_base + static_cast<std::uint32_t>(op);
        const auto t0 = Clock::now();
        double loss = 0.0;
        {
          Scope root(log, Layer::kOp, op_id);
          loss = step(warmup_ + op, log, op_id, root.index());
        }
        comm.barrier();
        if (rank == 0) samples.push_back(ms_since(t0));
        if (!std::isfinite(loss)) nonfinite.fetch_add(1);
        loss_sums[r] += loss;
      }
      const CommStats& s = comm.stats();
      traffic[r] = {s.messages_sent - traffic0.messages_sent,
                    s.bytes_sent - traffic0.bytes_sent};
      comm.barrier();
      if (rank == 0) {
        after = Snapshot::take(world);
        rounds = dopt.rounds() - rounds;
        skipped = dopt.skipped_rounds() - skipped;
      }
      const Tensor flat = train::params_to_flat(params);
      const std::span<const float> values = flat.span<float>();
      finals[r].assign(values.begin(), values.end());
    });

    next_op_id_ += static_cast<std::uint32_t>(steps_);
    ++res.episodes;
    res.ops += static_cast<std::uint64_t>(steps_);
    res.rounds += rounds;
    res.skipped_rounds += skipped;
    add_window(res, before, after, traffic);
    if (nonfinite.load() > 0) fail("non-finite training loss");
    for (int r = 1; r < kRanks; ++r)
      if (finals[static_cast<std::size_t>(r)] != finals[0])
        fail("rank " + std::to_string(r) + "'s parameters differ from rank 0's");
    double loss_sum = 0.0;
    for (double l : loss_sums) loss_sum += l;
    if (index == 0) {
      first_loss_sum_ = loss_sum;
      first_params_ = finals[0];
      res.train_loss = loss_sum / (kRanks * steps_);
      res.result_checksum = perfbench::checksum(
          first_params_.data(), first_params_.size() * sizeof(float));
      std::uint64_t h = 0;
      for (std::uint64_t s : input_sums) h = perfbench::checksum(&s, sizeof s, h);
      res.input_checksum = h;
    } else if (loss_sum != first_loss_sum_ || finals[0] != first_params_) {
      fail("episode " + std::to_string(index) +
           " did not repeat the first episode's loss and parameters");
    }
  }

 private:
  std::uint64_t fold(std::uint32_t salt) const {
    return perfbench::fold_seed(seed_, salt);
  }
  // The adasum_cli --model=lenet dataset, with the task and the example
  // noise drawn from the seed.
  data::ClusterImageDataset::Options dataset_options() const {
    data::ClusterImageDataset::Options opt;
    opt.num_examples = 4096;
    opt.num_classes = 10;
    opt.channels = 1;
    opt.height = 16;
    opt.width = 16;
    opt.noise = 0.9;
    opt.seed = fold(0x71U);
    opt.example_seed = fold(0x7272U);
    return opt;
  }

  std::uint64_t seed_;
  int steps_, warmup_;
  double first_loss_sum_ = 0.0;
  std::vector<float> first_params_;
  std::uint32_t next_op_id_ = 0;
};

// Episodes until `seconds` of wall time have passed, at least `min`. With a
// tracer, odd episodes are traced and even ones are not: the tracing
// overhead is an interleaved A/B inside one process.
template <class Loop>
void run_episodes(Loop& loop, double seconds, int min, Tracer* tracer,
                  LoopResult& res) {
  const auto start = Clock::now();
  for (int e = 0; e < min || seconds_since(start) < seconds; ++e) {
    const bool traced = tracer != nullptr && e % 2 == 1;
    std::vector<double>& samples = traced ? res.traced_op_ms : res.op_ms;
    const std::size_t first = samples.size();
    loop.episode(e, traced ? tracer : nullptr, res);
    const std::vector<double> episode(samples.begin() + static_cast<long>(first),
                                      samples.end());
    res.episode_p50_ms.push_back(median(episode));
    res.episode_p95_ms.push_back(percentile(episode, 0.95));
  }
}

// ---- standalone layer probes (traced run only) ----------------------------

// Median wall time (s) of `reps` concurrent calls of `fn` on every rank
// thread, barrier-bracketed and timed on rank 0; 0 on other ranks.
template <class Fn>
double concurrent_seconds(Comm& comm, int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    comm.barrier();
    const auto t0 = Clock::now();
    fn();
    comm.barrier();
    times.push_back(seconds_since(t0));
  }
  return comm.rank() == 0 ? median(times) : 0.0;
}

struct LayerRates {
  // GB/s of memory touched, summed over the 4 concurrent rank threads.
  double dot_triple = 0, scaled_sum = 0, stream_copy = 0, copy = 0, add = 0;
  double encode = 0, decode_add = 0, decode_combine = 0;
  double wire_ratio = 0;   // fp32 bytes / int8 wire bytes
  double host_copy = 0;    // plain memcpy: the roofline
  double exchange = 0;     // payload GB/s over the workload's transport
  double triple_allreduce_us = 0, barrier_us = 0;
};

// Kernel and codec throughput at the RVH per-level shapes (the level-0 half
// and the level-1 quarter of the payload), all 4 rank threads at once, plus
// the host's 4-thread memcpy roofline.
void probe_kernels(const Sizes& sizes, std::uint64_t seed, LayerRates& out) {
  World world(kRanks);
  CompressionOptions int8;
  int8.mode = CompressionMode::kInt8;
  const std::size_t shapes[] = {sizes.kernel_floats, sizes.kernel_floats / 2};
  const int reps = sizes.probe_reps;
  world.run([&](Comm& comm) {
    const std::size_t n_max = shapes[0];
    std::vector<float> a(n_max), b(n_max);
    const auto slices = equal_layers(n_max, 1);
    perfbench::fill_payload(seed, comm.rank(), slices, a);
    perfbench::fill_payload(seed, comm.rank() + kRanks, slices, b);
    std::vector<std::byte> wire(compressed_wire_bytes(n_max, int8));
    auto* pa = reinterpret_cast<std::byte*>(a.data());
    auto* pb = reinterpret_cast<std::byte*>(b.data());
    double bytes[9] = {}, secs[9] = {};
    for (const std::size_t n : shapes) {
      const double f = 4.0 * static_cast<double>(n);
      const double w = static_cast<double>(compressed_wire_bytes(n, int8));
      const std::span<float> sa(a.data(), n), sb(b.data(), n);
      const auto run = [&](int k, double touched, auto&& fn) {
        secs[k] += concurrent_seconds(comm, reps, fn);
        bytes[k] += touched;
      };
      volatile double sink = 0;
      run(0, 2 * f, [&] { sink = kernels::dot_triple_bytes(pa, pb, n, DType::kFloat32).ab; });
      run(1, 3 * f, [&] { kernels::scaled_sum_bytes(pa, 0.75, pb, 0.25, pa, n, DType::kFloat32); });
      run(2, 2 * f, [&] { kernels::stream_copy_bytes(pa, pb, n * sizeof(float)); });
      run(3, 2 * f, [&] { kernels::copy_bytes(pb, pa, n, DType::kFloat32); });
      run(4, 3 * f, [&] { kernels::add_bytes(pb, pa, n, DType::kFloat32); });
      run(5, f + w, [&] { compress_f32(sa, int8, wire.data()); });
      run(6, 2 * f + w, [&] { decompress_add_f32(wire.data(), int8, n, 0, sb); });
      run(7, 2 * f + w, [&] {
        decompress_combine_f32(wire.data(), int8, n, 0, sb, 0.75, 0.25, true, sb);
      });
      // Host roofline: plain memcpy of the same bytes as the copy kernels.
      run(8, 2 * f, [&] { std::memcpy(pb, pa, n * sizeof(float)); });
      (void)sink;
    }
    if (comm.rank() != 0) return;
    const auto rate = [&](int k) { return kRanks * bytes[k] / secs[k] / 1e9; };
    out.dot_triple = rate(0);
    out.scaled_sum = rate(1);
    out.stream_copy = rate(2);
    out.copy = rate(3);
    out.add = rate(4);
    out.encode = rate(5);
    out.decode_add = rate(6);
    out.decode_combine = rate(7);
    out.host_copy = rate(8);
    out.wire_ratio = 4.0 * static_cast<double>(shapes[0]) /
                     static_cast<double>(compressed_wire_bytes(shapes[0], int8));
  });
}

// Transport and control-plane probes on the workload's transport: the
// level-0 exchange (send_bulk / recv_bulk_into between rank pairs, then
// bulk_fence), the 64-layer dot-triple allreduce, and the barrier.
void probe_comm(const Sizes& sizes, const char* transport, LayerRates& out) {
  World world(kRanks);
  pin_world(world, transport, CompressionMode::kNone);
  const int reps = sizes.probe_reps;
  world.run([&](Comm& comm) {
    const std::size_t n = sizes.kernel_floats;
    std::vector<float> src(n, 1.0f), dst(n);
    const int peer = comm.rank() ^ 1;
    const std::size_t chunk =
        comm.bulk_chunk_bytes(comm.pipeline().chunk_bytes_for(sizeof(float)));
    const std::span<const std::byte> out_bytes(
        reinterpret_cast<const std::byte*>(src.data()), n * sizeof(float));
    const std::span<std::byte> in_bytes(
        reinterpret_cast<std::byte*>(dst.data()), n * sizeof(float));
    const double exchange_s = concurrent_seconds(comm, reps, [&] {
      comm.send_bulk(peer, out_bytes, chunk, /*tag=*/1);
      comm.recv_bulk_into(peer, in_bytes, chunk, /*tag=*/1);
      comm.bulk_fence();
    });
    const std::vector<int> group = {0, 1, 2, 3};
    std::vector<double> triples(64 * 3, 0.0);
    constexpr int kCalls = 200;
    const double triple_s = concurrent_seconds(comm, reps, [&] {
      for (int i = 0; i < kCalls; ++i)
        comm.allreduce_sum_doubles_inplace(triples, group, /*tag=*/2);
    });
    constexpr int kBarriers = 1000;
    const double barrier_s = concurrent_seconds(comm, reps, [&] {
      for (int i = 0; i < kBarriers; ++i) comm.barrier();
    });
    if (comm.rank() != 0) return;
    out.exchange = kRanks * 4.0 * static_cast<double>(n) / exchange_s / 1e9;
    out.triple_allreduce_us = triple_s / kCalls * 1e6;
    out.barrier_us = barrier_s / kBarriers * 1e6;
  });
}

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_metrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << tag << " " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) usage("unknown workload " + args.workload);
  const Sizes& sizes = args.small ? kSmallSizes : kFullSizes;
  const bool allreduce = workload->kind == Kind::kAllreduce;

  std::cout << "config {\"workload\": \"" << workload->name
            << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << number(args.seconds) << ", \"trace\": " << args.trace
            << ", \"size\": \"" << (args.small ? "small" : "full")
            << "\", \"ranks\": " << kRanks << ", \"load\": \"closed loop\""
            << ", \"transport\": \"" << workload->transport
            << "\", \"compression\": \""
            << compression_mode_name(workload->compression)
            << "\", \"pipeline\": \"off\", \"engine\": \"off\", \"simd\": \""
            << simd::level_name(simd::active_level())
            << "\", \"ADASUM_SIMD\": \"" << env_or("ADASUM_SIMD", "")
            << "\", \"ADASUM_THREADS\": \"" << parallel::env_setting()
            << "\", \"pool_threads\": " << parallel::threads()
            << ", \"ADASUM_ANALYZE\": \"" << env_or("ADASUM_ANALYZE", "")
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"payload_floats\": "
            << (allreduce ? sizes.payload_floats : 0)
            << ", \"layers\": " << (allreduce ? sizes.layers : 0)
            << ", \"ops_per_episode\": "
            << (allreduce ? sizes.ops_per_episode : sizes.steps_per_episode)
            << ", \"warmup_per_episode\": "
            << (allreduce ? sizes.warmup_ops : sizes.warmup_steps)
            << ", \"microbatch\": " << (allreduce ? 0 : kMicrobatch) << "}\n";

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kRanks, std::size_t{1} << 17);

  // The workload's own loop, then (traced run) the other family's short
  // loop, so every layer metric is measured on every workload.
  LoopResult main_res, reduce_res, train_res;
  double rss = 0.0;
  if (allreduce) {
    AllreduceLoop loop({workload->transport, workload->compression,
                        equal_layers(sizes.payload_floats, sizes.layers),
                        sizes.payload_floats, sizes.ops_per_episode,
                        sizes.warmup_ops},
                       args.seed);
    run_episodes(loop, args.seconds, sizes.min_episodes, tracer.get(), main_res);
    rss = peak_rss_mib();
    loop.reference_check(main_res);
    if (tracer) {
      TrainLoop probe(args.seed, sizes.probe_steps, sizes.warmup_steps);
      probe.episode(0, tracer.get(), train_res);
    }
  } else {
    TrainLoop loop(args.seed, sizes.steps_per_episode, sizes.warmup_steps);
    run_episodes(loop, args.seconds, sizes.min_episodes, tracer.get(), main_res);
    rss = peak_rss_mib();
    if (tracer) {
      std::vector<TensorSlice> slices = TrainLoop::layer_table();
      const std::size_t count = slices.back().offset + slices.back().count;
      AllreduceLoop probe({workload->transport, workload->compression,
                           std::move(slices), count, sizes.probe_ops,
                           sizes.warmup_ops},
                          args.seed);
      probe.episode(0, tracer.get(), reduce_res);
      probe.reference_check(reduce_res);
    }
  }
  (allreduce ? reduce_res : train_res) = main_res;

  const double p50 = median(main_res.op_ms);
  const double p95 = percentile(main_res.op_ms, 0.95);
  const double setup = median(main_res.setup_s);

  std::cout << "record {\"episodes\": " << main_res.episodes
            << ", \"timed_ops\": " << main_res.ops
            << ", \"untraced_samples\": " << main_res.op_ms.size()
            << ", \"traced_samples\": " << main_res.traced_op_ms.size()
            << ", \"episode_p50_ms\": [";
  for (std::size_t i = 0; i < main_res.episode_p50_ms.size(); ++i)
    std::cout << (i ? ", " : "") << number(main_res.episode_p50_ms[i]);
  std::cout << "], \"episode_p95_ms\": [";
  for (std::size_t i = 0; i < main_res.episode_p95_ms.size(); ++i)
    std::cout << (i ? ", " : "") << number(main_res.episode_p95_ms[i]);
  std::cout << "]"
            << ", \"input_checksum\": \"" << hex(main_res.input_checksum)
            << "\", \"result_checksum\": \"" << hex(main_res.result_checksum)
            << "\"}\n";

  // The workload's figures under their usual names, for the reader.
  const double error_rate =
      static_cast<double>(g_failed.load()) / static_cast<double>(main_res.ops);
  if (allreduce) {
    const double gb = 4.0 * static_cast<double>(sizes.payload_floats) / 1e9;
    print_metrics("info", {{"allreduce_ms_p50", p50, "ms"},
                           {"allreduce_ms_p95", p95, "ms"},
                           {"allreduce_gbps", gb / (p50 / 1e3), "GB/s"},
                           {"rel_l2_error", main_res.rel_l2_error, "ratio"},
                           {"error_rate", error_rate, "ratio"}});
  } else {
    print_metrics("info",
                  {{"samples_per_s", kRanks * kMicrobatch / (p50 / 1e3), "1/s"},
                   {"step_ms_p50", p50, "ms"},
                   {"step_ms_p95", p95, "ms"},
                   {"train_loss", main_res.train_loss, "nats"},
                   {"error_rate", error_rate, "ratio"}});
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The p95 stays an info line: on a shared VM the shm tail follows the
    // host's CPU steal (README.md, steadiness record), too loosely to gate.
    metrics = {{"setup_s", setup, "s"},
               {"peak_rss_mib", rss, "MiB"},
               {"op_ms_p50", p50, "ms"}};
  } else {
    LayerRates rates;
    probe_kernels(sizes, args.seed, rates);
    probe_comm(sizes, workload->transport, rates);
    const double traced_p50 = median(main_res.traced_op_ms);
    const auto calls = static_cast<double>(reduce_res.ops);
    metrics = {
        {"tensor.dot_triple_gbps", rates.dot_triple, "GB/s"},
        {"tensor.scaled_sum_gbps", rates.scaled_sum, "GB/s"},
        {"tensor.stream_copy_gbps", rates.stream_copy, "GB/s"},
        {"tensor.copy_gbps", rates.copy, "GB/s"},
        {"tensor.add_gbps", rates.add, "GB/s"},
        {"compress.encode_gbps", rates.encode, "GB/s"},
        {"compress.decode_add_gbps", rates.decode_add, "GB/s"},
        {"compress.decode_combine_gbps", rates.decode_combine, "GB/s"},
        {"compress.wire_ratio", rates.wire_ratio, "ratio"},
        {"comm.exchange_gbps", rates.exchange, "GB/s"},
        {"comm.triple_allreduce_us", rates.triple_allreduce_us, "us"},
        {"comm.barrier_us", rates.barrier_us, "us"},
        {"comm.pool_allocations", static_cast<double>(main_res.pool_allocations), "count"},
        {"comm.pool_reuses", static_cast<double>(main_res.pool_reuses), "count"},
        {"comm.heap_allocs_per_call",
         static_cast<double>(main_res.heap_allocs) / static_cast<double>(main_res.ops),
         "count"},
        {"collectives.call_ms", median(tracer->durations_ms(Layer::kCollectivesCall)), "ms"},
        {"collectives.skew_ms", median(tracer->skew_ms(Layer::kCollectivesCall)), "ms"},
        {"collectives.bytes_sent_per_call",
         static_cast<double>(reduce_res.bytes_sent) / calls, "bytes"},
        {"collectives.messages_per_call",
         static_cast<double>(reduce_res.messages_sent) / calls, "count"},
        {"collectives.rel_l2_error", reduce_res.rel_l2_error, "ratio"},
        {"optim.step_ms", median(tracer->durations_ms(Layer::kOptimStep)), "ms"},
        {"optim.rounds", static_cast<double>(train_res.rounds), "count"},
        {"optim.skipped_rounds", static_cast<double>(train_res.skipped_rounds), "count"},
        {"nn.forward_ms", median(tracer->durations_ms(Layer::kNnForward)), "ms"},
        {"nn.loss_ms", median(tracer->durations_ms(Layer::kNnLoss)), "ms"},
        {"nn.backward_ms", median(tracer->durations_ms(Layer::kNnBackward)), "ms"},
        {"nn.train_loss", train_res.train_loss, "nats"},
        {"data.batch_ms", median(tracer->durations_ms(Layer::kDataBatch)), "ms"},
        {"host.copy_gbps", rates.host_copy, "GB/s"},
        {"trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0, "%"},
    };
    std::vector<Metric> roofline;
    for (const Metric& m : metrics)
      if (m.unit == "GB/s" && m.name != "host.copy_gbps")
        roofline.push_back({m.name + "_of_roofline", m.value / rates.host_copy, "ratio"});
    metrics.insert(metrics.end(), roofline.begin(), roofline.end());
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      const auto layer = static_cast<Layer>(l);
      const std::vector<double> d = tracer->durations_ms(layer);
      std::cout << "span " << perfbench::layer_name(layer) << " count " << d.size()
                << " p50_ms " << number(median(d)) << " self_p50_ms "
                << number(median(tracer->self_ms(layer))) << "\n";
    }
    if (tracer->dropped() > 0)
      fail(std::to_string(tracer->dropped()) + " spans dropped");
    if (!args.trace_out.empty() && !tracer->write_chrome_json(args.trace_out))
      fail("cannot write trace to " + args.trace_out);
  }
  print_metrics("metric", metrics);

  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) fail(m.name + " is not finite");
  const std::uint64_t failed = g_failed.load();
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << main_res.ops << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
              << "\"}";
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
