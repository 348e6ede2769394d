// Scale-out gate (DESIGN.md §14): the collectives at 256–1024 modeled ranks.
//
// Two sections, one JSON:
//
//   model    — the α–β cost model prices Adasum allreduce at p in {64, 256,
//              1024} on a two-tier topology (p/8 nodes x 8 GPUs, NVLink
//              inside, 100 Gb/s IB across). Three schedules: topology-aware
//              hierarchical (local reduce-scatter, cross-node AdasumRVH on
//              the 1/8 shard, local allgather), flat AdasumRVH, and flat
//              ring-order Adasum.
//   measured — the autotuner's pick is validated against wall-clock: on a
//              16-rank simulated world whose fault injector charges per-link
//              wire delays (the 4x4 PCIe/TCP shape the planner was given),
//              every candidate algorithm is timed and the planner's choice
//              must land within 1.2x of the best measured candidate.
//
// Baseline honesty note: the flat baselines are priced placement-OBLIVIOUSLY,
// on cluster(p, 1, inter, inter) — every hop charged at the network link.
// That is the schedule a topology-ignorant implementation actually pays for:
// it cannot route its early exchange levels onto the fast local fabric,
// because it does not know the fabric exists. A placement-AWARE flat RVH
// (early levels priced intra-node under node-major placement) moves the same
// bytes over the inter link as the hierarchical schedule and models within a
// few percent of it — that comparison measures placement, not hierarchy, and
// is reported in the table as "flat RVH (placed)" for context but not gated.
//
// `--scaleout_json[=PATH]` writes BENCH_scaleout.json and ENFORCES the
// acceptance floors: hierarchical >= 1.5x placement-oblivious flat RVH at
// 256 ranks under the model, and autotuner pick <= 1.2x best measured. A
// plain run reports the same numbers without enforcing.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "collectives/allreduce.h"
#include "comm/autotune.h"
#include "comm/cost_model.h"
#include "comm/fault_injector.h"
#include "comm/topology.h"
#include "comm/world.h"

namespace {

using namespace adasum;

constexpr double kPayloadBytes = 64.0 * 1024 * 1024;  // 64 MiB fp32 gradient
constexpr int kNumLayers = 64;
constexpr int kGpusPerNode = 8;
constexpr double kModelFloor = 1.5;   // hier vs flat RVH at 256 ranks
constexpr double kMeasuredTol = 1.2;  // pick vs best measured candidate

struct ModelRow {
  int ranks = 0;
  double hier_s = 0.0;
  double flat_rvh_s = 0.0;       // placement-oblivious (gated baseline)
  double placed_rvh_s = 0.0;     // placement-aware (context only)
  double ring_s = 0.0;
  bool planner_hierarchical = false;
};

ModelRow model_row(int p) {
  ModelRow row;
  row.ranks = p;
  const Topology two_tier = Topology::cluster(
      p / kGpusPerNode, kGpusPerNode, links::nvlink(), links::infiniband100());
  // A topology-ignorant flat implementation pays the network price on every
  // hop — price it on a topology where every link IS the network.
  const Topology oblivious = Topology::cluster(
      p, 1, links::infiniband100(), links::infiniband100());
  row.hier_s =
      CostModel(two_tier).hierarchical_allreduce_adasum(kPayloadBytes,
                                                        kNumLayers);
  row.flat_rvh_s =
      CostModel(oblivious).rvh_allreduce_adasum(kPayloadBytes, kNumLayers);
  row.placed_rvh_s =
      CostModel(two_tier).rvh_allreduce_adasum(kPayloadBytes, kNumLayers);
  row.ring_s =
      CostModel(oblivious).ring_allreduce_adasum(kPayloadBytes, kNumLayers);

  AutotuneRequest req;
  req.payload_bytes = kPayloadBytes;
  req.num_layers = kNumLayers;
  const TunedConfig pick = autotune_allreduce(two_tier, req);
  row.planner_hierarchical = pick.algo == TunedAlgo::kHierarchical &&
                             pick.ranks_per_node == kGpusPerNode;
  return row;
}

// ---- measured validation ---------------------------------------------------

// One timed Adasum allreduce round on a world whose fault injector charges
// per-link wire delays under node-major placement (4 ranks per node: 20 us
// intra, 400 us inter per message) — the execution-side twin of the α–β
// topology handed to the planner.
double measure_allreduce_s(int world_size, int wire_rpn, AllreduceAlgo algo,
                           int rpn_opt, std::size_t count, int round) {
  World world(world_size);
  FaultSpec spec;
  spec.wire_ranks_per_node = wire_rpn;
  spec.wire_intra_us = 20;
  spec.wire_inter_us = 400;
  world.set_fault_injector(std::make_shared<FaultInjector>(world_size, spec));
  double measured = 0.0;
  world.run([&](Comm& comm) {
    Tensor t({count});
    Rng rng(11 + static_cast<std::uint64_t>(comm.rank()) +
            static_cast<std::uint64_t>(round) * 131);
    for (auto& v : t.span<float>()) v = static_cast<float>(rng.normal());
    AllreduceOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.algo = algo;
    opts.ranks_per_node = rpn_opt;
    allreduce(comm, t, opts, 0);  // warm: pool, mailboxes, code paths
    comm.barrier();
    const auto start = std::chrono::steady_clock::now();
    allreduce(comm, t, opts, 65536);
    comm.barrier();
    const auto stop = std::chrono::steady_clock::now();
    if (comm.rank() == 0)
      measured = std::chrono::duration<double>(stop - start).count();
  });
  return measured;
}

struct MeasuredResult {
  std::string picked;
  double picked_s = 0.0;
  double best_s = 0.0;
  double ring_s = 0.0;
  double rvh_s = 0.0;
  double hier_s = 0.0;
  bool within_tolerance = false;
};

MeasuredResult run_measured(int iters) {
  const int p = 16, rpn = 4;
  const std::size_t count = 64 * 1024;  // 256 KiB fp32
  const Topology topo =
      Topology::cluster(p / rpn, rpn, links::pcie3(), links::tcp40());
  AutotuneRequest req;
  req.payload_bytes = static_cast<double>(count) * sizeof(float);
  req.num_layers = 1;
  const TunedConfig pick = autotune_allreduce(topo, req);

  struct Candidate {
    TunedAlgo algo;
    AllreduceAlgo exec;
    int rpn_opt;
    double* slot;
  };
  MeasuredResult result;
  const Candidate candidates[] = {
      {TunedAlgo::kRing, AllreduceAlgo::kRing, 1, &result.ring_s},
      {TunedAlgo::kRvh, AllreduceAlgo::kRvh, 1, &result.rvh_s},
      {TunedAlgo::kHierarchical, AllreduceAlgo::kHierarchical, rpn,
       &result.hier_s},
  };
  result.picked = to_string(pick.algo);
  bool have_best = false;
  for (const Candidate& c : candidates) {
    std::vector<double> samples;
    for (int it = 0; it < iters; ++it)
      samples.push_back(
          measure_allreduce_s(p, rpn, c.exec, c.rpn_opt, count, it));
    *c.slot = bench::median(samples);
    if (!have_best || *c.slot < result.best_s) {
      have_best = true;
      result.best_s = *c.slot;
    }
    if (c.algo == pick.algo) result.picked_s = *c.slot;
  }
  result.within_tolerance =
      result.picked_s > 0.0 && result.picked_s <= kMeasuredTol * result.best_s;
  return result;
}

int run(const char* json_path, bool enforce) {
  bench::print_header(
      "Scale-out: hierarchical Adasum and the cost-model autotuner",
      "S4.2.2 hierarchical grouping; DESIGN.md S14 scale-out gate");

  const int ps[] = {64, 256, 1024};
  std::vector<ModelRow> rows;
  for (int p : ps) rows.push_back(model_row(p));

  std::printf("model: 64 MiB fp32 Adasum allreduce, %d GPUs/node, NVLink "
              "intra, IB-100Gb inter\n"
              "flat baselines priced placement-obliviously (every hop at the "
              "network link);\n\"flat RVH (placed)\" shows the placement-aware "
              "price for context, ungated\n\n",
              kGpusPerNode);
  bench::Table table({"ranks", "hier ms", "flat RVH ms", "flat RVH (placed)",
                      "ring ms", "hier speedup vs flat RVH"});
  double speedup_at_floor = 0.0;
  bool planner_all_hierarchical = true;
  for (const ModelRow& r : rows) {
    const double speedup = r.flat_rvh_s / r.hier_s;
    if (r.ranks == 256) speedup_at_floor = speedup;
    planner_all_hierarchical &= r.planner_hierarchical;
    table.row(r.ranks, r.hier_s * 1e3, r.flat_rvh_s * 1e3,
              r.placed_rvh_s * 1e3, r.ring_s * 1e3,
              bench::fmt(speedup, 2) + "x");
  }
  table.print();
  std::printf("\n");

  const int iters = bench::full_mode() ? 7 : 3;
  const MeasuredResult measured = run_measured(iters);
  std::printf("measured: 16 ranks as 4x4 (PCIe intra / TCP-40Gb inter wire "
              "delays), 256 KiB payload, median of %d rounds\n", iters);
  bench::Table mtable({"candidate", "allreduce ms (median)"});
  mtable.row("ring", measured.ring_s * 1e3);
  mtable.row("rvh", measured.rvh_s * 1e3);
  mtable.row("hierarchical", measured.hier_s * 1e3);
  mtable.print();
  std::printf("  autotuner picked: %s (%.3f ms; best %.3f ms; tolerance "
              "%.1fx)\n\n",
              measured.picked.c_str(), measured.picked_s * 1e3,
              measured.best_s * 1e3, kMeasuredTol);

  const bool model_pass = speedup_at_floor >= kModelFloor;
  const bool pass =
      model_pass && planner_all_hierarchical && measured.within_tolerance;

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"scaleout\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"payload_bytes\": " << static_cast<long long>(kPayloadBytes)
       << ",\n"
       << "  \"num_layers\": " << kNumLayers << ",\n"
       << "  \"gpus_per_node\": " << kGpusPerNode << ",\n"
       << "  \"topology\": \"p/8 nodes x 8, NVLink intra, IB-100Gb inter\",\n"
       << "  \"flat_baseline\": \"placement-oblivious: priced on "
          "cluster(p, 1, inter, inter)\",\n"
       << "  \"model\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModelRow& r = rows[i];
    json << "    {\"ranks\": " << r.ranks << ", \"hier_ms\": "
         << bench::fmt(r.hier_s * 1e3, 3) << ", \"flat_rvh_ms\": "
         << bench::fmt(r.flat_rvh_s * 1e3, 3) << ", \"placed_rvh_ms\": "
         << bench::fmt(r.placed_rvh_s * 1e3, 3) << ", \"ring_ms\": "
         << bench::fmt(r.ring_s * 1e3, 3) << ", \"speedup_vs_flat_rvh\": "
         << bench::fmt(r.flat_rvh_s / r.hier_s, 3) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"floor_ranks\": 256,\n"
       << "  \"floor\": " << bench::fmt(kModelFloor, 1) << ",\n"
       << "  \"speedup_at_floor\": " << bench::fmt(speedup_at_floor, 3)
       << ",\n"
       << "  \"planner_picks_hierarchical_at_all_p\": "
       << (planner_all_hierarchical ? "true" : "false") << ",\n"
       << "  \"measured\": {\n"
       << "    \"ranks\": 16, \"ranks_per_node\": 4, \"iters\": " << iters
       << ",\n"
       << "    \"ring_ms\": " << bench::fmt(measured.ring_s * 1e3, 3) << ",\n"
       << "    \"rvh_ms\": " << bench::fmt(measured.rvh_s * 1e3, 3) << ",\n"
       << "    \"hierarchical_ms\": " << bench::fmt(measured.hier_s * 1e3, 3)
       << ",\n"
       << "    \"picked\": \"" << measured.picked << "\",\n"
       << "    \"picked_ms\": " << bench::fmt(measured.picked_s * 1e3, 3)
       << ",\n"
       << "    \"best_ms\": " << bench::fmt(measured.best_s * 1e3, 3) << ",\n"
       << "    \"tolerance\": " << bench::fmt(kMeasuredTol, 1) << "\n"
       << "  },\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote %s\n", json_path);

  bench::check_shape(
      "topology-aware hierarchical Adasum >= 1.5x placement-oblivious flat "
      "AdasumRVH at 256 ranks under the alpha-beta model",
      model_pass);
  bench::check_shape(
      "autotuner picks hierarchical grouping (ranks_per_node = 8) at every "
      "modeled p",
      planner_all_hierarchical);
  bench::check_shape(
      "autotuner pick within 1.2x of the best measured candidate on the "
      "wire-delay world",
      measured.within_tolerance);
  if (!pass && enforce) {
    std::fprintf(stderr, "scale-out gate FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool enforce = false;
  const char* json_path = "BENCH_scaleout.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scaleout_json") {
      enforce = true;
    } else if (arg.rfind("--scaleout_json=", 0) == 0) {
      enforce = true;
      json_path = argv[i] + sizeof("--scaleout_json=") - 1;
    }
  }
  return bench::exit_status(run(json_path, enforce));
}
