#include "comm/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/check.h"

namespace adasum {
namespace {

// Levels of the power-of-two RVH core. Non-power-of-two rank counts run the
// standard fold: the G - bit_floor(G) extra ranks pre-combine pairwise into
// the core before the recursion and receive the result after it (the
// schedule the RVH executor runs, rvh_executor.h); the fold's own transfers
// are priced by the callers below.
int core_levels(int p) {
  return std::countr_zero(std::bit_floor(static_cast<unsigned>(p)));
}

int fold_extras(int p) {
  return p - static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
}

// Honest α–β price of a stream of `bytes` split into chunks of `chunk` bytes
// (0 = one message): k chunks pay k·α + bytes/B, not α + bytes/B — per-chunk
// latency is the tax the pipeline pays for its overlap, and Figure 4
// predictions must show it.
double chunked_time(const LinkParams& link, double bytes, double chunk) {
  double k = 1.0;
  if (chunk > 0.0 && bytes > chunk) k = std::ceil(bytes / chunk);
  return k * link.latency_s + bytes / link.bandwidth_Bps;
}

}  // namespace

CostModel::CostModel(Topology topology, ComputeParams compute)
    : topology_(std::move(topology)), compute_(compute) {
  ADASUM_CHECK_GE(topology_.total_gpus(), 1);
}

double CostModel::ring_allreduce_sum(double bytes) const {
  const int p = topology_.total_gpus();
  if (p == 1) return 0.0;
  // Bottleneck link: if the ring crosses nodes, every pipeline step is paced
  // by the inter-node hop; otherwise by the intra link.
  const LinkParams& link =
      topology_.num_nodes > 1 ? topology_.inter : topology_.intra;
  const double chunk = bytes / p;
  const double steps = 2.0 * (p - 1);
  const double wire = steps * link.transfer_time(chunk);
  const double reduce_bytes = (p - 1) * chunk;  // reduce-scatter adds
  return wire + reduce_bytes / compute_.sum_Bps;
}

double CostModel::nccl_allreduce_sum(double bytes) const {
  const int p = topology_.total_gpus();
  if (p == 1) return 0.0;
  LinkParams link =
      topology_.num_nodes > 1 ? topology_.inter : topology_.intra;
  // NCCL's fixed launch/teardown overhead dominates small messages; its ring
  // pipeline hides per-step latency better than naive MPI, so per-step α is
  // replaced by one launch cost plus a small per-step term.
  const LinkParams launch = links::nccl_overhead();
  const double chunk = bytes / p;
  const double steps = 2.0 * (p - 1);
  const double wire =
      launch.latency_s + steps * (0.2 * link.latency_s + chunk / link.bandwidth_Bps);
  const double reduce_bytes = (p - 1) * chunk;
  return wire + reduce_bytes / compute_.sum_Bps;
}

double CostModel::rvh_allreduce_sum(double bytes) const {
  const int p = topology_.total_gpus();
  if (p == 1) return 0.0;
  const int levels = core_levels(p);
  double total = 0.0;
  // Non-power-of-two fold: the extra ranks ship their full payload to a core
  // partner (which sums it) before the recursion and get the result back
  // after — two exact full-size transfers plus one sum pass, all paid before
  // any halving shrinks the segment. The fold partner sits bit_floor(p)
  // ranks away. Power-of-two p pays nothing here.
  if (fold_extras(p) > 0) {
    const LinkParams& link = link_for_distance(1 << levels);
    total += 2.0 * link.transfer_time(bytes) + bytes / compute_.sum_Bps;
  }
  double segment = bytes;
  for (int k = 0; k < levels; ++k) {
    const LinkParams& link = link_for_distance(1 << k);
    const double half = segment / 2.0;
    // Reduce-scatter step: exchange halves, sum own half. The mirrored
    // allgather step moves the same bytes back without arithmetic.
    total += 2.0 * link.transfer_time(half);
    total += half / compute_.sum_Bps;
    segment = half;
  }
  return total;
}

double CostModel::recursive_doubling_cost(int rounds, double bytes,
                                          int base_distance) const {
  double total = 0.0;
  for (int j = 0; j < rounds; ++j) {
    const LinkParams& link = link_for_distance(base_distance << j);
    total += link.transfer_time(bytes);
  }
  return total;
}

double CostModel::rvh_allreduce_adasum(double bytes, int num_layers) const {
  return rvh_adasum_walk(bytes, num_layers, 0.0);
}

double CostModel::rvh_allreduce_adasum_pipelined(double bytes,
                                                 int num_layers) const {
  return rvh_adasum_walk(bytes, num_layers, chunk_bytes_);
}

double CostModel::rvh_adasum_walk(double bytes, int num_layers,
                                  double chunk) const {
  const int p = topology_.total_gpus();
  if (p == 1) return 0.0;
  ADASUM_CHECK_GE(num_layers, 1);
  const int levels = core_levels(p);
  const double triple_bytes = 3.0 * 8.0 * num_layers;  // 3 doubles per layer
  double total = 0.0;
  // Non-power-of-two fold (see CostModel::rvh_allreduce_sum), chunk-streamed
  // like every other bulk transfer: the pairwise pre-combine is a local
  // Adasum — dot-triple pass plus scaled sum, no triple allreduce.
  if (fold_extras(p) > 0) {
    const LinkParams& link = link_for_distance(1 << levels);
    total += 2.0 * chunked_time(link, bytes, chunk) + bytes / compute_.dot_Bps +
             bytes / compute_.combine_Bps;
  }
  double segment = bytes;
  for (int k = 0; k < levels; ++k) {
    const LinkParams& link = link_for_distance(1 << k);
    const double half = segment / 2.0;
    // Halving exchange: the incoming half arrives as a chunk stream and the
    // dot-triple pass consumes chunks as they land, so the level's critical
    // path is the wire OR the compute trailing the first chunk — whichever
    // is longer — instead of their sum. Every chunk pays its own α. With
    // chunking off the first chunk is the whole half, so this is wire + dot.
    const double wire = chunked_time(link, half, chunk);
    const double first_chunk =
        chunked_time(link, chunk > 0.0 ? std::min(chunk, half) : half, chunk);
    const double dot = half / compute_.dot_Bps;
    total += std::max(wire, dot + first_chunk);
    // The combine and the triple allreduce stay serial: the scale factors
    // need every layer's dots, which need the full half. The triple
    // allreduce over the 2^(k+1)-rank group is k+1 recursive-doubling
    // rounds at distances 1,2,...,2^k.
    total += half / compute_.combine_Bps;
    total += recursive_doubling_cost(k + 1, triple_bytes, 1);
    // Mirrored allgather exchange: a chunk stream with nothing to overlap.
    total += chunked_time(link, half, chunk);
    segment = half;
  }
  return total;
}

double CostModel::ring_allreduce_adasum(double bytes, int num_layers) const {
  const int p = topology_.total_gpus();
  if (p == 1) return 0.0;
  ADASUM_CHECK_GE(num_layers, 1);
  const LinkParams& link =
      topology_.num_nodes > 1 ? topology_.inter : topology_.intra;
  const double chunk = bytes / p;
  // Reduce phase: p-1 steps; each step must finish dot-triple + combine on
  // the incoming chunk before the next forward (no pure pipelining as in
  // the elementwise ring) and exchange per-layer scalars.
  const double scalar_bytes = 3.0 * 8.0 * num_layers / p;  // per chunk share
  double total = 0.0;
  for (int s = 0; s < p - 1; ++s) {
    total += link.transfer_time(chunk + scalar_bytes);
    total += chunk / compute_.dot_Bps + chunk / compute_.combine_Bps;
  }
  // Allgather phase: p-1 pipelined steps.
  total += (p - 1) * link.transfer_time(chunk);
  return total;
}

double CostModel::hierarchical_allreduce_sum(double bytes) const {
  const int local = topology_.gpus_per_node;
  if (topology_.num_nodes == 1) {
    // Single node: the implementation skips the cross-node phase entirely.
    return rvh_allreduce_sum(bytes);
  }
  // Local reduce-scatter + allgather: ring over the node's GPUs.
  const double chunk = bytes / local;
  const double local_steps = local - 1;
  double total =
      2.0 * local_steps * topology_.intra.transfer_time(chunk) +
      local_steps * chunk / compute_.sum_Bps;
  // Cross-node RVH on the shard, inter link only.
  CostModel cross(Topology::cluster(topology_.num_nodes, 1, topology_.inter,
                                    topology_.inter),
                  compute_);
  total += cross.rvh_allreduce_sum(chunk);
  return total;
}

double CostModel::hierarchical_allreduce_adasum(double bytes,
                                                int num_layers) const {
  const int local = topology_.gpus_per_node;
  if (topology_.num_nodes == 1) {
    return rvh_allreduce_adasum(bytes, num_layers);
  }
  const double chunk = bytes / local;
  const double local_steps = local - 1;
  double total =
      2.0 * local_steps * topology_.intra.transfer_time(chunk) +
      local_steps * chunk / compute_.sum_Bps;
  CostModel cross(Topology::cluster(topology_.num_nodes, 1, topology_.inter,
                                    topology_.inter),
                  compute_);
  total += cross.rvh_allreduce_adasum(chunk, num_layers);
  return total;
}

}  // namespace adasum
