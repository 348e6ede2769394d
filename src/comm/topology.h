// Cluster topology description for the analytic cost model.
//
// The paper's testbeds are hierarchical: nodes with several GPUs connected
// by a fast local fabric (PCIe or NVLink/NVSwitch), and nodes connected by a
// network (InfiniBand or TCP). A Topology names the two link classes and the
// fan-out at each level; the cost model prices collective schedules on it.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "base/check.h"

namespace adasum {

// α–β link model: transferring n bytes costs  latency_s + n / bandwidth_Bps.
struct LinkParams {
  std::string name;
  double latency_s = 0.0;       // α: per-message latency (seconds)
  double bandwidth_Bps = 1.0;   // 1/β: bytes per second

  double transfer_time(double bytes) const {
    return latency_s + bytes / bandwidth_Bps;
  }
};

// Link presets matching the paper's platforms (§4.2.3, §5.1–§5.3 hardware).
namespace links {

// NVLink/NVSwitch inside a DGX-2 (§5.3.1): ~300 GB/s effective per GPU pair.
inline LinkParams nvlink() { return {"NVLink", 3e-6, 150e9}; }
// PCIe gen3 x16 inside Standard_NC24rs_v3 (§5.1.1): ~12 GB/s effective.
inline LinkParams pcie3() { return {"PCIe3", 5e-6, 12e9}; }
// 100 Gb/s InfiniBand between Azure nodes (§4.2.3): ~12 GB/s, low latency.
inline LinkParams infiniband100() { return {"IB-100Gb", 2e-6, 12e9}; }
// 40 Gb/s TCP (§5.2.1): ~4.5 GB/s effective, high per-message latency.
inline LinkParams tcp40() { return {"TCP-40Gb", 50e-6, 4.5e9}; }
// Intra-node one-sided shared memory (the shm transport, DESIGN.md §15): a
// "transfer" publishes a view of the sender's buffer, so α is a few hundred
// nanoseconds of slot protocol and β is effectively the receiver's memory
// bandwidth while it reduces out of the peer's span — near-zero compared to
// any real interconnect.
inline LinkParams shm_zero_copy() { return {"SHM-0copy", 3e-7, 50e9}; }
// NCCL-like effective launch overhead for the GPU-kernel baseline in Fig 4.
inline LinkParams nccl_overhead() { return {"NCCL-launch", 15e-6, 12e9}; }

}  // namespace links

struct Topology {
  int num_nodes = 1;
  int gpus_per_node = 1;
  LinkParams intra;  // GPU<->GPU inside a node
  LinkParams inter;  // node<->node

  int total_gpus() const { return num_nodes * gpus_per_node; }

  // Group-by-link-speed decision for hierarchical Adasum: how many
  // consecutive ranks should form one reduction group. The fast local fabric
  // is worth a dedicated intra-node phase only when it actually beats the
  // network at a representative transfer — otherwise (uniform fabrics,
  // gpus_per_node == 1, or a world that fits one node's worth of ranks is
  // still grouped — a single node degenerates to a pure local phase) the
  // grouping collapses to 1 and the schedule is flat. This replaces the old
  // fixed-arity convention where callers hardcoded ranks_per_node.
  int group_size_by_link_speed(int world,
                               double reference_bytes = 64.0 * 1024.0) const {
    if (gpus_per_node <= 1 || world <= 1) return 1;
    if (intra.transfer_time(reference_bytes) >=
        inter.transfer_time(reference_bytes))
      return 1;  // local link no faster than the network: flat grouping
    return std::min(gpus_per_node, world);
  }

  // Parses a topology spec:
  //   "azure_fig4" | "dgx2:<nodes>" | "tcp_cluster" — the named presets;
  //   "<nodes>x<gpus>[:<intra>/<inter>]" with link names nvlink | pcie3 |
  //   ib100 | tcp40 | shm (default nvlink/ib100), e.g. "32x8:nvlink/ib100"
  //   or "1x8:shm/ib100" for the zero-copy intra-node transport.
  // Returns nullopt (never throws) on a malformed spec.
  static std::optional<Topology> parse(std::string_view spec);

  static Topology single_node(int gpus, LinkParams intra) {
    return Topology{1, gpus, std::move(intra), LinkParams{}};
  }
  static Topology cluster(int nodes, int gpus, LinkParams intra,
                          LinkParams inter) {
    ADASUM_CHECK_GE(nodes, 1);
    ADASUM_CHECK_GE(gpus, 1);
    return Topology{nodes, gpus, std::move(intra), std::move(inter)};
  }

  // The 16-node Azure cluster of Fig. 4: 4 V100 per node on PCIe, IB across.
  static Topology azure_fig4() {
    return cluster(16, 4, links::pcie3(), links::infiniband100());
  }
  // DGX-2 cluster of §5.3: 16 GPUs/node on NVSwitch, 8x IB NICs across.
  static Topology dgx2(int nodes) {
    LinkParams ib = links::infiniband100();
    ib.bandwidth_Bps *= 8;  // 8 NICs per node (§5.3.1, 800 Gb/s per node)
    return cluster(nodes, 16, links::nvlink(), ib);
  }
  // The TCP cluster of §5.2: 4 nodes x 4 V100, 40 Gb/s TCP between.
  static Topology tcp_cluster() {
    return cluster(4, 4, links::pcie3(), links::tcp40());
  }
};

}  // namespace adasum
