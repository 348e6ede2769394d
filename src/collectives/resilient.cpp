#include "collectives/resilient.h"

#include <cstring>
#include <string>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "comm/buffer_pool.h"
#include "core/adasum.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

// Recovery traffic lives in its own tag universe, far above the collectives'
// per-round namespaces, with a distinct slot per (round, attempt) so a retry
// can never match a leftover message from the attempt it is replacing.
constexpr int kRecoveryTagBase = 1 << 26;

int recovery_tag(int tag_base, int attempt) {
  return kRecoveryTagBase + ((tag_base >> 16) & 63) * 1024 + attempt * 16;
}

// Receives exactly tensor.nbytes() from `src` or throws CommProtocol; the
// transport buffer returns to the pool on every path.
void recv_same_size(Comm& comm, const Tensor& tensor, int src, int tag,
                    std::byte* dest) {
  std::vector<std::byte> raw = comm.recv_bytes(src, tag);
  const std::size_t got = raw.size();
  const bool ok = got == tensor.nbytes();
  if (ok && got > 0) std::memcpy(dest, raw.data(), got);
  comm.pool().release(std::move(raw));
  if (!ok)
    throw CommProtocol("degraded reduce: got " + std::to_string(got) +
                       " bytes from rank " + std::to_string(src) + ", want " +
                       std::to_string(tensor.nbytes()));
}

// Gather → reduce-on-root → broadcast over the survivor group. Correctness
// path, not a hot path: a degraded round is rare enough that the simple
// star schedule (deadline-protected on every receive) beats a recursive one
// that would itself need per-level failure handling.
void degraded_reduce(Comm& comm, Tensor& tensor,
                     const AllreduceOptions& options,
                     std::span<const int> group, int tag) {
  const int members = static_cast<int>(group.size());
  if (members <= 1 || tensor.empty()) return;
  const int root = group[0];
  const std::span<const TensorSlice> slices{options.slices};

  // Star over the survivor group: gather on `tag`, broadcast on `tag + 1`.
  // In fault runs the analyzer is observe-only so this declaration is
  // skipped; it validates when the degraded path is driven directly.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(),
                             "degraded_reduce");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    if (comm.rank() == root) {
      for (int i = 1; i < members; ++i) {
        ex.recv(group[static_cast<std::size_t>(i)], tag);
        ex.send(group[static_cast<std::size_t>(i)], tag + 1);
      }
    } else {
      ex.send(root, tag);
      ex.recv(root, tag + 1);
    }
  }

  if (comm.rank() == root) {
    if (options.op == ReduceOp::kAdasum) {
      std::vector<Tensor> grads;
      grads.reserve(group.size());
      grads.push_back(tensor.clone());
      for (int i = 1; i < members; ++i) {
        Tensor g(tensor.shape(), tensor.dtype());
        recv_same_size(comm, tensor, group[static_cast<std::size_t>(i)], tag,
                       g.data());
        grads.push_back(std::move(g));
      }
      const Tensor combined = slices.empty()
                                  ? adasum_tree(grads)
                                  : adasum_tree_layerwise(grads, slices);
      std::memcpy(tensor.data(), combined.data(), tensor.nbytes());
    } else {
      PooledBuffer scratch(comm.pool(), tensor.nbytes());
      for (int i = 1; i < members; ++i) {
        recv_same_size(comm, tensor, group[static_cast<std::size_t>(i)], tag,
                       scratch.bytes().data());
        kernels::add_bytes(scratch.bytes().data(), tensor.data(),
                           tensor.size(), tensor.dtype());
      }
      if (options.op == ReduceOp::kAverage)
        kernels::scale_bytes(1.0 / members, tensor.data(), tensor.size(),
                             tensor.dtype());
    }
    for (int i = 1; i < members; ++i)
      comm.send_bytes(group[static_cast<std::size_t>(i)],
                      {tensor.data(), tensor.nbytes()}, tag + 1);
  } else {
    comm.send_bytes(root, {tensor.data(), tensor.nbytes()}, tag);
    recv_same_size(comm, tensor, root, tag + 1, tensor.data());
  }
}

}  // namespace

ResilientResult resilient_allreduce(Comm& comm, Tensor& tensor,
                                    const AllreduceOptions& options,
                                    int tag_base) {
  ResilientResult result;
  result.participants = comm.size();
  if (!comm.fault_tolerant()) {
    allreduce(comm, tensor, options, tag_base);
    return result;
  }

  // Snapshot the input so every retry (and the final skip) starts from the
  // rank's clean local contribution, not a half-reduced payload.
  PooledBuffer snapshot(comm.pool(), tensor.nbytes());
  if (tensor.nbytes() > 0)
    std::memcpy(snapshot.bytes().data(), tensor.data(), tensor.nbytes());

  bool failed = false;
  try {
    allreduce(comm, tensor, options, tag_base);
  } catch (const CommError&) {
    failed = true;
  }
  if (!comm.vote_failure(failed)) return result;

  std::vector<int> group;
  const int max_attempts = comm.max_recovery_attempts();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    ++result.attempts;
    if (tensor.nbytes() > 0)
      std::memcpy(tensor.data(), snapshot.bytes().data(), tensor.nbytes());
    comm.recovery_enroll(group);
    // Between the enrollment barrier and the vote below every survivor is
    // quiesced in this very sequence, so draining here provably removes all
    // traffic of the failed attempt and races with none of the retry's.
    comm.drain_inboxes();
    comm.vote_failure(false);

    bool attempt_failed = false;
    try {
      degraded_reduce(comm, tensor, options, group,
                      recovery_tag(tag_base, attempt));
    } catch (const CommError&) {
      attempt_failed = true;
    }
    if (!comm.vote_failure(attempt_failed)) {
      result.outcome = ReduceOutcome::kDegraded;
      result.participants = static_cast<int>(group.size());
      return result;
    }
  }

  if (tensor.nbytes() > 0)
    std::memcpy(tensor.data(), snapshot.bytes().data(), tensor.nbytes());
  result.outcome = ReduceOutcome::kSkipped;
  result.participants = 1;
  return result;
}

ResilientResult resilient_allreduce_fused(Comm& comm,
                                          const std::vector<Tensor*>& tensors,
                                          const AllreduceOptions& options,
                                          FusionBuffer& buffer, int tag_base) {
  ADASUM_CHECK(!tensors.empty());
  std::vector<const Tensor*> views(tensors.begin(), tensors.end());
  FusedTensor& fused = buffer.pack(views);
  AllreduceOptions fused_options = options;
  fused_options.slices = fused.slices;
  const ResilientResult result =
      resilient_allreduce(comm, fused.flat, fused_options, tag_base);
  buffer.unpack(tensors);
  return result;
}

}  // namespace adasum
