// Chunked-pipelining configuration for the collectives (DESIGN.md §12).
//
// When enabled, the bulk transfers of the collectives (the halving exchange
// and allgather unwind of the RVH schedules, the ring's segment rotation)
// are split into cache-sized chunks that all travel on the transfer's tag —
// the per-(src,dst,tag) FIFO of the mailbox keeps the stream ordered — so a
// receiver can start reducing chunk i while chunk i+1 is still in flight.
// Chunking never changes arithmetic: the pipelined collectives feed the SAME
// contiguous spans to the SAME kernels in the SAME order as the monolithic
// path, so results are bit-for-bit identical for every chunk size.
//
// Runtime control: ADASUM_PIPELINE and ADASUM_CHUNK_BYTES seed the options
// of every World constructed afterwards (see the runtime-configuration table
// in README.md). Tests and benches set the options programmatically via
// World::set_pipeline.
#pragma once

#include <algorithm>
#include <cstddef>

namespace adasum {

struct PipelineOptions {
  bool enabled = false;
  // Target chunk size in bytes. ~256 KiB keeps a chunk inside L2 while
  // amortizing per-message overhead; the collectives round it down to a
  // whole number of elements.
  std::size_t chunk_bytes = 256 * 1024;

  // Chunk size (bytes) for a payload of `elem_size`-byte elements: the
  // configured size floor-aligned to the element, never below one element.
  // 0 when chunking is disabled — the monolithic single-message transfer.
  std::size_t chunk_bytes_for(std::size_t elem_size) const {
    if (!enabled || elem_size == 0) return 0;
    return std::max(chunk_bytes - chunk_bytes % elem_size, elem_size);
  }
};

// Number of messages a `total_bytes` transfer becomes under `chunk_bytes`
// chunking (0 = monolithic). Always >= 1: an empty or sub-chunk payload is
// one message, exactly like the unchunked path. The epoch declarations and
// the chunk-streaming send/recv both use this, so a drifted formula shows up
// as an expected-vs-observed diff in the analyzer report.
inline std::size_t chunk_messages(std::size_t total_bytes,
                                  std::size_t chunk_bytes) {
  if (chunk_bytes == 0 || total_bytes <= chunk_bytes) return 1;
  return (total_bytes + chunk_bytes - 1) / chunk_bytes;
}

}  // namespace adasum
