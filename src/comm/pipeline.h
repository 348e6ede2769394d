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
// Runtime control: ADASUM_PIPELINE=1|on enables chunking for every World
// constructed afterwards, ADASUM_CHUNK_BYTES overrides the chunk size
// (bytes); a malformed value warns once and keeps the default. Tests and benches set the options programmatically via
// World::set_pipeline.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <system_error>

#include "base/logging.h"

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

  // ADASUM_PIPELINE accepts on|1|off|0 and ADASUM_CHUNK_BYTES a whole
  // positive decimal; any other value keeps the default (off, 256 KiB) and
  // warns once per process, like ADASUM_COMPRESS.
  static PipelineOptions from_env() {
    PipelineOptions o;
    if (const char* env = std::getenv("ADASUM_PIPELINE"); env != nullptr) {
      const std::string_view v(env);
      if (v == "1" || v == "on") {
        o.enabled = true;
      } else if (v != "0" && v != "off") {
        static std::once_flag warned;
        std::call_once(warned, [&] {
          ADASUM_LOG(Warning) << "ADASUM_PIPELINE=" << v
                              << " is not one of on|1|off|0; using off";
        });
      }
    }
    if (const char* env = std::getenv("ADASUM_CHUNK_BYTES"); env != nullptr) {
      const std::string_view v(env);
      std::size_t n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec == std::errc() && end == v.data() + v.size() && n > 0) {
        o.chunk_bytes = n;
      } else {
        static std::once_flag warned;
        std::call_once(warned, [&] {
          ADASUM_LOG(Warning) << "ADASUM_CHUNK_BYTES=" << v
                              << " is not a positive whole number of bytes; "
                                 "using "
                              << o.chunk_bytes;
        });
      }
    }
    return o;
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
