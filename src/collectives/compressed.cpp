#include "collectives/compressed.h"

#include <algorithm>

#include "base/check.h"

namespace adasum {

WireCompressor::WireCompressor(Comm& comm, DType dtype,
                               const CompressionOptions& opts,
                               std::size_t max_elems, bool bulk_views,
                               std::size_t max_run_bytes)
    : comm_(comm), opts_(opts), bulk_views_(bulk_views) {
  if (!opts_.active()) return;  // inactive: touch neither pool nor dtype
  ADASUM_CHECK(dtype == DType::kFloat32);
  slot_bytes_ =
      std::max(compressed_wire_bytes(max_elems, opts_), max_run_bytes);
}

WireCompressor::~WireCompressor() {
  // The blob slots return to the shared pool on destruction; a view still
  // under a peer's decode must retire first or the next lessee would write
  // under the reader. The collectives fence before unwinding, so this is
  // normally an instant re-check — it only ever blocks on an early exit.
  if (view_out_[0] || view_out_[1]) {
    try {
      comm_.bulk_fence();
    } catch (...) {
      // Unwinding through an aborted world: the transport's drain reclaims
      // everything; swallowing keeps the destructor from terminating.
    }
  }
}

std::byte* WireCompressor::slot_data(int s) {
  if (!blobs_[s]) blobs_[s].emplace(comm_.pool(), slot_bytes_);
  return blobs_[s]->data();
}

std::byte* WireCompressor::writable_slot(int s) {
  // Writing a slot that still backs a published view would race the peer's
  // decode. In the RVH schedules the peer's consuming receive only waits on
  // transfers this rank already completed, so the fence always terminates.
  if (view_out_[s]) {
    comm_.bulk_fence();  // retires every view, both slots'
    view_out_[0] = view_out_[1] = false;
  }
  return slot_data(s);
}

void WireCompressor::encode(int slot, const std::byte* data,
                            std::size_t elems) {
  compress_f32({reinterpret_cast<const float*>(data), elems}, opts_,
               writable_slot(slot));
}

void WireCompressor::requantize(int slot, std::byte* data, std::size_t elems,
                                std::size_t at) {
  const std::span<float> values{reinterpret_cast<float*>(data), elems};
  compress_f32(values, opts_, writable_slot(slot) + at, values);
}

void WireCompressor::decode(int slot, std::byte* dest, std::size_t elems) {
  decompress_f32(slot_data(slot), opts_,
                 {reinterpret_cast<float*>(dest), elems});
}

void WireCompressor::send_blob(int dst, int slot, std::size_t elems,
                               std::size_t chunk, int tag) {
  comm_.send_chunks(dst, {slot_data(slot), wire_bytes(elems)}, chunk, tag);
}

void WireCompressor::recv_blob(int src, int slot, std::size_t elems,
                               std::size_t chunk, int tag) {
  comm_.recv_chunks_into(src, {slot_data(slot), wire_bytes(elems)}, chunk,
                         tag);
}

void WireCompressor::send(int dst, const std::byte* data, std::size_t elems,
                          std::size_t chunk, int tag) {
  const std::size_t bytes = wire_bytes(elems);
  const bool view = bulk_views_ && comm_.bulk_zero_copy();
  if (!view && (chunk == 0 || bytes <= chunk)) {
    // One eager message: it IS the blob, so encode into the pooled payload
    // and hand it over without a staging copy.
    std::vector<std::byte> payload = comm_.pool().acquire(bytes);
    compress_f32({reinterpret_cast<const float*>(data), elems}, opts_,
                 payload.data());
    comm_.send_bytes_owned(dst, std::move(payload), tag);
    return;
  }
  encode(0, data, elems);
  if (bulk_views_)
    send_view(dst, 0, 0, bytes, chunk, tag);
  else
    send_blob(dst, 0, elems, chunk, tag);
}

void WireCompressor::send_view(int dst, int slot, std::size_t at,
                               std::size_t bytes, std::size_t chunk, int tag) {
  if (comm_.bulk_zero_copy()) view_out_[slot] = true;
  comm_.send_bulk(dst, {slot_data(slot) + at, bytes}, chunk, tag);
}

void WireCompressor::send_run(int dst, std::size_t at, std::size_t bytes,
                              std::size_t chunk, int tag) {
  ADASUM_CHECK(bulk_views_);
  send_view(dst, 1, at, bytes, chunk, tag);
}

const std::byte* WireCompressor::recv_run(int src, std::size_t at,
                                          std::size_t bytes,
                                          std::size_t chunk, int tag) {
  ADASUM_CHECK(bulk_views_);
  // No writable_slot() fence: the range is disjoint from every run this rank
  // has published and not yet fenced.
  const std::span<std::byte> dest{slot_data(1) + at, bytes};
  comm_.recv_bulk_into(src, dest, chunk, tag);
  return dest.data();
}

}  // namespace adasum
