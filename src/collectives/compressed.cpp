#include "collectives/compressed.h"

#include "base/check.h"

namespace adasum {

WireCompressor::WireCompressor(Comm& comm, DType dtype,
                               const CompressionOptions& opts,
                               std::size_t max_elems, bool bulk_views)
    : comm_(comm), opts_(opts), bulk_views_(bulk_views) {
  if (!opts_.active()) return;  // inactive: touch neither pool nor dtype
  ADASUM_CHECK(dtype == DType::kFloat32);
  const std::size_t bytes = compressed_wire_bytes(max_elems, opts_);
  blobs_[0].emplace(comm.pool(), bytes);
  blobs_[1].emplace(comm.pool(), bytes);
}

WireCompressor::~WireCompressor() {
  // The blob slots return to the shared pool on destruction; a view still
  // under a peer's decode must retire first or the next lessee would write
  // under the reader. The collectives fence before unwinding, so this is
  // normally an instant re-check — it only ever blocks on an early exit.
  if (blob_view_out_) {
    try {
      comm_.bulk_fence();
    } catch (...) {
      // Unwinding through an aborted world: the transport's drain reclaims
      // everything; swallowing keeps the destructor from terminating.
    }
  }
}

std::byte* WireCompressor::writable_slot(int slot) {
  // Writing a slot that still backs a published view would race the peer's
  // decode. In the RVH schedules the peer's consuming receive only waits on
  // transfers this rank already completed, so the fence always terminates.
  if (blob_view_out_) {
    comm_.bulk_fence();
    blob_view_out_ = false;
  }
  return blobs_[slot]->data();
}

void WireCompressor::encode(int slot, const std::byte* data,
                            std::size_t elems) {
  compress_f32({reinterpret_cast<const float*>(data), elems}, opts_,
               writable_slot(slot));
}

void WireCompressor::requantize(int slot, std::byte* data, std::size_t elems) {
  const std::span<float> values{reinterpret_cast<float*>(data), elems};
  compress_f32(values, opts_, writable_slot(slot), values);
}

void WireCompressor::decode(int slot, std::byte* dest, std::size_t elems) {
  decompress_f32(blobs_[slot]->data(), opts_,
                 {reinterpret_cast<float*>(dest), elems});
}

void WireCompressor::send_blob(int dst, int slot, std::size_t elems,
                               std::size_t chunk, int tag) {
  comm_.send_chunks(dst, blobs_[slot]->bytes(wire_bytes(elems)), chunk, tag);
}

void WireCompressor::recv_blob(int src, int slot, std::size_t elems,
                               std::size_t chunk, int tag) {
  comm_.recv_chunks_into(src, blobs_[slot]->bytes(wire_bytes(elems)), chunk,
                         tag);
}

void WireCompressor::send_bulk_blob(int dst, std::size_t elems,
                                    std::size_t chunk, int tag) {
  if (comm_.bulk_zero_copy()) blob_view_out_ = true;
  comm_.send_bulk(dst, blobs_[0]->bytes(wire_bytes(elems)), chunk, tag);
}

void WireCompressor::send(int dst, const std::byte* data, std::size_t elems,
                          std::size_t chunk, int tag) {
  encode(0, data, elems);
  if (bulk_views_)
    send_bulk_blob(dst, elems, chunk, tag);
  else
    send_blob(dst, 0, elems, chunk, tag);
}

void WireCompressor::send_requantize(int dst, std::byte* data,
                                     std::size_t elems, std::size_t chunk,
                                     int tag) {
  // The blob, not `data`, is what travels (copied, or published as a view
  // of the slot), so `data` may take its decoded values before the send.
  requantize(0, data, elems);
  if (bulk_views_)
    send_bulk_blob(dst, elems, chunk, tag);
  else
    send_blob(dst, 0, elems, chunk, tag);
}

void WireCompressor::recv_into(int src, std::byte* dest, std::size_t elems,
                               std::size_t chunk, int tag) {
  if (bulk_views_) {
    // The compressed remote-span path: on a zero-copy transport `blob` is
    // rebound to the PEER's published slot and the decode runs directly off
    // it — no staging copy; the eager path stages in slot 0 as before.
    const std::byte* blob = blobs_[0]->data();
    BulkRecv held = comm_.recv_bulk(
        src, blobs_[0]->bytes(wire_bytes(elems)), chunk, tag,
        [&](const std::byte* base, std::size_t, std::size_t) { blob = base; });
    decompress_f32(blob, opts_, {reinterpret_cast<float*>(dest), elems});
    return;
  }
  recv_blob(src, 0, elems, chunk, tag);
  decode(0, dest, elems);
}

}  // namespace adasum
