#include "tensor/fusion.h"

#include "base/check.h"
#include "tensor/kernels.h"

namespace adasum {

std::vector<std::vector<std::size_t>> make_fusion_groups(
    const std::vector<const Tensor*>& tensors, std::size_t threshold_bytes) {
  ADASUM_CHECK_GT(threshold_bytes, 0u);
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> current;
  std::size_t current_bytes = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::size_t bytes = tensors[i]->nbytes();
    if (!current.empty() && current_bytes + bytes > threshold_bytes) {
      groups.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
    current.push_back(i);
    current_bytes += bytes;
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

FusedTensor fuse(const std::vector<const Tensor*>& tensors,
                 const std::vector<std::string>* names) {
  ADASUM_CHECK(!tensors.empty());
  const DType dtype = tensors[0]->dtype();
  std::size_t total = 0;
  for (const Tensor* t : tensors) {
    ADASUM_CHECK_MSG(t->dtype() == dtype,
                     "all tensors in a fusion group must share a dtype");
    total += t->size();
  }
  if (names != nullptr) ADASUM_CHECK_EQ(names->size(), tensors.size());

  FusedTensor out;
  out.flat = Tensor({total}, dtype);
  out.slices.reserve(tensors.size());
  const std::size_t elem = dtype_size(dtype);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const Tensor* t = tensors[i];
    kernels::copy_bytes(t->data(), out.flat.data() + offset * elem, t->size(),
                        dtype);
    out.slices.push_back(TensorSlice{
        names != nullptr ? (*names)[i] : "t" + std::to_string(i), offset,
        t->size()});
    offset += t->size();
  }
  return out;
}

namespace {

// Does the existing boundary table already describe this pack? Its names
// are always "t<i>", so offsets and counts decide; checking instead of
// rebuilding avoids N string constructions per step once the layout settles.
bool table_matches(const std::vector<TensorSlice>& slices,
                   const std::vector<const Tensor*>& tensors) {
  if (slices.size() != tensors.size()) return false;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const TensorSlice& s = slices[i];
    if (s.offset != offset || s.count != tensors[i]->size()) return false;
    offset += s.count;
  }
  return true;
}

}  // namespace

FusedTensor& FusionBuffer::pack(const std::vector<const Tensor*>& tensors) {
  ADASUM_CHECK(!tensors.empty());
  const DType dtype = tensors[0]->dtype();
  std::size_t total = 0;
  for (const Tensor* t : tensors) {
    ADASUM_CHECK_MSG(t->dtype() == dtype,
                     "all tensors in a fusion group must share a dtype");
    total += t->size();
  }
  ++stats_.packs;

  if (fused_.flat.size() == total && fused_.flat.dtype() == dtype &&
      fused_.flat.size() > 0) {
    ++stats_.buffer_reuses;
  } else {
    fused_.flat = Tensor({total}, dtype);
  }

  const bool keep_table = table_matches(fused_.slices, tensors);
  if (keep_table) {
    ++stats_.table_reuses;
  } else {
    fused_.slices.clear();
    fused_.slices.reserve(tensors.size());
  }

  const std::size_t elem = dtype_size(dtype);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const Tensor* t = tensors[i];
    kernels::copy_bytes(t->data(), fused_.flat.data() + offset * elem,
                        t->size(), dtype);
    if (!keep_table)
      fused_.slices.push_back(
          TensorSlice{"t" + std::to_string(i), offset, t->size()});
    offset += t->size();
  }
  return fused_;
}

void FusionBuffer::unpack(const std::vector<Tensor*>& tensors) const {
  unfuse(fused_, tensors);
}

void unfuse(const FusedTensor& fused, const std::vector<Tensor*>& tensors) {
  ADASUM_CHECK_EQ(tensors.size(), fused.slices.size());
  const std::size_t elem = dtype_size(fused.flat.dtype());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    Tensor* t = tensors[i];
    const TensorSlice& s = fused.slices[i];
    ADASUM_CHECK_EQ(t->size(), s.count);
    ADASUM_CHECK_MSG(t->dtype() == fused.flat.dtype(),
                     "unfuse destination dtype mismatch");
    kernels::copy_bytes(fused.flat.data() + s.offset * elem, t->data(),
                        s.count, fused.flat.dtype());
  }
}

}  // namespace adasum
