// Dynamic scaling for fp16 payloads (paper §4.4.1).
//
// When gradients travel in fp16, their values must be kept inside the
// binary16 dynamic range. The standard technique (Micikevicius et al.,
// "Mixed Precision Training") multiplies tensors by a running scale before
// the cast and divides after; when a cast or reduction overflows (producing
// inf/nan), the scale is halved and the step retried/skipped, and after a
// window of clean steps the scale grows back. The paper applies this to the
// tensors Adasum introduces — the effective_gradient of Figure 3.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace adasum {

class DynamicScaler {
 public:
  struct Options {
    double initial_scale = 1024.0;
    double growth_factor = 2.0;
    double backoff_factor = 0.5;
    // Consecutive finite steps before the scale grows.
    int growth_interval = 200;
    double max_scale = 65536.0;
    double min_scale = 1.0;
  };

  DynamicScaler() : DynamicScaler(Options{}) {}
  explicit DynamicScaler(const Options& options);

  double scale() const { return scale_; }

  // Record the outcome of a step. Returns true if the step's values were
  // finite and may be applied; false means the caller must skip/retry the
  // step (the scale has been backed off).
  bool update(bool overflowed);

  int num_backoffs() const { return num_backoffs_; }
  int num_growths() const { return num_growths_; }

 private:
  Options options_;
  double scale_;
  int good_steps_ = 0;
  int num_backoffs_ = 0;
  int num_growths_ = 0;
};

// Returns a scaled fp16 copy of `t` (t * scale, cast to fp16). The
// three-argument form writes it into `out`, an fp16 tensor of t's size.
Tensor cast_to_fp16_scaled(const Tensor& t, double scale);
void cast_to_fp16_scaled(const Tensor& t, double scale, Tensor& out);

// Returns an fp32 copy of fp16 tensor `t` divided by `scale`. The
// three-argument form writes it into `out`, an fp32 tensor of t's size.
Tensor cast_from_fp16_scaled(const Tensor& t, double scale);
void cast_from_fp16_scaled(const Tensor& t, double scale, Tensor& out);

// True if the tensor contains any inf/nan element.
bool tensor_overflowed(const Tensor& t);

}  // namespace adasum
