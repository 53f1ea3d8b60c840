#include "nn/dense.h"

#include <cstdint>

#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/simd.h"

namespace deepcsi::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             std::mt19937_64& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor({out_features, in_features})),
      bias_(Tensor({out_features})) {
  lecun_normal(weight_.value, in_features, rng);
  bias_.value.zero();
}

// Shared by both forward paths so they stay bitwise identical: one
// x * W^T GEMM, then the bias broadcast.
void Dense::compute_forward(const float* x, std::size_t n_batch,
                            float* out) const {
  gemm_nt(n_batch, out_features_, in_features_, x, weight_.value.data(), out,
          /*accumulate=*/false);
  const float* __restrict bs = bias_.value.data();
  common::parallel_for(
      0, n_batch, common::grain_for(out_features_),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
          float* __restrict o_row = out + n * out_features_;
          for (std::size_t o = 0; o < out_features_; ++o) o_row[o] += bs[o];
        }
      });
}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  DEEPCSI_CHECK(x.rank() == 2 && x.dim(1) == in_features_);
  const std::size_t n_batch = x.dim(0);
  cached_x_ = x;
  Tensor out({n_batch, out_features_});
  compute_forward(x.data(), n_batch, out.data());
  return out;
}

void Dense::prepare_int8(float input_absmax) {
  qw_ = quantize_weights(weight_.value.data(), out_features_, in_features_,
                         input_absmax);
}

void Dense::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 2 &&
                plan.in_shape.dim(1) == in_features_);
  plan.out_shape = {plan.in_shape.dim(0), out_features_};
  // Calibrated layer: one arena slice for the quantized input row
  // (bytes as floats, rounded up; the row zero-padded to 8 * ko).
  if (qw_.valid()) plan.scratch_numel = {(8 * qw_.ko + 3) / 4};
}

void Dense::forward_into(const InferArgs& args) const {
  if (qw_.valid() && simd::active() == simd::Backend::kAvx2Int8) {
    // Planned-before-calibration contexts lack the slice — fail loudly
    // (see Conv2d::forward_into).
    DEEPCSI_CHECK_MSG(args.plan.scratch.size() == 1,
                      "dense int8: context planned before calibration");
    auto* xq = reinterpret_cast<std::uint8_t*>(args.scratch(0));
    dense_s8u8(args.x.dim(0), in_features_, qw_, args.x.data(), xq,
               bias_.value.data(), args.y.data());
    return;
  }
  compute_forward(args.x.data(), args.x.dim(0), args.y.data());
}

Tensor Dense::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  DEEPCSI_CHECK(!x.empty());
  DEEPCSI_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_features_ &&
                grad_out.dim(0) == x.dim(0));
  const std::size_t n_batch = x.dim(0);

  // grad_in = grad_out * W, accumulated into the zero tensor.
  Tensor grad_in({n_batch, in_features_});
  gemm_nn_batch_reduce(1, n_batch, in_features_, out_features_,
                       grad_out.data(), 0, weight_.value.data(), 0,
                       grad_in.data());

  // grad_W += grad_out^T * x.
  gemm_tn(out_features_, in_features_, n_batch, grad_out.data(), x.data(),
          weight_.grad.data(), /*accumulate=*/true);

  // grad_b += column sums of grad_out (n ascending, like the GEMMs).
  float* __restrict gb = bias_.grad.data();
  for (std::size_t n = 0; n < n_batch; ++n) {
    const float* __restrict g_row = grad_out.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) gb[o] += g_row[o];
  }
  return grad_in;
}

}  // namespace deepcsi::nn
