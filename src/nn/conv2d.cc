#include "nn/conv2d.h"

#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/simd.h"

namespace deepcsi::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kw, std::mt19937_64& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kw_(kw),
      pad_w_((kw - 1) / 2),
      weight_(Tensor({out_channels, in_channels, 1, kw})),
      bias_(Tensor({out_channels})) {
  DEEPCSI_CHECK_MSG(kw % 2 == 1, "'same' padding requires odd kernels");
  lecun_normal(weight_.value, in_channels * kw, rng);
  bias_.value.zero();
}

void Conv2d::prepare_int8(float input_absmax) {
  qw_ = quantize_weights(weight_.value.data(), out_channels_,
                         in_channels_ * kw_, input_absmax);
}

// out = bias + W * im2col(x), the bias folded into the GEMM's row init
// and the columns packed from x tile by tile (conv_f32_batched).
Tensor Conv2d::forward(const Tensor& x, bool /*training*/) {
  DEEPCSI_CHECK(x.rank() == 4);
  DEEPCSI_CHECK_MSG(x.dim(1) == in_channels_, "conv2d channel mismatch");
  DEEPCSI_CHECK_MSG(x.dim(2) == 1, "conv2d input height must be 1");
  const std::size_t n_batch = x.dim(0), ww = x.dim(3);
  cached_x_ = x;
  Tensor out({n_batch, out_channels_, 1, ww});
  conv_f32_batched(n_batch, out_channels_, shape(ww), weight_.value.data(),
                   x.data(), out.data(), nullptr, bias_.value.data());
  return out;
}

void Conv2d::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4 &&
                plan.in_shape.dim(1) == in_channels_);
  DEEPCSI_CHECK_MSG(plan.in_shape.dim(2) == 1,
                    "conv2d input height must be 1");
  const std::size_t ww = plan.in_shape.dim(3);
  plan.out_shape = {plan.in_shape.dim(0), out_channels_, 1, ww};
  // The fp32 path needs no scratch: it packs its GEMM tiles from x.
  if (!qw_.valid()) return;
  // Calibrated layer: stage the quantized path's byte buffers in the
  // arena (sizes in floats, each sample's rounded up), so int8 steady
  // state is allocation-free. [0] u8 input planes, [1] the oct-packed
  // GEMM panel (k zero-padded to 8 * ko, columns padded to a multiple of
  // 8 — see conv_s8u8_batched).
  auto bytes_as_floats = [](std::size_t b) { return (b + 3) / 4; };
  const std::size_t ww_padded = (ww + 7) & ~std::size_t{7};
  plan.scratch_numel = {bytes_as_floats(in_channels_ * ww),
                        bytes_as_floats(8 * qw_.ko * ww_padded)};
}

void Conv2d::forward_into(const InferArgs& args) const {
  const std::size_t n = args.x.dim(0), ww = args.x.dim(3);
  const RowEpilogue epi = args.plan.fuse_selu ? simd::ops().selu : nullptr;
  if (qw_.valid() && simd::active() == simd::Backend::kAvx2Int8) {
    // A context planned before calibration lacks the int8 slices; that
    // means the owner skipped the pool rebuild — fail loudly rather
    // than silently serving fp32 from an "int8" configuration.
    DEEPCSI_CHECK_MSG(args.plan.scratch.size() == 2,
                      "conv2d int8: context planned before calibration");
    auto* xq = reinterpret_cast<std::uint8_t*>(args.scratch(0));
    auto* panel = reinterpret_cast<std::uint8_t*>(args.scratch(1));
    simd::ops().quantize_u8(args.x.data(), n * in_channels_ * ww,
                            qw_.act_inv_scale, xq);
    conv_s8u8_batched(n, shape(ww), qw_, xq, panel, bias_.value.data(),
                      args.y.data(), out_channels_ * ww, epi);
    return;
  }
  conv_f32_batched(n, out_channels_, shape(ww), weight_.value.data(),
                   args.x.data(), args.y.data(), epi, bias_.value.data());
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  DEEPCSI_CHECK(!x.empty());
  DEEPCSI_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == out_channels_);
  const std::size_t n_batch = x.dim(0), ww = x.dim(3);
  DEEPCSI_CHECK(grad_out.dim(0) == n_batch && grad_out.dim(2) == 1 &&
                grad_out.dim(3) == ww);
  const std::size_t ck = in_channels_ * kw_;

  // grad_b += per-plane sums (n ascending, double accumulator per plane).
  float* __restrict gb = bias_.grad.data();
  common::parallel_for(
      0, out_channels_, common::grain_for(n_batch * ww),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t co = lo; co < hi; ++co) {
          for (std::size_t n = 0; n < n_batch; ++n) {
            const float* __restrict g_plane =
                grad_out.data() + (n * out_channels_ + co) * ww;
            double acc = 0.0;
            for (std::size_t idx = 0; idx < ww; ++idx) acc += g_plane[idx];
            gb[co] += static_cast<float>(acc);
          }
        }
      });

  // grad_W += sum_n grad_out[n] * cols[n]^T. The forward built no
  // columns, so the transposed ones are built here from the cached input,
  // in the column-gradient scratch (same n * ck * ww floats), which the
  // column-gradient GEMM overwrites right after.
  col_grad_scratch_.resize(n_batch * ck * ww);
  im2row(shape(ww), n_batch, x.data(), col_grad_scratch_.data());
  gemm_nn_batch_reduce(n_batch, out_channels_, ck, ww, grad_out.data(),
                       out_channels_ * ww, col_grad_scratch_.data(), ww * ck,
                       weight_.grad.data());

  // Column gradients: colgrad[n] = W^T * grad_out[n], scattered back onto
  // the input planes.
  gemm_tn_batched(n_batch, ck, ww, out_channels_, weight_.value.data(),
                  grad_out.data(), out_channels_ * ww, col_grad_scratch_.data(),
                  ck * ww, /*accumulate=*/false);
  Tensor grad_in({n_batch, in_channels_, 1, ww});
  col2im_add(shape(ww), n_batch, col_grad_scratch_.data(), grad_in.data());
  return grad_in;
}

}  // namespace deepcsi::nn
