// 2-D convolution over NCHW tensors with 'same' zero padding and stride 1.
//
// Implemented as im2col + the shared row-parallel GEMM kernel: each
// sample's receptive fields are unrolled into a [Cin*kh*kw, H*W] column
// matrix, so forward is one weight-by-columns GEMM and backward is the
// transposed pair plus a col2im scatter: the weight gradient reduces the
// batch in one blocked GEMM over the transposed columns, the column
// gradient is W^T times the output gradient. All stages run over the
// global thread pool with deterministic partitioning — outputs are
// bit-identical for any DEEPCSI_THREADS.
//
// The DeepCSI classifier convolves only along the sub-carrier axis
// (kernels (1,7)/(1,5)/(1,3)); the kernels here stay general (kh, kw).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "nn/layer.h"
#include "nn/quantize.h"

namespace deepcsi::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kh,
         std::size_t kw, std::mt19937_64& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<const Param*> params() const override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "conv2d"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }

  // Attach calibrated int8 weights (nn/quantize.h). After this,
  // contexts planned from the layer stage u8 scratch and forward_into
  // runs the quantized kernels whenever the avx2_int8 backend is
  // active; other backends keep the fp32 path. Existing
  // InferenceContexts were planned without the int8 slices — rebuild
  // them (Authenticator resets its pool after calibrating).
  void prepare_int8(float input_absmax);
  bool has_int8() const { return qw_.valid(); }

 private:
  std::size_t in_channels_, out_channels_, kh_, kw_;
  std::size_t pad_h_, pad_w_;
  Param weight_;  // [out, in, kh, kw]
  Param bias_;    // [out]
  // Unrolls x into [N][Cin*kh*kw][H*W] column rows (parallel per row).
  void im2col(const Tensor& x, std::vector<float>& cols) const;
  // The raw kernels shared by both forward paths (train caches feed off
  // the same routines, so serve output is bitwise identical).
  void im2col_into(const float* x, std::size_t n_batch, std::size_t hh,
                   std::size_t ww, float* cols) const;
  // u8 twin of im2col_into for the quantized path: same tap geometry,
  // padding byte 128 (the u8 encoding of 0.0f — see nn/quantize.h).
  void im2col_u8_into(const std::uint8_t* x, std::size_t n_batch,
                      std::size_t hh, std::size_t ww,
                      std::uint8_t* cols) const;
  // fuse_selu applies SELU as the GEMM's per-row epilogue (the fused
  // conv->bias->SELU serve path planned by InferenceContext).
  void compute_forward(const float* cols, std::size_t n_batch, std::size_t hh,
                       std::size_t ww, float* out,
                       bool fuse_selu = false) const;

  QuantizedWeights qw_;  // empty until prepare_int8

  Tensor cached_x_;
  // im2col of cached_x_, shared by both modes: backward's weight-gradient
  // GEMM consumes it after training-mode forward; inference reuses its
  // capacity across calls and drops oversized leftovers on transition.
  std::vector<float> cached_cols_;
  // Backward scratch: first the transposed columns, then the column
  // gradients.
  std::vector<float> col_grad_scratch_;
};

}  // namespace deepcsi::nn
