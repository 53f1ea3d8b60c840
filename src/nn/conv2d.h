// The DeepCSI convolution: a (1, kw) kernel along the sub-carrier axis
// of NCHW inputs of height 1, 'same' zero padding along W, stride 1 —
// the (1,7)/(1,5)/(1,3) convs of the classifier and its attention conv.
// The weight keeps the 4-D [out, in, 1, kw] layout of the weight files.
//
// Forward is one weight-by-columns GEMM over each sample's [Cin*kw, W]
// im2col matrix, whose B tiles conv_f32_batched (nn/gemm.h) packs
// straight from the input planes, so no column matrix is built. Backward
// builds the transposed columns from the cached input (im2row): the
// weight gradient reduces the batch in one blocked GEMM over them, the
// column gradient is W^T times the output gradient, scattered back by
// col2im.
// All stages run over the global thread pool with deterministic
// partitioning — outputs are bit-identical for any DEEPCSI_THREADS.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"
#include "nn/quantize.h"

namespace deepcsi::nn {

class Conv2d final : public Layer {
 public:
  // kw must be odd. forward and plan_inference refuse inputs whose
  // height is not 1.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kw,
         std::mt19937_64& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<const Param*> params() const override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "conv2d"; }

  // Attach calibrated int8 weights (nn/quantize.h). After this,
  // contexts planned from the layer stage u8 scratch and forward_into
  // runs the quantized kernels whenever the avx2_int8 backend is
  // active; other backends keep the fp32 path. Existing
  // InferenceContexts were planned without the int8 slices — rebuild
  // them (Authenticator resets its pool after calibrating).
  void prepare_int8(float input_absmax);
  bool has_int8() const { return qw_.valid(); }

 private:
  std::size_t in_channels_, out_channels_, kw_, pad_w_;
  Param weight_;  // [out, in, 1, kw]
  Param bias_;    // [out]
  // The im2col geometry of one sample of a 1 x ww input.
  ConvShape shape(std::size_t ww) const {
    return {in_channels_, ww, kw_, pad_w_};
  }

  QuantizedWeights qw_;  // empty until prepare_int8

  Tensor cached_x_;
  // Backward scratch: first the transposed columns, then the column
  // gradients.
  std::vector<float> col_grad_scratch_;
};

}  // namespace deepcsi::nn
