// Max pooling over NCHW with stride = kernel and floor semantics (odd
// tails are dropped), matching the (1, 2) pooling of the paper's network.
#pragma once

#include "nn/layer.h"

namespace deepcsi::nn {

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::size_t kh, std::size_t kw) : kh_(kh), kw_(kw) {
    DEEPCSI_CHECK(kh >= 1 && kw >= 1);
  }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::string name() const override { return "max_pool2d"; }

 private:
  // The one pooling kernel of both forwards (a SIMD fast path for the
  // (1, 2) window, a generic loop otherwise): records the argmax only when
  // asked (training caches it for backward; the const serve path does
  // not need it).
  void compute_forward(const float* x, std::size_t n_batch, std::size_t ch,
                       std::size_t hh, std::size_t ww, float* out,
                       std::size_t* argmax) const;

  std::size_t kh_, kw_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> in_shape_;
};

}  // namespace deepcsi::nn
