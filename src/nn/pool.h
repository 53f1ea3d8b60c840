// The (1, 2) max pool of the paper's network: stride 2 along W over NCHW,
// floor semantics (an odd tail column is dropped).
#pragma once

#include "nn/layer.h"

namespace deepcsi::nn {

class MaxPool2d final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::string name() const override { return "max_pool2d"; }

 private:
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> in_shape_;
};

}  // namespace deepcsi::nn
