// SELU activation (Klambauer et al., NIPS 2017) — the activation used
// throughout the DeepCSI classifier — plus the flatten utility layer.
#pragma once

#include "nn/layer.h"

namespace deepcsi::nn {

inline constexpr float kSeluLambda = 1.0507009873554805f;
inline constexpr float kSeluAlpha = 1.6732632423543772f;

class Selu final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::string name() const override { return "selu"; }

 private:
  Tensor cached_y_;  // forward output; backward's derivative reads it
};

// [N, C, H, W] (or any rank >= 2) -> [N, rest].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

}  // namespace deepcsi::nn
