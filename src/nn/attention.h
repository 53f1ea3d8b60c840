// Spatial attention block (inspired by CBAM's spatial attention module,
// Woo et al. ECCV 2018), as described in Section III-C of the paper, over
// the [N, C, 1, W] height-1 planes the conv stack emits:
//
//   max/mean over the channel axis -> concat (2 maps) -> conv (1x5, same)
//   -> sigmoid -> weights w; output = x + x (.) w  (skip connection).
//
// The attention lets the classifier focus on the sub-carrier regions where
// the fingerprint is most informative. forward and plan_inference refuse
// inputs whose height is not 1. Both forwards share the channel maps and
// the sigmoid gate; only the nested conv call differs. The nested conv is
// never calibrated (apply_calibration reaches top-level layers only), so
// the serve path runs it fp32 with no scratch of its own.
#pragma once

#include <random>

#include "nn/conv2d.h"
#include "nn/layer.h"

namespace deepcsi::nn {

class SpatialAttention final : public Layer {
 public:
  static constexpr std::size_t kKernelW = 5;  // the paper's (1, 5) conv

  explicit SpatialAttention(std::mt19937_64& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::vector<Param*> params() override { return conv_.params(); }
  std::vector<const Param*> params() const override { return conv_.params(); }
  std::string name() const override { return "spatial_attention"; }

 private:
  Conv2d conv_;  // 2 -> 1 channels, kKernelW wide
  Tensor cached_x_;
  Tensor cached_w_;                  // sigmoid output, [N, 1, 1, W]
  std::vector<std::size_t> argmax_;  // channel index of the max map
};

}  // namespace deepcsi::nn
