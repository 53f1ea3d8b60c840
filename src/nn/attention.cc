#include "nn/attention.h"

#include <cmath>

namespace deepcsi::nn {
namespace {

// Channel-wise max/mean maps [N, 2, 1, W] shared by both forward paths;
// records the max channel only when the training path needs it for
// backward.
void compute_maps(const float* x, std::size_t n_batch, std::size_t ch,
                  std::size_t ww, float* maps, std::size_t* argmax) {
  for (std::size_t n = 0; n < n_batch; ++n) {
    for (std::size_t w = 0; w < ww; ++w) {
      float best = -3.4e38f;
      std::size_t best_c = 0;
      float mean = 0.0f;
      for (std::size_t c = 0; c < ch; ++c) {
        const float v = x[(n * ch + c) * ww + w];
        mean += v;
        if (v > best) {
          best = v;
          best_c = c;
        }
      }
      maps[n * 2 * ww + w] = best;
      maps[(n * 2 + 1) * ww + w] = mean / static_cast<float>(ch);
      if (argmax != nullptr) argmax[n * ww + w] = best_c;
    }
  }
}

// The gate shared by both forward paths: the conv output s [N, 1, 1, W]
// becomes the weights w = sigmoid(s) in place, then y = x + x (.) w with
// w broadcast over the channels.
void gate(const float* __restrict x, float* __restrict s,
          float* __restrict y, std::size_t n_batch, std::size_t ch,
          std::size_t ww) {
  for (std::size_t i = 0; i < n_batch * ww; ++i)
    s[i] = 1.0f / (1.0f + std::exp(-s[i]));
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t c = 0; c < ch; ++c) {
      const float* __restrict x_row = x + (n * ch + c) * ww;
      float* __restrict y_row = y + (n * ch + c) * ww;
      const float* __restrict w_row = s + n * ww;
      for (std::size_t w = 0; w < ww; ++w)
        y_row[w] = x_row[w] + x_row[w] * w_row[w];
    }
}

}  // namespace

SpatialAttention::SpatialAttention(std::mt19937_64& rng)
    : conv_(2, 1, kKernelW, rng) {}

Tensor SpatialAttention::forward(const Tensor& x, bool training) {
  DEEPCSI_CHECK(x.rank() == 4);
  DEEPCSI_CHECK_MSG(x.dim(2) == 1, "attention input height must be 1");
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), ww = x.dim(3);
  cached_x_ = x;

  Tensor maps({n_batch, 2, 1, ww});
  argmax_.assign(n_batch * ww, 0);
  compute_maps(x.data(), n_batch, ch, ww, maps.data(), argmax_.data());

  cached_w_ = conv_.forward(maps, training);
  Tensor out(x.shape());
  gate(x.data(), cached_w_.data(), out.data(), n_batch, ch, ww);
  return out;
}

Tensor SpatialAttention::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  DEEPCSI_CHECK(!x.empty() && grad_out.same_shape(x));
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), ww = x.dim(3);
  const float* __restrict g = grad_out.data();
  const float* __restrict xv = x.data();
  const float* __restrict wv = cached_w_.data();

  // d s (pre-sigmoid) and the direct x-paths.
  Tensor grad_in = grad_out;  // skip connection
  float* __restrict gi = grad_in.data();
  Tensor ds({n_batch, 1, 1, ww});
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t w = 0; w < ww; ++w) {
      const float wt = wv[n * ww + w];
      float dw = 0.0f;
      for (std::size_t c = 0; c < ch; ++c) {
        const std::size_t i = (n * ch + c) * ww + w;
        gi[i] += g[i] * wt;  // x (.) w path into x
        dw += g[i] * xv[i];
      }
      ds[n * ww + w] = dw * wt * (1.0f - wt);
    }

  const Tensor dmaps = conv_.backward(ds);

  // Route the map gradients back to x.
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t w = 0; w < ww; ++w) {
      const float dmax = dmaps[n * 2 * ww + w];
      const float dmean = dmaps[(n * 2 + 1) * ww + w] / static_cast<float>(ch);
      gi[(n * ch + argmax_[n * ww + w]) * ww + w] += dmax;
      for (std::size_t c = 0; c < ch; ++c) gi[(n * ch + c) * ww + w] += dmean;
    }
  return grad_in;
}

void SpatialAttention::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4);
  DEEPCSI_CHECK_MSG(plan.in_shape.dim(2) == 1,
                    "attention input height must be 1");
  const std::size_t ww = plan.in_shape.dim(3);
  plan.out_shape = plan.in_shape;
  // scratch[0]: the concatenated max/mean maps [2, 1, W];
  // scratch[1]: the conv output / sigmoid weights [1, 1, W].
  plan.scratch_numel = {2 * ww, ww};
}

void SpatialAttention::forward_into(const InferArgs& args) const {
  // The nested conv stays fp32, whose forward_into plans no scratch, so
  // one empty plan serves every call.
  static const InferencePlan kConvPlan;
  DEEPCSI_CHECK(!conv_.has_int8());
  const std::size_t n = args.x.dim(0), ch = args.x.dim(1),
                    ww = args.x.dim(3);
  float* maps = args.scratch(0);
  float* s = args.scratch(1);
  compute_maps(args.x.data(), n, ch, ww, maps, /*argmax=*/nullptr);
  conv_.forward_into({tensor::ConstTensorView(maps, {n, 2, 1, ww}),
                      tensor::TensorView(s, {n, 1, 1, ww}), kConvPlan});
  gate(args.x.data(), s, args.y.data(), n, ch, ww);
}

}  // namespace deepcsi::nn
