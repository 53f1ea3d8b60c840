#include "nn/attention.h"

#include <cmath>

namespace deepcsi::nn {

SpatialAttention::SpatialAttention(std::mt19937_64& rng, std::size_t kernel_w)
    : conv_(2, 1, kernel_w, rng) {}

void SpatialAttention::compute_maps(const float* x, std::size_t n_batch,
                                    std::size_t ch, std::size_t hh,
                                    std::size_t ww, float* maps,
                                    std::size_t* argmax) const {
  for (std::size_t n = 0; n < n_batch; ++n) {
    for (std::size_t h = 0; h < hh; ++h) {
      for (std::size_t w = 0; w < ww; ++w) {
        float best = -3.4e38f;
        std::size_t best_c = 0;
        float mean = 0.0f;
        for (std::size_t c = 0; c < ch; ++c) {
          const float v = x[((n * ch + c) * hh + h) * ww + w];
          mean += v;
          if (v > best) {
            best = v;
            best_c = c;
          }
        }
        maps[(n * 2 * hh + h) * ww + w] = best;
        maps[((n * 2 + 1) * hh + h) * ww + w] =
            mean / static_cast<float>(ch);
        if (argmax != nullptr) argmax[(n * hh + h) * ww + w] = best_c;
      }
    }
  }
}

Tensor SpatialAttention::forward(const Tensor& x, bool training) {
  DEEPCSI_CHECK(x.rank() == 4);
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), hh = x.dim(2),
                    ww = x.dim(3);
  cached_x_ = x;

  // Channel-wise max and mean maps.
  Tensor maps({n_batch, 2, hh, ww});
  argmax_.assign(n_batch * hh * ww, 0);
  compute_maps(x.data(), n_batch, ch, hh, ww, maps.data(), argmax_.data());

  Tensor s = conv_.forward(maps, training);
  cached_w_ = s;
  float* __restrict wv = cached_w_.data();
  for (std::size_t i = 0; i < cached_w_.numel(); ++i)
    wv[i] = 1.0f / (1.0f + std::exp(-wv[i]));

  // out = x + x (.) w, broadcasting w over channels.
  Tensor out = x;
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t c = 0; c < ch; ++c)
      for (std::size_t h = 0; h < hh; ++h) {
        float* __restrict o_row = out.data() + ((n * ch + c) * hh + h) * ww;
        const float* __restrict w_row =
            cached_w_.data() + (n * hh + h) * ww;
        for (std::size_t w = 0; w < ww; ++w)
          o_row[w] += o_row[w] * w_row[w];
      }
  return out;
}

Tensor SpatialAttention::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  DEEPCSI_CHECK(!x.empty() && grad_out.same_shape(x));
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), hh = x.dim(2),
                    ww = x.dim(3);

  // d s (pre-sigmoid) and the direct x-paths.
  Tensor grad_in = grad_out;  // skip connection
  Tensor ds({n_batch, 1, hh, ww});
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t h = 0; h < hh; ++h)
      for (std::size_t w = 0; w < ww; ++w) {
        const float wv = cached_w_.at4(n, 0, h, w);
        float dw = 0.0f;
        for (std::size_t c = 0; c < ch; ++c) {
          const float g = grad_out.at4(n, c, h, w);
          grad_in.at4(n, c, h, w) += g * wv;  // x (.) w path into x
          dw += g * x.at4(n, c, h, w);
        }
        ds.at4(n, 0, h, w) = dw * wv * (1.0f - wv);
      }

  const Tensor dmaps = conv_.backward(ds);

  // Route the map gradients back to x.
  for (std::size_t n = 0; n < n_batch; ++n)
    for (std::size_t h = 0; h < hh; ++h)
      for (std::size_t w = 0; w < ww; ++w) {
        const float dmax = dmaps.at4(n, 0, h, w);
        const float dmean =
            dmaps.at4(n, 1, h, w) / static_cast<float>(ch);
        grad_in.at4(n, argmax_[(n * hh + h) * ww + w], h, w) += dmax;
        for (std::size_t c = 0; c < ch; ++c) grad_in.at4(n, c, h, w) += dmean;
      }
  return grad_in;
}

void SpatialAttention::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4);
  const std::size_t hh = plan.in_shape.dim(2), ww = plan.in_shape.dim(3);
  plan.out_shape = plan.in_shape;
  // scratch[0]: the concatenated max/mean maps [2, H, W];
  // scratch[1]: the conv output / sigmoid weights [1, H, W].
  plan.scratch_numel = {2 * hh * ww, hh * ww};
  // The nested conv plans its own scratch (int8 only) as a child.
  InferencePlan child;
  child.in_shape = {plan.in_shape.dim(0), 2, hh, ww};
  conv_.plan_inference(child);
  plan.children.push_back(std::move(child));
}

void SpatialAttention::forward_into(const InferArgs& args) const {
  const std::size_t n = args.x.dim(0), ch = args.x.dim(1),
                    hh = args.x.dim(2), ww = args.x.dim(3);
  float* maps = args.scratch(0);
  float* s = args.scratch(1);
  compute_maps(args.x.data(), n, ch, hh, ww, maps, /*argmax=*/nullptr);

  conv_.forward_into(
      {tensor::ConstTensorView(maps, {n, 2, hh, ww}),
       tensor::TensorView(s, {n, 1, hh, ww}), args.plan.children[0],
       args.region});
  for (std::size_t i = 0; i < n * hh * ww; ++i)
    s[i] = 1.0f / (1.0f + std::exp(-s[i]));

  // out = x + x (.) w, broadcasting w over channels — the same statement
  // shape as the train path (o += o * w on o initialized to x).
  for (std::size_t nn = 0; nn < n; ++nn)
    for (std::size_t c = 0; c < ch; ++c)
      for (std::size_t h = 0; h < hh; ++h) {
        const float* __restrict x_row =
            args.x.data() + ((nn * ch + c) * hh + h) * ww;
        float* __restrict o_row =
            args.y.data() + ((nn * ch + c) * hh + h) * ww;
        const float* __restrict w_row = s + (nn * hh + h) * ww;
        for (std::size_t w = 0; w < ww; ++w)
          o_row[w] = x_row[w] + x_row[w] * w_row[w];
      }
}

}  // namespace deepcsi::nn
