#include "nn/pool.h"

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {

void MaxPool2d::compute_forward(const float* x, std::size_t n_batch,
                                std::size_t ch, std::size_t hh, std::size_t ww,
                                float* out, std::size_t* argmax) const {
  const std::size_t oh = hh / kh_, ow = ww / kw_;
  if (kh_ == 1 && kw_ == 2) {
    // Fast path for the (1, 2) window the DeepCSI stack uses: the
    // SIMD-dispatched pairwise max, fanned out over the pool by row. Its
    // values match the generic loop below on every finite input (see
    // nn/simd.h); the argmax is derived in the same chunk with that
    // loop's exact rule — strictly greater against the floor, so ties,
    // NaN and floor-only windows keep the first element — so it equals
    // the generic loop's on every input. Rows are independent:
    // bit-identical across DEEPCSI_THREADS.
    const simd::SimdOps& ops = simd::ops();
    common::parallel_for(
        0, n_batch * ch * hh, common::grain_for(ww),
        [&](std::size_t lo, std::size_t hi) {
          // Local copies: the size_t stores through `am` could otherwise
          // alias the captured sizes and force a reload per element.
          const std::size_t n_in = ww, n_out = ow;
          for (std::size_t r = lo; r < hi; ++r) {
            const float* __restrict xr = x + r * n_in;
            ops.max_pool_1x2(xr, out + r * n_out, n_out);
            if (argmax == nullptr) continue;
            std::size_t* __restrict am = argmax + r * n_out;
            const std::size_t first = r * n_in;
            for (std::size_t j = 0; j < n_out; ++j) {
              const float v0 = xr[2 * j];
              const float best = v0 > -3.4e38f ? v0 : -3.4e38f;
              am[j] = first + 2 * j + (xr[2 * j + 1] > best ? 1 : 0);
            }
          }
        });
    return;
  }
  std::size_t o_idx = 0;
  for (std::size_t n = 0; n < n_batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const std::size_t plane = (n * ch + c) * hh * ww;
      for (std::size_t ho = 0; ho < oh; ++ho) {
        for (std::size_t wo = 0; wo < ow; ++wo) {
          const std::size_t first = plane + ho * kh_ * ww + wo * kw_;
          float best = -3.4e38f;
          // A window with no value above the floor (all NaN or -inf)
          // routes its gradient to its own first element.
          std::size_t best_idx = first;
          for (std::size_t i = 0; i < kh_; ++i) {
            for (std::size_t j = 0; j < kw_; ++j) {
              const std::size_t idx =
                  plane + (ho * kh_ + i) * ww + (wo * kw_ + j);
              const float v = x[idx];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          out[o_idx] = best;
          if (argmax != nullptr) argmax[o_idx] = best_idx;
          ++o_idx;
        }
      }
    }
  }
}

Tensor MaxPool2d::forward(const Tensor& x, bool /*training*/) {
  DEEPCSI_CHECK(x.rank() == 4);
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), hh = x.dim(2),
                    ww = x.dim(3);
  const std::size_t oh = hh / kh_, ow = ww / kw_;
  DEEPCSI_CHECK_MSG(oh >= 1 && ow >= 1, "pool kernel larger than input");
  in_shape_ = x.shape();

  Tensor out({n_batch, ch, oh, ow});
  argmax_.resize(out.numel());
  compute_forward(x.data(), n_batch, ch, hh, ww, out.data(), argmax_.data());
  return out;
}

void MaxPool2d::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4);
  const std::size_t oh = plan.in_shape.dim(2) / kh_;
  const std::size_t ow = plan.in_shape.dim(3) / kw_;
  DEEPCSI_CHECK_MSG(oh >= 1 && ow >= 1, "pool kernel larger than input");
  plan.out_shape = {plan.in_shape.dim(0), plan.in_shape.dim(1), oh, ow};
}

void MaxPool2d::forward_into(const InferArgs& args) const {
  compute_forward(args.x.data(), args.x.dim(0), args.x.dim(1), args.x.dim(2),
                  args.x.dim(3), args.y.data(), /*argmax=*/nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!in_shape_.empty());
  DEEPCSI_CHECK(grad_out.numel() == argmax_.size());
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_in[argmax_[i]] += grad_out[i];
  return grad_in;
}

}  // namespace deepcsi::nn
