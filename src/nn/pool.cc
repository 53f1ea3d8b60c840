#include "nn/pool.h"

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {

namespace {

// The one pooling kernel of both forwards, over `rows` rows of ww inputs.
// It records the argmax only when asked: training caches it for backward,
// the const serve path does not need it.
void pool_rows(const float* x, std::size_t rows, std::size_t ww, float* out,
               std::size_t* argmax) {
  // The SIMD-dispatched pairwise max, fanned out over the pool by row.
  // The argmax is derived in the same chunk: the second element wins only
  // when strictly greater than max(first, -3.4e38), so ties, NaN and
  // windows with no value above the floor (all NaN or -inf) keep — and
  // route their gradient to — the window's first element. Rows are
  // independent: bit-identical across DEEPCSI_THREADS.
  const simd::SimdOps& ops = simd::ops();
  common::parallel_for(
      0, rows, common::grain_for(ww), [&](std::size_t lo, std::size_t hi) {
        // Local copies: the size_t stores through `am` could otherwise
        // alias the captured sizes and force a reload per element.
        const std::size_t n_in = ww, n_out = ww / 2;
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
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& x, bool /*training*/) {
  DEEPCSI_CHECK(x.rank() == 4);
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), hh = x.dim(2),
                    ww = x.dim(3);
  DEEPCSI_CHECK_MSG(hh >= 1 && ww >= 2, "pool kernel larger than input");
  in_shape_ = x.shape();

  Tensor out({n_batch, ch, hh, ww / 2});
  argmax_.resize(out.numel());
  pool_rows(x.data(), n_batch * ch * hh, ww, out.data(), argmax_.data());
  return out;
}

void MaxPool2d::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4);
  const std::size_t hh = plan.in_shape.dim(2), ww = plan.in_shape.dim(3);
  DEEPCSI_CHECK_MSG(hh >= 1 && ww >= 2, "pool kernel larger than input");
  plan.out_shape = {plan.in_shape.dim(0), plan.in_shape.dim(1), hh, ww / 2};
}

void MaxPool2d::forward_into(const InferArgs& args) const {
  pool_rows(args.x.data(), args.x.dim(0) * args.x.dim(1) * args.x.dim(2),
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
