#include "nn/activations.h"

#include <algorithm>

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {
namespace {

// Elementwise SELU, shared by both forward paths. Dispatches to the
// active SIMD backend and fans out over the thread pool like the GEMMs it
// sits between: the backend kernel is a pure per-element function, so
// chunk boundaries (and therefore DEEPCSI_THREADS) cannot change a single
// output bit, and the result matches the fused conv->bias->SELU epilogue
// exactly.
void selu_apply(const float* x, float* y, std::size_t n) {
  const simd::SimdOps& ops = simd::ops();
  common::parallel_for(0, n, common::grain_for(4),
                       [&](std::size_t lo, std::size_t hi) {
                         ops.selu(x + lo, y + lo, hi - lo);
                       });
}

}  // namespace

Tensor Selu::forward(const Tensor& x, bool /*training*/) {
  // The output is written straight into the cache backward reads (its
  // buffer is reused across steps of one batch shape) and returned as
  // the one copy.
  if (!cached_y_.same_shape(x)) cached_y_ = Tensor(x.shape());
  selu_apply(x.data(), cached_y_.data(), x.numel());
  return cached_y_;
}

void Selu::plan_inference(InferencePlan& plan) const {
  plan.out_shape = plan.in_shape;
}

void Selu::forward_into(const InferArgs& args) const {
  selu_apply(args.x.data(), args.y.data(), args.x.numel());
}

// dx = g * selu'(x), read off the cached output (simd.h: selu_grad), so no
// exp is evaluated. Same pool fan-out as selu_apply; the kernel is a pure
// per-element function, so the result is independent of DEEPCSI_THREADS.
Tensor Selu::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!cached_y_.empty());
  DEEPCSI_CHECK(grad_out.same_shape(cached_y_));
  Tensor grad_in(grad_out.shape());
  const simd::SimdOps& ops = simd::ops();
  const float* y = cached_y_.data();
  const float* g = grad_out.data();
  float* dx = grad_in.data();
  common::parallel_for(0, grad_in.numel(), common::grain_for(4),
                       [&](std::size_t lo, std::size_t hi) {
                         ops.selu_grad(y + lo, g + lo, dx + lo, hi - lo);
                       });
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  DEEPCSI_CHECK(x.rank() >= 2);
  cached_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!cached_shape_.empty());
  return grad_out.reshaped(cached_shape_);
}

void Flatten::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank >= 2);
  plan.out_shape = {plan.in_shape.dim(0), plan.in_shape.sample_numel()};
}

void Flatten::forward_into(const InferArgs& args) const {
  // Pure reshape: same contiguous elements, new geometry.
  std::copy(args.x.data(), args.x.data() + args.x.numel(), args.y.data());
}

}  // namespace deepcsi::nn
