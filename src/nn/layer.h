// Layer interface for the from-scratch NN stack.
//
// Every layer exposes two forward paths:
//
//   * The stateful train path — forward(x, training) caches whatever the
//     backward pass needs (inputs, pool argmaxes, activations), then
//     backward() consumes it. Owned by Trainer; never safe to share.
//   * The const serve path — plan_inference() describes, for one sample,
//     every intermediate shape and scratch buffer the layer needs, and
//     forward_into() executes against pre-resolved arena slices
//     without mutating the layer. This is what SharedModel /
//     InferenceContext (nn/infer.h) build on: immutable weights, all
//     execution state in the per-thread context, zero steady-state heap
//     allocations, and outputs bitwise identical to
//     forward(x, /*training=*/false).
//
// The training loop is strictly: forward(batch, training=true) through
// all layers, loss head, backward in reverse order, optimizer step on the
// collected Params.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/view.h"

namespace deepcsi::nn {

using tensor::Tensor;

struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(Tensor::zeros_like(value)) {}
  std::size_t numel() const { return value.numel(); }
};

// Floats between consecutive copies of one arena slice: the per-sample
// count rounded up to 16 floats, so every copy starts on its own 64-byte
// cache line and vector-width boundary.
inline std::size_t slice_stride(std::size_t numel) {
  return (numel + 15) & ~std::size_t{15};
}

// One layer's slot in an inference plan. Built once per InferenceContext
// (heap use is fine there); immutable during forward_into. Plans are per
// sample: the context runs a batch one sample at a time, and each chunk
// of that work runs in its own region of the arena, with its own copy of
// every scratch slice. Plans are flat, one per top-level layer: the conv
// nested in SpatialAttention stays fp32 and needs no slice of its own.
struct InferencePlan {
  tensor::StaticShape in_shape;   // dim0 = 1: one sample
  tensor::StaticShape out_shape;  // filled by plan_inference
  // Scratch slices the layer needs, as float counts for ONE sample; the
  // context carves one copy of each per arena region (regions =
  // min(max_batch, pool threads at construction)), slice_stride(numel)
  // apart.
  std::vector<std::size_t> scratch_numel;
  // Region 0's copy of each slice (see InferArgs::scratch).
  std::vector<float*> scratch;
  // Set by InferenceContext when this layer is a Conv2d immediately
  // followed by a Selu: the conv applies the activation as a fused
  // row epilogue inside its GEMM chunks (the rows are still cache-hot)
  // and the context skips the Selu step, so the activation never
  // re-traverses the arena. The SELU kernel is elementwise and
  // position-independent, so fused output is bitwise identical to the
  // unfused two-step path.
  bool fuse_selu = false;
};

// Arguments of one const forward step. x/y are the rows being run; all
// dims but dim0 match the plan. The rows use scratch regions
// [region, region + x.dim(0)), reached through scratch(k); the context
// runs one row at a time, so that is its chunk's one region.
struct InferArgs {
  tensor::ConstTensorView x;
  tensor::TensorView y;
  const InferencePlan& plan;
  std::size_t region = 0;  // scratch region of x's first row

  // Slice k for this call's rows: x.dim(0) consecutive per-sample copies,
  // which the layer may use as one contiguous buffer.
  float* scratch(std::size_t k) const {
    return plan.scratch[k] + region * slice_stride(plan.scratch_numel[k]);
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // `training` toggles dropout-style stochastic behavior.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  // grad w.r.t. this layer's output -> grad w.r.t. its input; parameter
  // gradients are accumulated into params()[i]->grad.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Given plan.in_shape, fill out_shape / scratch_numel. Must be pure: no
  // layer state may change, so any number of contexts can be planned from
  // one shared model.
  virtual void plan_inference(InferencePlan& plan) const = 0;

  // Const forward for serving: read args.x, write args.y, using only the
  // pre-planned scratch reached through args.scratch(k). Never allocates,
  // never mutates the layer, and is bitwise identical to
  // forward(x, /*training=*/false).
  virtual void forward_into(const InferArgs& args) const = 0;

  virtual std::vector<Param*> params() { return {}; }
  virtual std::vector<const Param*> params() const { return {}; }
  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace deepcsi::nn
