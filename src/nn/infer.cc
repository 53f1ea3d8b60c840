#include "nn/infer.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace deepcsi::nn {

InferenceContext::InferenceContext(const SharedModel& model,
                                   tensor::StaticShape sample_shape,
                                   std::size_t max_batch)
    : graph_(model.graph_ptr()),
      max_batch_(max_batch),
      regions_(std::min(max_batch,
                        static_cast<std::size_t>(common::num_threads()))) {
  DEEPCSI_CHECK(max_batch_ >= 1);
  DEEPCSI_CHECK(sample_shape.rank >= 1 &&
                sample_shape.rank < tensor::kMaxViewRank);
  const std::size_t n_layers = graph_->num_layers();
  DEEPCSI_CHECK(n_layers >= 1);

  // One-sample input shape: [1, sample...].
  in_shape_.rank = sample_shape.rank + 1;
  in_shape_.dims[0] = 1;
  for (std::size_t i = 0; i < sample_shape.rank; ++i)
    in_shape_.dims[i + 1] = sample_shape.dims[i];

  // One walk over the layer graph: every intermediate shape and scratch
  // requirement is known before a single float is allocated.
  steps_.reserve(n_layers);
  tensor::StaticShape shape = in_shape_;
  std::size_t max_activation = 0;
  std::size_t total_scratch = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    InferencePlan plan;
    plan.in_shape = shape;
    graph_->layer(i).plan_inference(plan);
    shape = plan.out_shape;
    if (shape.numel() > max_activation) max_activation = shape.numel();
    for (std::size_t numel : plan.scratch_numel)
      total_scratch += regions_ * slice_stride(numel);
    steps_.push_back(std::move(plan));
  }
  out_shape_ = shape;

  // Fuse conv -> selu pairs: the conv applies SELU as its GEMM row
  // epilogue (cache-hot, one arena traversal) and the Selu step is
  // skipped. The SELU kernel is a position-independent elementwise
  // function, so the fused activations are bitwise identical to the
  // two-step path — run() output still matches the stateful
  // Sequential::forward exactly.
  fused_away_.assign(n_layers, 0);
  for (std::size_t i = 0; i + 1 < n_layers; ++i) {
    if (graph_->layer(i).name() == "conv2d" &&
        graph_->layer(i + 1).name() == "selu") {
      steps_[i].fuse_selu = true;
      fused_away_[i + 1] = 1;
    }
  }
  last_step_ = n_layers - 1;
  while (fused_away_[last_step_]) --last_step_;

  // Arena layout:
  //   [input | act A | act B | per-layer scratch... | logits]
  // input and logits are contiguous [max_batch, ...] rows; act A/B and
  // every scratch slice hold regions_ regions, one per chunk run() can
  // start.
  const std::size_t input_floats = slice_stride(max_batch_ * sample_numel());
  act_stride_ = slice_stride(max_activation);
  const std::size_t act_floats = regions_ * act_stride_;
  const std::size_t logits_floats =
      slice_stride(max_batch_ * out_shape_.numel());
  arena_.assign(input_floats + 2 * act_floats + total_scratch + logits_floats,
                0.0f);
  input_ = arena_.data();
  act_[0] = input_ + input_floats;
  act_[1] = act_[0] + act_floats;
  std::size_t offset = input_floats + 2 * act_floats;
  // Slice by slice, each slice holding one copy per region,
  // slice_stride(numel) apart.
  for (InferencePlan& plan : steps_)
    for (std::size_t numel : plan.scratch_numel) {
      plan.scratch.push_back(arena_.data() + offset);
      offset += regions_ * slice_stride(numel);
    }
  logits_ = arena_.data() + offset;
  DEEPCSI_CHECK(offset + logits_floats == arena_.size());
}

void InferenceContext::run_sample(std::size_t s, std::size_t region) {
  tensor::ConstTensorView x(input_ + s * sample_numel(), in_shape_);
  std::size_t slot = 0;
  for (std::size_t i = 0; i <= last_step_; ++i) {
    if (fused_away_[i]) continue;  // selu applied by the previous conv
    const InferencePlan& plan = steps_[i];
    float* out = i == last_step_ ? logits_ + s * out_shape_.numel()
                                 : act_[slot] + region * act_stride_;
    const tensor::TensorView y(out, plan.out_shape);
    graph_->layer(i).forward_into({x, y, plan, region});
    x = tensor::ConstTensorView(y.data(), y.shape());
    slot ^= 1;
  }
}

tensor::ConstTensorView InferenceContext::run(std::size_t n) {
  DEEPCSI_CHECK(n >= 1 && n <= max_batch_);
  if (n == 1) {
    // Each layer fans its own kernels out over the pool.
    run_sample(0, 0);
  } else {
    // One pool job per batch, one chunk per pool thread. A chunk works in
    // its own region and claims samples one at a time until the batch is
    // drained: the load balances across threads, and each chunk's
    // activations and scratch stay hot in its core's cache from one
    // sample to the next. The layers' nested parallel_for calls run
    // serially. The pool may have grown since the arena was carved, so
    // the chunk count is clamped to the regions it holds as well.
    const std::size_t chunks = std::min(
        {n, regions_, static_cast<std::size_t>(common::num_threads())});
    std::atomic<std::size_t> next{0};
    common::parallel_for(0, chunks, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t region = lo; region < hi; ++region)
        for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
             s < n; s = next.fetch_add(1, std::memory_order_relaxed))
          run_sample(s, region);
    });
  }
  return tensor::ConstTensorView(logits_, out_shape_.with_dim0(n));
}

ContextPool::ContextPool(const SharedModel& model,
                         tensor::StaticShape sample_shape,
                         std::size_t max_batch)
    : model_(model), sample_shape_(sample_shape), max_batch_(max_batch) {
  DEEPCSI_CHECK(max_batch_ >= 1);
}

ContextPool::Lease ContextPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      InferenceContext* ctx = free_.back();
      free_.pop_back();
      return Lease(this, ctx);
    }
  }
  // Cold path: plan and allocate the arena OUTSIDE the lock, so N lanes
  // warming up concurrently build their contexts in parallel instead of
  // serializing a multi-megabyte zero-fill behind a freelist mutex.
  auto built =
      std::make_unique<InferenceContext>(model_, sample_shape_, max_batch_);
  InferenceContext* ctx = built.get();
  std::lock_guard<std::mutex> lock(mu_);
  all_.push_back(std::move(built));
  // Pre-size the freelist so release() never allocates.
  free_.reserve(all_.size());
  return Lease(this, ctx);
}

void ContextPool::release(InferenceContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ctx);
}

std::size_t ContextPool::contexts_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_.size();
}

std::size_t ContextPool::arena_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t floats = 0;
  for (const auto& ctx : all_) floats += ctx->arena_floats();
  return floats * sizeof(float);
}

}  // namespace deepcsi::nn
