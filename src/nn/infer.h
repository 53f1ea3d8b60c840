// The weights / execution-state split that makes serving concurrent:
//
//   SharedModel       — an immutable, shareable trained network. Holds the
//                       layer graph behind a shared_ptr (stable address
//                       across moves and copies); every forward run through
//                       it is const.
//   InferenceContext  — all mutable execution state for one serving lane.
//                       Built once per (model, max batch): the constructor
//                       walks the layer graph, asks every layer for its
//                       per-sample output shape and scratch needs via
//                       plan_inference, and carves input + ping-pong
//                       activations + logits + every scratch slice
//                       (attention maps, ...) out of ONE contiguous
//                       arena. Layers carrying calibrated int8 weights
//                       (nn/quantize.h) report extra byte-sized slices here
//                       — quantized inputs and the oct-packed GEMM panel —
//                       so the avx2_int8 backend stays zero-alloc too;
//                       contexts planned BEFORE calibration lack those
//                       slices and must be rebuilt.
//                       After a warm-up run, run(n) performs zero heap
//                       allocations.
//   ContextPool       — a freelist of contexts behind a mutex with an RAII
//                       Lease, so any number of threads can run forward
//                       passes on one SharedModel concurrently; contexts
//                       are built on demand and reused forever after.
//
// Execution: run(n) splits a batch by sample, not by layer. For n >= 2 it
// is ONE parallel_for with one chunk per pool thread (at most n); each
// chunk claims samples one at a time and runs the whole layer chain for
// each, and the layers' own parallel_for calls take the nested path and
// run serially — no per-layer barrier, and a sample's activations stay
// on the core that made them. For n == 1 the chain runs directly, so
// each layer still fans its kernels out over the pool and batch-1
// latency keeps the whole pool.
//
// Arena layout, with regions = min(max_batch, pool threads at
// construction):
//   [input | act A | act B | scratch slices... | logits]
//   - input: contiguous [max_batch, sample...] rows (the caller fills it);
//   - act A / act B: the ping-pong activations, each cut into `regions`
//     fixed regions, each the size of the largest per-sample activation
//     (rounded to a cache line);
//   - scratch: every slice a layer planned for one sample, `regions`
//     copies of it; a layer finds its region's copy through the region
//     index in InferArgs;
//   - logits: the last layer writes each sample's row into a contiguous
//     [max_batch, K] slice, so run() returns one [n, K] view.
// Chunk c works only in region c of every buffer, so a chunk at layer 5
// never overwrites another chunk still at layer 1, and it reuses the
// same (cache-hot) region for every sample it claims; run(1) uses
// region 0. run(n) starts min(n, regions, pool threads) chunks, so a
// pool resized after the build never indexes past the arena: a grown
// pool runs with fewer chunks than threads, a shrunk one leaves regions
// idle. Neither changes the output, since a sample's logits do not
// depend on its region. Rebuild the context to follow a new pool size.
//
// Determinism: forward_into reuses the exact kernels of the stateful
// train-path forward (same parallel_for chunking, same accumulation
// order), and a sample's output does not depend on the rows beside it,
// so context output is bitwise identical to
// Sequential::forward(x, /*training=*/false) for any DEEPCSI_THREADS and
// any batch size or chunking.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/model.h"
#include "tensor/view.h"

namespace deepcsi::nn {

class SharedModel {
 public:
  // Takes ownership of a trained graph and freezes it behind const access.
  explicit SharedModel(Sequential model)
      : model_(std::make_shared<Sequential>(std::move(model))) {}

  // Copies share the same underlying graph (and weights).
  SharedModel(const SharedModel&) = default;
  SharedModel& operator=(const SharedModel&) = default;
  SharedModel(SharedModel&&) = default;
  SharedModel& operator=(SharedModel&&) = default;

  const Sequential& graph() const { return *model_; }
  std::shared_ptr<const Sequential> graph_ptr() const { return model_; }
  std::size_t num_trainable() const { return graph().num_trainable(); }

  // Escape hatch for weight loading and the stateful train/eval path.
  // Mutating the graph while contexts built from this model are running
  // is a race: do it before serving starts or after it drains.
  Sequential& mutable_graph() { return *model_; }

 private:
  std::shared_ptr<Sequential> model_;
};

class InferenceContext {
 public:
  // Plans the whole network for inputs of per-sample shape `sample_shape`
  // (e.g. {C, 1, W}) at batches up to `max_batch`, and allocates the
  // arena with one region per pool thread (at most max_batch). Keeps the
  // graph alive via the model's shared_ptr.
  InferenceContext(const SharedModel& model, tensor::StaticShape sample_shape,
                   std::size_t max_batch);

  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  // Caller-writable input slice: room for max_batch() * sample_numel()
  // floats, row-major by sample.
  float* input() { return input_; }
  std::size_t sample_numel() const { return in_shape_.sample_numel(); }
  std::size_t max_batch() const { return max_batch_; }
  std::size_t arena_floats() const { return arena_.size(); }

  // Const forward over the first n rows of input(). Returns the final
  // activation (logits) view, [n, K], valid until the next run. Zero heap
  // allocations in steady state.
  tensor::ConstTensorView run(std::size_t n);

 private:
  // The whole layer chain for row s, in the given arena region.
  void run_sample(std::size_t s, std::size_t region);

  std::shared_ptr<const Sequential> graph_;
  std::size_t max_batch_;
  std::size_t regions_;  // act/scratch regions: min(max_batch, threads)
  tensor::StaticShape in_shape_;   // [1, sample...]
  tensor::StaticShape out_shape_;  // [1, K]
  std::vector<InferencePlan> steps_;
  // Steps absorbed into their predecessor (a Selu fused into the
  // preceding Conv2d's GEMM epilogue); run() skips them.
  std::vector<unsigned char> fused_away_;
  std::size_t last_step_ = 0;   // the step that writes logits_
  std::size_t act_stride_ = 0;  // floats per region of act_[i]
  std::vector<float> arena_;
  float* input_ = nullptr;
  float* act_[2] = {nullptr, nullptr};  // ping-pong activation slices
  float* logits_ = nullptr;
};

class ContextPool {
 public:
  ContextPool(const SharedModel& model, tensor::StaticShape sample_shape,
              std::size_t max_batch);

  class Lease {
   public:
    Lease(Lease&& o) noexcept : pool_(o.pool_), ctx_(o.ctx_) {
      o.pool_ = nullptr;
      o.ctx_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(ctx_);
    }

    InferenceContext& operator*() const { return *ctx_; }
    InferenceContext* operator->() const { return ctx_; }

   private:
    friend class ContextPool;
    Lease(ContextPool* pool, InferenceContext* ctx) : pool_(pool), ctx_(ctx) {}
    ContextPool* pool_;
    InferenceContext* ctx_;
  };

  // Hands out a free context, building a new one only when every existing
  // context is leased (cold path). Steady-state acquire/release is a
  // mutex-guarded freelist pop/push — no heap traffic.
  Lease acquire();

  std::size_t contexts_built() const;
  // Bytes held by the arenas of every context built so far.
  std::size_t arena_bytes() const;
  std::size_t max_batch() const { return max_batch_; }

 private:
  friend class Lease;
  void release(InferenceContext* ctx);

  SharedModel model_;  // shares the graph, keeps it alive
  tensor::StaticShape sample_shape_;
  std::size_t max_batch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<InferenceContext>> all_;
  std::vector<InferenceContext*> free_;
};

}  // namespace deepcsi::nn
