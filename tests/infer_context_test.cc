// The acceptance gates for the SharedModel / InferenceContext split:
//
//   1. The arena-planned const forward is bitwise identical to the legacy
//      stateful forward, for any DEEPCSI_THREADS and any batch size.
//   2. Steady-state InferenceContext::run (and the whole
//      classify_batch_into serving path above it) performs ZERO heap
//      allocations — proved by global operator new/delete replacements
//      that count every allocation in this binary.
//   3. One shared const Authenticator can be hammered by racing
//      classify_batch callers and still produce bit-identical predictions
//      (the CI TSan job additionally proves the race-freedom claim).
//   4. run(n) splits the batch by sample, and concurrent chunks never
//      share an arena region, so each row of run(n) equals run(1) of
//      that row alone under every backend and thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "nn/gemm.h"
#include "nn/infer.h"
#include "nn/quantize.h"
#include "phy/impairments.h"
#include "test_util.h"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace deepcsi {
namespace {

using tests::ThreadGuard;

dataset::InputSpec test_spec() {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  return spec;
}

nn::Sequential build_test_model(const dataset::InputSpec& spec) {
  return core::build_deepcsi_model(
      dataset::num_input_channels(spec),
      static_cast<int>(dataset::num_input_columns(spec)), phy::kNumModules,
      core::quick_model_config());
}

tensor::StaticShape sample_shape(const dataset::InputSpec& spec) {
  return {static_cast<std::size_t>(dataset::num_input_channels(spec)), 1,
          dataset::num_input_columns(spec)};
}

nn::Tensor random_input(const dataset::InputSpec& spec, std::size_t n,
                        std::uint64_t seed) {
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::Tensor x({n, c, 1, w});
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  return x;
}

std::vector<feedback::CompressedFeedbackReport> test_reports(std::size_t n) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = 6;
  std::vector<feedback::CompressedFeedbackReport> reports;
  int module = 0;
  while (reports.size() < n) {
    const dataset::Trace trace = dataset::generate_d1_trace(
        module % phy::kNumModules, 1, 0, scale, dataset::GeneratorConfig{});
    for (const dataset::Snapshot& s : trace.snapshots) {
      if (reports.size() == n) break;
      reports.push_back(s.report);
    }
    ++module;
  }
  return reports;
}

TEST(InferContextTest, ConstForwardBitIdenticalToLegacyForwardAcrossThreads) {
  ThreadGuard guard;
  const dataset::InputSpec spec = test_spec();

  for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    const nn::Tensor x = random_input(spec, batch, 42 + batch);

    // Legacy stateful forward at 1 thread is the reference.
    common::set_num_threads(1);
    nn::Sequential model = build_test_model(spec);
    const nn::Tensor reference = model.forward(x, /*training=*/false);

    const nn::SharedModel shared(std::move(model));
    for (const int threads : {1, 4}) {
      common::set_num_threads(threads);
      nn::InferenceContext ctx(shared, sample_shape(spec), batch);
      std::copy(x.data(), x.data() + x.numel(), ctx.input());
      const tensor::ConstTensorView logits = ctx.run(batch);
      ASSERT_EQ(logits.rank(), 2u);
      ASSERT_EQ(logits.dim(0), batch);
      ASSERT_EQ(logits.numel(), reference.numel());
      for (std::size_t i = 0; i < reference.numel(); ++i)
        ASSERT_EQ(logits.data()[i], reference[i])
            << "element " << i << " at " << threads << " threads, batch "
            << batch;
    }
  }
}

TEST(InferContextTest, SmallerBatchesReuseTheSamePlanBitIdentically) {
  ThreadGuard guard;
  common::set_num_threads(2);
  const dataset::InputSpec spec = test_spec();
  const std::size_t max_batch = 8;

  nn::Sequential model = build_test_model(spec);
  const nn::Tensor x = random_input(spec, 3, 7);
  const nn::Tensor reference = model.forward(x, /*training=*/false);

  const nn::SharedModel shared(std::move(model));
  nn::InferenceContext ctx(shared, sample_shape(spec), max_batch);
  std::copy(x.data(), x.data() + x.numel(), ctx.input());
  const tensor::ConstTensorView logits = ctx.run(3);  // n < max_batch
  ASSERT_EQ(logits.numel(), reference.numel());
  for (std::size_t i = 0; i < reference.numel(); ++i)
    ASSERT_EQ(logits.data()[i], reference[i]) << i;
}

TEST(InferContextTest, EveryRowOfABatchEqualsItsRowRunAlone) {
  ThreadGuard thread_guard;
  tests::BackendGuard backend_guard;
  const dataset::InputSpec spec = test_spec();
  const std::size_t max_batch = 9;

  // Calibrated, so avx2_int8 takes the quantized path.
  nn::Sequential graph = build_test_model(spec);
  nn::apply_calibration(
      graph, nn::calibrate_input_ranges(graph, random_input(spec, 32, 3)));
  const nn::SharedModel shared(std::move(graph));
  const nn::Tensor x = random_input(spec, max_batch, 19);
  const std::size_t sample = x.numel() / max_batch;

  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    for (const int threads : {1, 4}) {
      common::set_num_threads(threads);
      nn::InferenceContext ctx(shared, sample_shape(spec), max_batch);

      // Each row alone, through the n == 1 path.
      nn::Tensor alone;
      for (std::size_t r = 0; r < max_batch; ++r) {
        std::memcpy(ctx.input(), x.data() + r * sample,
                    sample * sizeof(float));
        const std::uint64_t before = nn::int8_kernel_dispatches();
        const tensor::ConstTensorView logits = ctx.run(1);
        if (backend == simd::Backend::kAvx2Int8) {
          ASSERT_GT(nn::int8_kernel_dispatches(), before);
        }
        if (alone.empty()) alone = nn::Tensor({max_batch, logits.dim(1)});
        std::memcpy(alone.data() + r * logits.dim(1), logits.data(),
                    logits.dim(1) * sizeof(float));
      }

      for (const std::size_t n :
           {std::size_t{2}, std::size_t{3}, std::size_t{7}, max_batch}) {
        std::memcpy(ctx.input(), x.data(), n * sample * sizeof(float));
        const tensor::ConstTensorView logits = ctx.run(n);
        ASSERT_EQ(logits.dim(0), n);
        const std::size_t k = logits.dim(1);
        for (std::size_t r = 0; r < n; ++r)
          ASSERT_EQ(std::memcmp(logits.data() + r * k, alone.data() + r * k,
                                k * sizeof(float)),
                    0)
              << "row " << r << " of batch " << n << ", backend "
              << simd::name(backend) << ", " << threads << " threads";
      }
    }
  }
}

TEST(InferContextTest, SteadyStateRunIsAllocationFree) {
  // One thread keeps the measurement deterministic: the only per-thread
  // state (GEMM pack scratch, feature scratch) is this thread's, and it
  // reaches its high-water mark during warm-up.
  ThreadGuard guard;
  common::set_num_threads(1);
  const dataset::InputSpec spec = test_spec();
  const std::size_t batch = 4;

  const nn::SharedModel shared(build_test_model(spec));
  nn::InferenceContext ctx(shared, sample_shape(spec), batch);
  const nn::Tensor x = random_input(spec, batch, 11);
  std::copy(x.data(), x.data() + x.numel(), ctx.input());

  for (int warm = 0; warm < 3; ++warm) ctx.run(batch);

  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 50; ++rep) ctx.run(batch);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "InferenceContext::run allocated in steady state";
}

TEST(InferContextTest, ClassifyBatchIntoIsAllocationFreeToo) {
  ThreadGuard guard;
  common::set_num_threads(1);
  const dataset::InputSpec spec = test_spec();
  const core::Authenticator auth(build_test_model(spec), spec);

  const auto reports = test_reports(12);
  std::vector<core::Authenticator::Prediction> out(reports.size());

  // Warm-up builds the pooled context and the thread-local feature
  // scratch.
  auth.classify_batch_into(reports, out);
  auth.classify_batch_into(reports, out);

  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 25; ++rep) auth.classify_batch_into(reports, out);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "classify_batch_into allocated in steady state";
}

TEST(InferContextTest, BatchesLargerThanContextAreChunkedBitIdentically) {
  const dataset::InputSpec spec = test_spec();
  const core::Authenticator auth(build_test_model(spec), spec);
  ASSERT_GT(std::size_t{150}, core::Authenticator::kContextBatch);

  const auto reports = test_reports(150);
  const auto batched = auth.classify_batch(reports);
  ASSERT_EQ(batched.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto single = auth.classify(reports[i]);
    EXPECT_EQ(batched[i].module_id, single.module_id) << i;
    EXPECT_EQ(batched[i].confidence, single.confidence) << i;
  }
}

TEST(InferContextTest, RacingClassifyBatchCallersAreBitIdentical) {
  ThreadGuard guard;
  common::set_num_threads(2);
  const dataset::InputSpec spec = test_spec();
  const core::Authenticator auth(build_test_model(spec), spec);

  const auto reports = test_reports(24);
  const auto reference = auth.classify_batch(reports);

  constexpr int kCallers = 4;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const auto got = auth.classify_batch(reports);
        for (std::size_t i = 0; i < reference.size(); ++i)
          if (got[i].module_id != reference[i].module_id ||
              got[i].confidence != reference[i].confidence)
            mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The pool grew at most one context per concurrent caller, and they are
  // reused from the freelist rather than rebuilt.
  const auto after = auth.classify_batch(reports);
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(after[i].confidence, reference[i].confidence) << i;
}

TEST(InferContextTest, ArenaSizeIsPinnedForQuickAndPaperModels) {
  // The arena of the full-width models (5 x 234 inputs, 10 classes) at
  // max_batch 64, with regions = min(64, pool threads at construction):
  //   input 64*sample + regions*(2*act + scratch) + logits 64*10
  // where sample = 5*234, act is the largest per-sample activation
  // (filters*234) and scratch is every per-sample slice, each rounded
  // up by slice_stride. fp32 convs pack their GEMM tiles from the input
  // planes and plan no scratch, so fp32 scratch is the attention maps
  // slice_stride(2*hw) + slice_stride(hw) (quick: hw = 29 after three
  // pools; paper: hw = 7 after five). Calibrated models add the int8
  // slices: u8 input planes and the oct-packed panel per conv, the
  // quantized row per dense layer. A columns slice that comes back grows
  // scratch by kw-times an activation; a region count that follows
  // max_batch again multiplies the 4-thread counts by 8-14.
  ThreadGuard guard;
  const dataset::InputSpec spec;
  const int channels = dataset::num_input_channels(spec);
  const int width = static_cast<int>(dataset::num_input_columns(spec));
  ASSERT_EQ(channels, 5);
  ASSERT_EQ(width, 234);
  struct Pin {
    int threads;
    std::size_t fp32, calibrated;
  };
  struct Case {
    const char* name;
    core::ModelConfig cfg;
    Pin pins[2];
  };
  for (const Case& c :
       {Case{"quick", core::quick_model_config(),
             {{1, 90592, 101312}, {4, 135808, 178688}}},
        Case{"paper", core::paper_model_config(),
             {{1, 135456, 193280}, {4, 315264, 546560}}}}) {
    nn::SharedModel model(
        core::build_deepcsi_model(channels, width, 10, c.cfg));
    const auto arena_at = [&](int threads) {
      common::set_num_threads(threads);
      return nn::InferenceContext(model, sample_shape(spec), 64)
          .arena_floats();
    };
    for (const Pin& pin : c.pins)
      EXPECT_EQ(arena_at(pin.threads), pin.fp32)
          << c.name << " fp32 at " << pin.threads << " thread(s)";
    nn::Sequential& graph = model.mutable_graph();
    nn::apply_calibration(
        graph, nn::calibrate_input_ranges(graph, random_input(spec, 2, 3)));
    for (const Pin& pin : c.pins)
      EXPECT_EQ(arena_at(pin.threads), pin.calibrated)
          << c.name << " calibrated at " << pin.threads << " thread(s)";
  }
}

TEST(InferContextTest, PoolResizedAfterTheBuildStaysInsideTheArena) {
  // A context carves one region per pool thread at construction. If the
  // pool grows afterwards, run(n) must still start no more chunks than
  // there are regions, or a chunk would work past the arena's act and
  // scratch slices; if it shrinks, the spare regions just go unused.
  // Either way every row stays bit-identical to that row run alone.
  ThreadGuard thread_guard;
  tests::BackendGuard backend_guard;
  const dataset::InputSpec spec = test_spec();
  const std::size_t max_batch = 9;

  nn::Sequential graph = build_test_model(spec);
  nn::apply_calibration(
      graph, nn::calibrate_input_ranges(graph, random_input(spec, 32, 5)));
  const nn::SharedModel shared(std::move(graph));
  const nn::Tensor x = random_input(spec, max_batch, 29);
  const std::size_t sample = x.numel() / max_batch;

  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    common::set_num_threads(1);
    nn::InferenceContext ctx(shared, sample_shape(spec), max_batch);
    const std::size_t arena = ctx.arena_floats();

    nn::Tensor alone;
    for (std::size_t r = 0; r < max_batch; ++r) {
      std::memcpy(ctx.input(), x.data() + r * sample, sample * sizeof(float));
      const tensor::ConstTensorView logits = ctx.run(1);
      if (alone.empty()) alone = nn::Tensor({max_batch, logits.dim(1)});
      std::memcpy(alone.data() + r * logits.dim(1), logits.data(),
                  logits.dim(1) * sizeof(float));
    }

    for (const int threads : {4, 1}) {  // grow the pool, then shrink it
      common::set_num_threads(threads);
      for (const std::size_t n : {std::size_t{2}, max_batch}) {
        std::memcpy(ctx.input(), x.data(), n * sample * sizeof(float));
        const tensor::ConstTensorView logits = ctx.run(n);
        ASSERT_EQ(logits.dim(0), n);
        const std::size_t k = logits.dim(1);
        for (std::size_t r = 0; r < n; ++r)
          ASSERT_EQ(std::memcmp(logits.data() + r * k, alone.data() + r * k,
                                k * sizeof(float)),
                    0)
              << "row " << r << " of batch " << n << ", backend "
              << simd::name(backend) << ", " << threads << " threads";
      }
      EXPECT_EQ(ctx.arena_floats(), arena) << threads << " threads";
    }
  }
}

TEST(InferContextTest, ConstModelApiSweep) {
  const dataset::InputSpec spec = test_spec();
  nn::Sequential model = build_test_model(spec);
  const std::size_t trainable = model.num_trainable();
  const std::vector<nn::Param*> mutable_params = model.params();

  const nn::Sequential& cref = model;
  EXPECT_EQ(cref.num_trainable(), trainable);
  EXPECT_EQ(cref.params().size(), mutable_params.size());
  for (std::size_t i = 0; i < mutable_params.size(); ++i)
    EXPECT_EQ(cref.params()[i], mutable_params[i]);  // same objects
  EXPECT_EQ(cref.layer(0).name(), "conv2d");
  EXPECT_EQ(cref.layer(0).num_trainable(),
            std::as_const(cref.layer(0)).params()[0]->numel() +
                std::as_const(cref.layer(0)).params()[1]->numel());
}

}  // namespace
}  // namespace deepcsi
