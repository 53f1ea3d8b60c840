// Thread pool and deterministic parallel_for: index coverage, exception
// propagation, and bit-identical NN layer results — and whole training
// steps — across thread counts.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "core/model.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using nn::Tensor;
using tests::available_backends;
using tests::BackendGuard;
using tests::ThreadGuard;

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    common::set_num_threads(threads);
    for (const std::size_t grain : {1ul, 3ul, 7ul, 100ul, 1000ul}) {
      std::vector<int> hits(257, 0);  // chunks write disjoint slots
      common::parallel_for(0, hits.size(), grain,
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                           });
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i << " grain " << grain
                              << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, SubrangeAndEmptyRange) {
  std::vector<int> hits(20, 0);
  common::parallel_for(5, 15, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], i >= 5 && i < 15 ? 1 : 0);
  common::parallel_for(7, 7, 1, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelForTest, PropagatesExceptions) {
  ThreadGuard guard;
  common::set_num_threads(4);
  EXPECT_THROW(
      common::parallel_for(0, 100, 1,
                           [](std::size_t lo, std::size_t) {
                             if (lo == 42) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  // Single-chunk ranges take the serial fallback; a throw there must not
  // leave the thread marked as inside a parallel region.
  EXPECT_THROW(common::parallel_for(0, 10, 100,
                                    [](std::size_t, std::size_t) {
                                      throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  EXPECT_NO_THROW(common::set_num_threads(2));  // throws if the flag leaked
  common::set_num_threads(4);
  // The pool must still be usable afterwards.
  int sum = 0;
  std::vector<int> hits(10, 0);
  common::parallel_for(0, 10, 2, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i] = 1;
  });
  for (int h : hits) sum += h;
  EXPECT_EQ(sum, 10);
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  ThreadGuard guard;
  common::set_num_threads(4);
  std::vector<int> hits(16 * 8, 0);
  common::parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      common::parallel_for(0, 8, 2, [&](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) ++hits[i * 8 + j];
      });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, SetNumThreadsRoundTrip) {
  ThreadGuard guard;
  common::set_num_threads(3);
  EXPECT_EQ(common::num_threads(), 3);
  common::set_num_threads(1);
  EXPECT_EQ(common::num_threads(), 1);
  EXPECT_THROW(common::set_num_threads(0), std::logic_error);
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = dist(rng);
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

// Runs forward + backward at a given thread count and returns
// (out, grad_in, grad_w, grad_b).
template <typename LayerT>
std::vector<Tensor> run_layer(LayerT& layer, const Tensor& x,
                              const Tensor& grad_out, int threads) {
  common::set_num_threads(threads);
  for (nn::Param* p : layer.params()) p->grad.zero();
  std::vector<Tensor> out;
  out.push_back(layer.forward(x, /*training=*/false));
  out.push_back(layer.backward(grad_out));
  for (nn::Param* p : layer.params()) out.push_back(p->grad);
  return out;
}

TEST(ParallelDeterminismTest, DenseBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  std::mt19937_64 rng(7);
  nn::Dense dense(37, 19, rng);
  const Tensor x = random_tensor({5, 37}, 11);
  const Tensor g = random_tensor({5, 19}, 13);
  const auto r1 = run_layer(dense, x, g, 1);
  const auto r4 = run_layer(dense, x, g, 4);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    expect_bitwise_equal(r1[i], r4[i]);
}

TEST(ParallelDeterminismTest, Conv2dBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  std::mt19937_64 rng(21);
  nn::Conv2d conv(3, 8, 5, rng);
  const Tensor x = random_tensor({4, 3, 1, 33}, 23);
  const Tensor g = random_tensor({4, 8, 1, 33}, 29);
  const auto r1 = run_layer(conv, x, g, 1);
  const auto r4 = run_layer(conv, x, g, 4);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    expect_bitwise_equal(r1[i], r4[i]);
}

TEST(ParallelDeterminismTest, SeluAndMaxPoolBitIdenticalAcrossThreadCounts) {
  // Large enough that selu_grad and the pool fast path split into
  // several chunks.
  ThreadGuard guard;
  BackendGuard backend_guard;
  const Tensor x = random_tensor({8, 16, 1, 301}, 31);
  const Tensor g_selu = random_tensor({8, 16, 1, 301}, 37);
  const Tensor g_pool = random_tensor({8, 16, 1, 150}, 41);
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    nn::Selu selu;
    nn::MaxPool2d pool;
    const auto s1 = run_layer(selu, x, g_selu, 1);
    const auto s4 = run_layer(selu, x, g_selu, 4);
    const auto p1 = run_layer(pool, x, g_pool, 1);
    const auto p4 = run_layer(pool, x, g_pool, 4);
    ASSERT_EQ(s1.size(), 2u);
    ASSERT_EQ(p1.size(), 2u);
    for (std::size_t i = 0; i < s1.size(); ++i) {
      expect_bitwise_equal(s1[i], s4[i]);
      expect_bitwise_equal(p1[i], p4[i]);
    }
  }
}

// One full training step of the quick model — forward, loss, backward and
// Adam — from a fresh model at the given thread count; returns the
// updated parameters.
std::vector<Tensor> quick_model_train_step(int threads) {
  common::set_num_threads(threads);
  const int channels = 3, width = 117, classes = 10;
  nn::Sequential model = core::build_deepcsi_model(
      channels, width, classes, core::quick_model_config());
  const Tensor x = random_tensor({16, channels, 1, width}, 43);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = static_cast<int>((7 * i + 3) % classes);
  nn::Adam adam(model.params(), {.lr = 1e-3f});
  model.zero_grad();
  const Tensor logits = model.forward(x, /*training=*/true);
  model.backward(nn::softmax_cross_entropy(logits, y).grad_logits);
  adam.step();
  std::vector<Tensor> out;
  for (nn::Param* p : model.params()) out.push_back(p->value);
  return out;
}

TEST(ParallelDeterminismTest, QuickModelTrainStepBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  BackendGuard backend_guard;
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    const auto w1 = quick_model_train_step(1);
    const auto w4 = quick_model_train_step(4);
    ASSERT_EQ(w1.size(), w4.size());
    for (std::size_t i = 0; i < w1.size(); ++i) {
      SCOPED_TRACE(simd::name(backend));
      expect_bitwise_equal(w1[i], w4[i]);
    }
  }
}

TEST(ParallelDeterminismTest, GrainForIsSane) {
  EXPECT_GE(common::grain_for(0), 1u);
  EXPECT_EQ(common::grain_for(1, 64), 64u);
  EXPECT_EQ(common::grain_for(1 << 20, 1 << 15), 1u);
}

}  // namespace
}  // namespace deepcsi
