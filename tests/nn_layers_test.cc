// Forward-pass correctness of each NN layer against hand-computed or
// brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "nn/simd.h"
#include "test_util.h"

namespace deepcsi::nn {
namespace {

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  std::mt19937_64 rng(1);
  Conv2d conv(1, 1, 3, rng);
  // Set kernel to [0, 1, 0] with zero bias -> identity under 'same' pad.
  conv.params()[0]->value.fill(0.0f);
  conv.params()[0]->value[1] = 1.0f;
  conv.params()[1]->value.zero();

  Tensor x({1, 1, 1, 6});
  for (std::size_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x, false);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dTest, SamePaddingZerosOutsideBorders) {
  std::mt19937_64 rng(1);
  Conv2d conv(1, 1, 3, rng);
  // Kernel [1, 0, 0]: shifts input right; first output sees zero padding.
  conv.params()[0]->value.fill(0.0f);
  conv.params()[0]->value[0] = 1.0f;
  conv.params()[1]->value.zero();
  Tensor x({1, 1, 1, 4});
  for (std::size_t i = 0; i < 4; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);  // pad
  EXPECT_FLOAT_EQ(y[1], 1.0f);
  EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(Conv2dTest, BruteForceReference) {
  std::mt19937_64 rng(3);
  const std::size_t ci = 3, co = 4, kw = 5, n = 2, w = 11;
  Conv2d conv(ci, co, kw, rng);
  Tensor x({n, ci, 1, w});
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  const Tensor y = conv.forward(x, false);

  const Tensor& wt = conv.params()[0]->value;
  const Tensor& bs = conv.params()[1]->value;
  const std::ptrdiff_t pad = (kw - 1) / 2;
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t o = 0; o < co; ++o)
      for (std::size_t p = 0; p < w; ++p) {
        float acc = bs[o];
        for (std::size_t c = 0; c < ci; ++c)
          for (std::size_t j = 0; j < kw; ++j) {
            const std::ptrdiff_t src =
                static_cast<std::ptrdiff_t>(p) + static_cast<std::ptrdiff_t>(j) - pad;
            if (src < 0 || src >= static_cast<std::ptrdiff_t>(w)) continue;
            acc += wt[(o * ci + c) * kw + j] *
                   x.at4(b, c, 0, static_cast<std::size_t>(src));
          }
        EXPECT_NEAR(y.at4(b, o, 0, p), acc, 1e-4f);
      }
}

// grad_W[o][c][0][j] = sum_n sum_w g[n][o][0][w] * x[n][c][0][w+j-pw] in
// double, zero padding outside the row.
std::vector<double> conv_weight_grad_reference(const Tensor& x, const Tensor& g,
                                               std::size_t co, std::size_t kw) {
  const std::size_t n = x.dim(0), ci = x.dim(1), ww = x.dim(3);
  const std::ptrdiff_t pw = static_cast<std::ptrdiff_t>(kw - 1) / 2;
  std::vector<double> ref(co * ci * kw, 0.0);
  for (std::size_t o = 0; o < co; ++o)
    for (std::size_t c = 0; c < ci; ++c)
      for (std::size_t j = 0; j < kw; ++j) {
        double acc = 0.0;
        for (std::size_t b = 0; b < n; ++b)
          for (std::size_t w = 0; w < ww; ++w) {
            const std::ptrdiff_t ws = static_cast<std::ptrdiff_t>(w + j) - pw;
            if (ws < 0 || ws >= static_cast<std::ptrdiff_t>(ww)) continue;
            acc += static_cast<double>(g.at4(b, o, 0, w)) *
                   x.at4(b, c, 0, static_cast<std::size_t>(ws));
          }
        ref[(o * ci + c) * kw + j] = acc;
      }
  return ref;
}

TEST(Conv2dTest, WeightGradientMatchesDoubleReference) {
  // A (1, 5) kernel under every backend. W = 71 is not a multiple of 8
  // (masked GEMM tails) and spans two k-tiles; Cin*kw = 35 is not a
  // multiple of 4 (the transpose's scalar edge) and spans two column
  // blocks. A second backward without zero_grad must add to the first.
  tests::BackendGuard guard;
  const std::size_t n = 3, ci = 7, co = 5, kw = 5, ww = 71;
  std::mt19937_64 rng(18);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Tensor x({n, ci, 1, ww});
  Tensor g({n, co, 1, ww});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] = dist(rng);
  const std::vector<double> ref = conv_weight_grad_reference(x, g, co, kw);
  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    Conv2d conv(ci, co, kw, rng);
    conv.forward(x, /*training=*/true);
    conv.backward(g);
    const Tensor once = conv.params()[0]->grad;
    conv.forward(x, /*training=*/true);
    conv.backward(g);
    const Tensor& twice = conv.params()[0]->grad;
    ASSERT_EQ(once.numel(), ref.size());
    for (std::size_t e = 0; e < ref.size(); ++e) {
      EXPECT_NEAR(once[e], ref[e], 1e-4 * (1.0 + std::abs(ref[e])))
          << simd::name(backend) << " e=" << e;
      EXPECT_NEAR(twice[e], 2.0 * ref[e], 2e-4 * (1.0 + std::abs(ref[e])))
          << simd::name(backend) << " e=" << e;
    }
  }
}

// im2col by its definition, decoding every row index with divisions:
// row (c, j) = plane c shifted by j - pw, zero outside.
std::vector<float> reference_im2col(const float* x, std::size_t n,
                                    std::size_t ci, std::size_t ww,
                                    std::size_t kw) {
  const std::size_t k = ci * kw;
  const std::ptrdiff_t pw = static_cast<std::ptrdiff_t>(kw - 1) / 2;
  std::vector<float> cols(n * k * ww);
  for (std::size_t r = 0; r < n * k; ++r) {
    const std::size_t b = r / k, c = (r % k) / kw, j = r % kw;
    for (std::size_t p = 0; p < ww; ++p) {
      const std::ptrdiff_t ws = static_cast<std::ptrdiff_t>(p + j) - pw;
      const bool inside = ws >= 0 && ws < static_cast<std::ptrdiff_t>(ww);
      cols[r * ww + p] =
          inside ? x[(b * ci + c) * ww + static_cast<std::size_t>(ws)] : 0.0f;
    }
  }
  return cols;
}

TEST(Conv2dTest, PlanePackedForwardMatchesIm2colGemmBitForBit) {
  // Both fp32 forward paths pack the GEMM's B tiles straight from the
  // input planes (conv_f32_batched). They must reproduce, bit for bit, the
  // route they replaced: an explicit im2col matrix times the weights
  // through SimdOps::gemm_tile, every row seeded with its bias, then the
  // fused SELU epilogue when planned — under every backend, at 1 and 4
  // threads. Geometries: every (kw, ww) of the grid below, ww < kw
  // included; Cin, Cout and the batch rotate through their lists. Inputs
  // are sized exactly, so the sanitizer legs catch a packer overread.
  // nn::im2row (the transposed columns of the weight gradient) is pinned
  // to the same definition.
  tests::ThreadGuard thread_guard;
  tests::BackendGuard backend_guard;
  const std::size_t kCin[] = {1, 2, 5, 32}, kCout[] = {1, 3, 32, 33};
  std::size_t g = 0;
  for (const std::size_t kw : {1, 3, 5, 7})
    for (const std::size_t ww : {1, 2, 7, 29, 117, 234}) {
      const std::size_t ci = kCin[g % 4], co = kCout[(g / 4) % 4];
      const std::size_t k = ci * kw;
      // Batch 7 on alternate blocks of 8, unless that GEMM is large.
      const std::size_t n = (g / 8) % 2 == 1 && k * ww * co < 4000000 ? 7 : 1;
      ++g;
      std::mt19937_64 rng(1000 + g);
      std::normal_distribution<float> dist(0.0f, 1.0f);
      std::vector<float> x(n * ci * ww);
      for (float& v : x) v = dist(rng);
      const std::vector<float> cols = reference_im2col(x.data(), n, ci, ww, kw);
      const std::string where = "kw=" + std::to_string(kw) +
                                " ww=" + std::to_string(ww) +
                                " ci=" + std::to_string(ci) +
                                " co=" + std::to_string(co) +
                                " n=" + std::to_string(n);
      {
        std::vector<float> rows(cols.size());
        for (std::size_t b = 0; b < n; ++b)
          for (std::size_t q = 0; q < k; ++q)
            for (std::size_t p = 0; p < ww; ++p)
              rows[(b * ww + p) * k + q] = cols[(b * k + q) * ww + p];
        std::vector<float> got(cols.size());
        im2row({ci, ww, kw, (kw - 1) / 2}, n, x.data(), got.data());
        ASSERT_EQ(std::memcmp(got.data(), rows.data(),
                              rows.size() * sizeof(float)),
                  0)
            << "im2row " << where;
      }

      Conv2d conv(ci, co, kw, rng);
      Tensor& bias = conv.params()[1]->value;
      for (std::size_t o = 0; o < co; ++o) bias[o] = dist(rng);
      Tensor x_t({n, ci, 1, ww});
      std::copy(x.begin(), x.end(), x_t.data());
      InferencePlan plan;
      plan.in_shape = {1, ci, 1, ww};
      conv.plan_inference(plan);
      ASSERT_TRUE(plan.scratch_numel.empty()) << where;

      for (const simd::Backend backend : tests::available_backends()) {
        ASSERT_TRUE(simd::set_active(backend));
        const simd::SimdOps& ops = simd::ops();
        std::vector<float> ref(n * co * ww), ref_selu;
        for (std::size_t b = 0; b < n; ++b) {
          float* c_b = ref.data() + b * co * ww;
          for (std::size_t o = 0; o < co; ++o)
            std::fill(c_b + o * ww, c_b + (o + 1) * ww, bias[o]);
          ops.gemm_tile(co, ww, 0, k, conv.params()[0]->value.data(), k, 1,
                        cols.data() + b * k * ww, ww, c_b, ww);
        }
        ref_selu = ref;
        ops.selu(ref_selu.data(), ref_selu.data(), ref_selu.size());

        for (const int threads : {1, 4}) {
          common::set_num_threads(threads);
          const std::string ctx = where + " threads=" +
                                  std::to_string(threads) + " " +
                                  simd::name(backend);
          const Tensor y = conv.forward(x_t, /*training=*/threads == 4);
          ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "forward " << ctx;
          for (const bool fuse : {false, true}) {
            plan.fuse_selu = fuse;
            std::vector<float> out(ref.size());
            conv.forward_into(
                {tensor::ConstTensorView(x.data(), {n, ci, 1, ww}),
                 tensor::TensorView(out.data(), {n, co, 1, ww}), plan});
            const std::vector<float>& want = fuse ? ref_selu : ref;
            ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << "forward_into fuse=" << fuse << " " << ctx;
          }
        }
      }
    }
}

TEST(Conv2dTest, RejectsEvenKernels) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(Conv2d(1, 1, 4, rng), std::logic_error);
}

TEST(Conv2dTest, RejectsInputHeightOtherThanOne) {
  // The conv runs along W over height-1 planes only: any other height is
  // refused by the training forward and by inference planning alike.
  std::mt19937_64 rng(1);
  Conv2d conv(2, 3, 3, rng);
  for (const std::size_t hh : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_THROW(conv.forward(Tensor({1, 2, hh, 5}), false), std::logic_error)
        << "hh=" << hh;
    InferencePlan plan;
    plan.in_shape = {1, 2, hh, 5};
    EXPECT_THROW(conv.plan_inference(plan), std::logic_error) << "hh=" << hh;
  }
  InferencePlan plan;
  plan.in_shape = {1, 2, 1, 5};
  conv.plan_inference(plan);
  EXPECT_EQ(plan.out_shape.dim(1), 3u);
  EXPECT_EQ(plan.out_shape.dim(2), 1u);
}

TEST(Conv2dTest, RejectsChannelMismatch) {
  std::mt19937_64 rng(1);
  Conv2d conv(2, 1, 3, rng);
  Tensor x({1, 3, 1, 4});
  EXPECT_THROW(conv.forward(x, false), std::logic_error);
}

TEST(DenseTest, MatchesMatrixVectorProduct) {
  std::mt19937_64 rng(5);
  Dense dense(4, 3, rng);
  Tensor x({2, 4});
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  const Tensor y = dense.forward(x, false);
  const Tensor& wt = dense.params()[0]->value;
  const Tensor& bs = dense.params()[1]->value;
  for (std::size_t n = 0; n < 2; ++n)
    for (std::size_t o = 0; o < 3; ++o) {
      float acc = bs[o];
      for (std::size_t i = 0; i < 4; ++i) acc += wt[o * 4 + i] * x[n * 4 + i];
      EXPECT_NEAR(y[n * 3 + o], acc, 1e-5f);
    }
}

TEST(SeluTest, KnownValues) {
  Selu selu;
  Tensor x({3});
  x[0] = 1.0f;
  x[1] = 0.0f;
  x[2] = -1.0f;
  const Tensor y = selu.forward(x, false);
  EXPECT_NEAR(y[0], kSeluLambda, 1e-6f);
  EXPECT_NEAR(y[1], 0.0f, 1e-6f);
  EXPECT_NEAR(y[2], kSeluLambda * kSeluAlpha * (std::exp(-1.0f) - 1.0f), 1e-6f);
}

TEST(SeluTest, SelfNormalizingFixedPointStatistics) {
  // SELU maps N(0,1) inputs to approximately zero-mean unit-variance
  // outputs — the property the initialization relies on.
  std::mt19937_64 rng(11);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Tensor x({100000});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  Selu selu;
  const Tensor y = selu.forward(x, false);
  double mean = y.sum() / static_cast<double>(y.numel());
  double var = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    var += (y[i] - mean) * (y[i] - mean);
  var /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(MaxPoolTest, PicksMaximaAndFloorsOddTails) {
  MaxPool2d pool;
  Tensor x({1, 1, 1, 5});
  const float vals[5] = {3, 1, 4, 1, 5};
  for (std::size_t i = 0; i < 5; ++i) x[i] = vals[i];
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.dim(3), 2u);  // element 5 (odd tail) dropped
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool;
  Tensor x({1, 1, 1, 4});
  x[0] = 1;
  x[1] = 9;
  x[2] = 7;
  x[3] = 2;
  pool.forward(x, true);
  Tensor g({1, 1, 1, 2});
  g[0] = 5;
  g[1] = 11;
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  EXPECT_FLOAT_EQ(gx[2], 11.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(MaxPoolTest, FloorOnlyWindowKeepsItsGradient) {
  // A window with no value above the -3.4e38 floor (all NaN, or -inf)
  // must route its gradient to its own first element, never to flat
  // index 0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  tests::BackendGuard guard;
  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    MaxPool2d pool;
    Tensor x({2, 1, 1, 4});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
    for (std::size_t j = 0; j < 2; ++j) {
      x.at4(1, 0, 0, j) = nan;       // sample 1, window 0: all NaN
      x.at4(1, 0, 0, 2 + j) = -inf;  // sample 1, window 1: all -inf
    }
    pool.forward(x, /*training=*/true);
    Tensor g({2, 1, 1, 2});
    for (std::size_t i = 0; i < g.numel(); ++i) g[i] = 10.0f * (i + 1);
    const Tensor gx = pool.backward(g);
    // Sample 0 is increasing: each window's last element wins.
    EXPECT_EQ(gx.at4(0, 0, 0, 0), 0.0f) << simd::name(backend);
    EXPECT_EQ(gx.at4(0, 0, 0, 1), 10.0f) << simd::name(backend);
    EXPECT_EQ(gx.at4(0, 0, 0, 3), 20.0f) << simd::name(backend);
    EXPECT_EQ(gx.at4(1, 0, 0, 0), 30.0f) << simd::name(backend);
    EXPECT_EQ(gx.at4(1, 0, 0, 2), 40.0f) << simd::name(backend);
    EXPECT_EQ(gx.sum(), 100.0) << simd::name(backend);
  }
}

TEST(MaxPoolTest, FastPathArgmaxFollowsTheGenericRule) {
  // The pool derives its argmax with the floor rule: the second element
  // wins only when strictly greater than max(first, -3.4e38). Ties, NaN
  // on either side and values below the floor all keep the first element.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pairs[][2] = {{1, 2},         {2, 1},
                            {3, 3},         {nan, 1},
                            {1, nan},       {nan, nan},
                            {-inf, -inf},   {-inf, 0},
                            {-3.402e38f, -3.401e38f},
                            {0.0f, -0.0f},  {-0.0f, 0.0f},
                            {-1, -2},       {5, inf}};
  const std::size_t np = std::size(pairs);
  tests::BackendGuard guard;
  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    MaxPool2d pool;
    Tensor x({1, 1, 1, 2 * np});
    for (std::size_t p = 0; p < np; ++p) {
      x[2 * p] = pairs[p][0];
      x[2 * p + 1] = pairs[p][1];
    }
    pool.forward(x, /*training=*/true);
    Tensor g({1, 1, 1, np});
    g.fill(1.0f);
    const Tensor gx = pool.backward(g);
    for (std::size_t p = 0; p < np; ++p) {
      float best = -3.4e38f;
      std::size_t want = 0;
      if (pairs[p][0] > best) best = pairs[p][0];
      if (pairs[p][1] > best) want = 1;
      EXPECT_EQ(gx[2 * p + want], 1.0f)
          << simd::name(backend) << " pair " << p;
      EXPECT_EQ(gx[2 * p + 1 - want], 0.0f)
          << simd::name(backend) << " pair " << p;
    }
  }
}

TEST(AlphaDropoutTest, EvalModeIsIdentity) {
  AlphaDropout drop(0.5f, 1);
  Tensor x({100});
  for (std::size_t i = 0; i < 100; ++i) x[i] = static_cast<float>(i) * 0.1f;
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(AlphaDropoutTest, PreservesMeanAndVarianceApproximately) {
  AlphaDropout drop(0.3f, 7);
  std::mt19937_64 rng(13);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Tensor x({200000});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  const Tensor y = drop.forward(x, /*training=*/true);
  const double mean = y.sum() / static_cast<double>(y.numel());
  double var = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    var += (y[i] - mean) * (y[i] - mean);
  var /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(AlphaDropoutTest, DropsExpectedFraction) {
  // With constant input, outputs take exactly two values: a + b for kept
  // units and a*alpha' + b for dropped ones.
  AlphaDropout drop(0.5f, 3);
  Tensor x({10000});
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  const float alpha_p = -kSeluLambda * kSeluAlpha;
  const float keep = 0.5f;
  const float a =
      1.0f / std::sqrt(keep * (1.0f + (1.0f - keep) * alpha_p * alpha_p));
  const float b = -a * (1.0f - keep) * alpha_p;
  const float kept_value = a * 1.0f + b;
  const float dropped_value = a * alpha_p + b;
  int kept_count = 0, dropped_count = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (std::abs(y[i] - kept_value) < 1e-5f) ++kept_count;
    else if (std::abs(y[i] - dropped_value) < 1e-5f) ++dropped_count;
  }
  EXPECT_EQ(kept_count + dropped_count, 10000);
  EXPECT_NEAR(static_cast<double>(dropped_count) / 10000.0, 0.5, 0.03);
}

TEST(AlphaDropoutTest, RejectsInvalidRate) {
  EXPECT_THROW(AlphaDropout(1.0f, 1), std::logic_error);
  EXPECT_THROW(AlphaDropout(-0.1f, 1), std::logic_error);
}

TEST(AttentionTest, OutputBetweenXAndTwiceX) {
  // out = x (1 + sigmoid(s)): for positive x, x < out < 2x.
  std::mt19937_64 rng(17);
  SpatialAttention att(rng);
  Tensor x({2, 3, 1, 8});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = 0.5f + 0.01f * static_cast<float>(i % 7);
  const Tensor y = att.forward(x, false);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_GT(y[i], x[i]);
    EXPECT_LT(y[i], 2.0f * x[i]);
  }
}

TEST(AttentionTest, RejectsInputHeightOtherThanOne) {
  // The attention gates height-1 planes along W only: any other height is
  // refused by the training forward and by inference planning alike.
  std::mt19937_64 rng(1);
  SpatialAttention att(rng);
  for (const std::size_t hh : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_THROW(att.forward(Tensor({1, 3, hh, 5}), false), std::logic_error)
        << "hh=" << hh;
    InferencePlan plan;
    plan.in_shape = {1, 3, hh, 5};
    EXPECT_THROW(att.plan_inference(plan), std::logic_error) << "hh=" << hh;
  }
  InferencePlan plan;
  plan.in_shape = {1, 3, 1, 5};
  att.plan_inference(plan);
  EXPECT_EQ(plan.out_shape.dim(1), 3u);
  EXPECT_EQ(plan.out_shape.dim(2), 1u);
}

TEST(FlattenTest, RoundTripShape) {
  Flatten flat;
  Tensor x({2, 3, 1, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(1), 12u);
  const Tensor g = flat.backward(y);
  EXPECT_TRUE(g.same_shape(x));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor logits({3, 5});
  std::mt19937_64 rng(19);
  std::normal_distribution<float> dist(0.0f, 3.0f);
  for (std::size_t i = 0; i < logits.numel(); ++i) logits[i] = dist(rng);
  const Tensor p = softmax(logits);
  for (std::size_t r = 0; r < 3; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_GE(p[r * 5 + c], 0.0f);
      s += p[r * 5 + c];
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(SoftmaxXentTest, PerfectPredictionHasLowLoss) {
  Tensor logits({1, 3});
  logits[0] = 20.0f;
  logits[1] = 0.0f;
  logits[2] = 0.0f;
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.predictions[0], 0);
}

TEST(SoftmaxXentTest, UniformLogitsGiveLogK) {
  Tensor logits({1, 10});
  const LossResult r = softmax_cross_entropy(logits, {4});
  EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

TEST(SoftmaxXentTest, GradientIsProbsMinusOneHotOverN) {
  Tensor logits({2, 3});
  logits[0] = 1.0f;
  logits[1] = 2.0f;
  logits[2] = 0.5f;
  logits[3] = -1.0f;
  logits[4] = 0.0f;
  logits[5] = 1.0f;
  const LossResult r = softmax_cross_entropy(logits, {1, 2});
  for (std::size_t n = 0; n < 2; ++n)
    for (std::size_t c = 0; c < 3; ++c) {
      const float expected =
          (r.probs[n * 3 + c] - ((n == 0 && c == 1) || (n == 1 && c == 2) ? 1.0f : 0.0f)) / 2.0f;
      EXPECT_NEAR(r.grad_logits[n * 3 + c], expected, 1e-6f);
    }
}

TEST(SoftmaxXentTest, LabelValidation) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::logic_error);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), std::logic_error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::logic_error);
}

TEST(ConfusionMatrixTest, AccuracyAndRates) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 0);
  EXPECT_EQ(cm.total(), 5);
  EXPECT_NEAR(cm.accuracy(), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(cm.rate(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.rate(2, 0), 1.0, 1e-12);
  EXPECT_EQ(cm.count(1, 1), 1);
  EXPECT_THROW(cm.add(3, 0), std::logic_error);
}

TEST(SequentialTest, ParamAggregationAndZeroGrad) {
  std::mt19937_64 rng(23);
  Sequential model;
  model.emplace<Dense>(4, 8, rng);
  model.emplace<Selu>();
  model.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(model.params().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(model.num_trainable(), 4u * 8 + 8 + 8 * 2 + 2);
  model.params()[0]->grad.fill(1.0f);
  model.zero_grad();
  EXPECT_EQ(model.params()[0]->grad.sum(), 0.0);
}

}  // namespace
}  // namespace deepcsi::nn
