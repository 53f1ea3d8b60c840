// The runtime-dispatched SIMD backend (nn/simd.h): dispatch override
// semantics, the usage-error exit on a bad DEEPCSI_SIMD value, and the
// cross-backend numerical contracts — the avx2 kernels must agree with
// the scalar reference within documented tolerances on randomized shapes
// that straddle every vector boundary (n % 8 != 0 remainders, single
// rows, single elements), while staying bitwise deterministic within a
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <vector>

#include "common/parallel.h"
#include "linalg/cmat.h"
#include "nn/activations.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using simd::Backend;
using tests::available_backends;
using tests::BackendGuard;
using tests::ThreadGuard;

bool avx2_available() {
  return simd::compiled_with_avx2() && simd::cpu_supports_avx2();
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// ------------------------------------------------------------- dispatch

TEST(SimdDispatchTest, OverrideSwitchesTheActiveTable) {
  BackendGuard guard;
  ASSERT_TRUE(simd::set_active(Backend::kScalar));
  EXPECT_EQ(simd::active(), Backend::kScalar);
  EXPECT_EQ(simd::ops().id, Backend::kScalar);
  if (avx2_available()) {
    ASSERT_TRUE(simd::set_active(Backend::kAvx2));
    EXPECT_EQ(simd::active(), Backend::kAvx2);
    EXPECT_EQ(simd::ops().id, Backend::kAvx2);
  } else {
    EXPECT_FALSE(simd::set_active(Backend::kAvx2));
    EXPECT_EQ(simd::active(), Backend::kScalar);  // unchanged on refusal
  }
}

TEST(SimdDispatchTest, ResolveAcceptsTheDocumentedValues) {
  EXPECT_EQ(simd::resolve_backend("scalar"), Backend::kScalar);
  const Backend auto_backend = simd::resolve_backend(nullptr);
  EXPECT_EQ(auto_backend,
            avx2_available() ? Backend::kAvx2 : Backend::kScalar);
  EXPECT_EQ(simd::resolve_backend(""), auto_backend);
  if (avx2_available()) {
    EXPECT_EQ(simd::resolve_backend("avx2"), Backend::kAvx2);
    // int8 is opt-in only: never the default, but resolvable by name.
    EXPECT_EQ(simd::resolve_backend("avx2_int8"), Backend::kAvx2Int8);
  }
}

TEST(SimdDispatchDeathTest, UnknownValueExitsWithUsageError) {
  // An unknown DEEPCSI_SIMD must be a hard usage error (exit 2), never a
  // silent fallback that would mislabel every benchmark row. The message
  // must list every valid name (driven by the one backend table).
  EXPECT_EXIT(simd::resolve_backend("neon"), ::testing::ExitedWithCode(2),
              "DEEPCSI_SIMD=neon");
  EXPECT_EXIT(simd::resolve_backend("AVX2"), ::testing::ExitedWithCode(2),
              "unknown backend");
  EXPECT_EXIT(simd::resolve_backend("neon"), ::testing::ExitedWithCode(2),
              "\"scalar\".*\"avx2\".*\"avx2_int8\"");
}

TEST(SimdDispatchDeathTest, ExplicitAvx2OnUnsupportedHostExits) {
  if (avx2_available()) GTEST_SKIP() << "host can honor DEEPCSI_SIMD=avx2";
  EXPECT_EXIT(simd::resolve_backend("avx2"), ::testing::ExitedWithCode(2),
              "DEEPCSI_SIMD=avx2");
  // Same hard-error contract for the int8 backend: it needs the same
  // ISA, so an unhonorable explicit request must never degrade silently.
  EXPECT_EXIT(simd::resolve_backend("avx2_int8"), ::testing::ExitedWithCode(2),
              "DEEPCSI_SIMD=avx2_int8");
}

TEST(SimdDispatchTest, BackendNames) {
  EXPECT_STREQ(simd::name(Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::name(Backend::kAvx2Int8), "avx2_int8");
  // The canonical name list covers every backend this build knows, in
  // enum order, whether or not this host can run them.
  const std::vector<const char*> names = simd::backend_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_STREQ(names[0], "scalar");
  EXPECT_STREQ(names[1], "avx2");
  EXPECT_STREQ(names[2], "avx2_int8");
}

TEST(SimdDispatchTest, AvailableBackendsIncludesInt8WithAvx2) {
  // avx2 and avx2_int8 have the same availability condition: both or
  // neither, with scalar always first.
  const std::vector<Backend> avail = simd::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kScalar);
  const bool has_avx2 =
      std::find(avail.begin(), avail.end(), Backend::kAvx2) != avail.end();
  const bool has_int8 =
      std::find(avail.begin(), avail.end(), Backend::kAvx2Int8) != avail.end();
  EXPECT_EQ(has_avx2, avx2_available());
  EXPECT_EQ(has_int8, avx2_available());
}

// ------------------------------------------------------- GEMM tolerance

struct GemmShape {
  std::size_t batch, m, n, k;
};

// Shapes straddle the 24/16/8-wide column tiles (n % 8 != 0
// remainders), the 4-row blocks (single-row edge), and the kKTile-deep
// (64) k tiles of nn/gemm.cc.
const GemmShape kGemmShapes[] = {
    {1, 1, 1, 1},    {1, 1, 7, 3},    {1, 3, 9, 31},   {1, 4, 16, 128},
    {1, 5, 17, 129}, {2, 6, 23, 64},  {1, 32, 59, 70}, {3, 7, 33, 257},
    {1, 13, 100, 45},
};

TEST(SimdGemmTest, Avx2MatchesScalarWithinToleranceOnRandomShapes) {
  if (!avx2_available()) GTEST_SKIP() << "avx2 backend unavailable";
  BackendGuard guard;
  for (const GemmShape& sh : kGemmShapes) {
    const auto a = random_vec(sh.m * sh.k, 101 + sh.k);
    const auto b = random_vec(sh.batch * sh.k * sh.n, 103 + sh.n);
    const auto bias = random_vec(sh.m, 109 + sh.m);
    // A 1x1 conv over one-row planes multiplies by the input itself.
    const nn::ConvShape plain_b{sh.k, sh.n, 1, 0};
    for (const bool with_bias : {false, true}) {
      const float* row_init = with_bias ? bias.data() : nullptr;
      auto c_scalar = random_vec(sh.batch * sh.m * sh.n, 107);
      auto c_avx2 = c_scalar;  // same initial garbage
      ASSERT_TRUE(simd::set_active(Backend::kScalar));
      nn::conv_f32_batched(sh.batch, sh.m, plain_b, a.data(), b.data(),
                           c_scalar.data(), nullptr, row_init);
      ASSERT_TRUE(simd::set_active(Backend::kAvx2));
      nn::conv_f32_batched(sh.batch, sh.m, plain_b, a.data(), b.data(),
                           c_avx2.data(), nullptr, row_init);
      for (std::size_t e = 0; e < c_scalar.size(); ++e)
        ASSERT_NEAR(c_avx2[e], c_scalar[e],
                    5e-4 * (1.0 + std::abs(c_scalar[e])))
            << "nn m=" << sh.m << " n=" << sh.n << " k=" << sh.k
            << " bias=" << with_bias << " elem=" << e;
    }
  }
}

TEST(SimdGemmTest, Avx2DotMatchesScalarWithinTolerance) {
  if (!avx2_available()) GTEST_SKIP() << "avx2 backend unavailable";
  BackendGuard guard;
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{17}, std::size_t{224},
                              std::size_t{1601}}) {
    const auto a = random_vec(k, 211 + k);
    const auto b = random_vec(k, 223 + k);
    ASSERT_TRUE(simd::set_active(Backend::kScalar));
    const float ds = simd::ops().dot(a.data(), b.data(), k);
    ASSERT_TRUE(simd::set_active(Backend::kAvx2));
    const float dv = simd::ops().dot(a.data(), b.data(), k);
    EXPECT_NEAR(dv, ds, 5e-4 * (1.0 + std::abs(ds))) << "k=" << k;
  }
}

// ----------------------------------------------------------------- SELU

TEST(SimdSeluTest, Avx2MatchesStdExpReferenceIncludingTails) {
  if (!avx2_available()) GTEST_SKIP() << "avx2 backend unavailable";
  BackendGuard guard;
  ASSERT_TRUE(simd::set_active(Backend::kAvx2));
  // Lengths cover every remainder class mod 8, including the single-
  // element case; values cover both branches, the origin, and deep
  // saturation of the negative branch.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{30},
                              std::size_t{1013}}) {
    std::mt19937_64 rng(331 + n);
    std::normal_distribution<float> dist(0.0f, 3.0f);
    std::vector<float> x(n), y(n, -1e30f);
    for (float& v : x) v = dist(rng);
    if (n >= 4) {
      x[0] = 0.0f;
      x[1] = -100.0f;  // saturates: selu -> -lambda*alpha
      x[2] = 80.0f;
      x[3] = -0.0f;
    }
    simd::ops().selu(x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[i];
      const double ref =
          v > 0.0f ? double(nn::kSeluLambda) * v
                   : double(nn::kSeluLambda) * nn::kSeluAlpha *
                         (std::exp(double(v)) - 1.0);
      ASSERT_NEAR(y[i], ref, 1e-5 * (1.0 + std::abs(ref)))
          << "n=" << n << " i=" << i << " x=" << v;
    }
  }
}

TEST(SimdSeluTest, ElementResultIndependentOfVectorPosition) {
  // The fused conv epilogue and the standalone layer slice the same data
  // at different offsets; an element's bits must not depend on where it
  // sits relative to a vector or chunk boundary, under either backend.
  BackendGuard guard;
  const std::size_t n = 67;
  const auto x = random_vec(n, 401);
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    std::vector<float> whole(n);
    simd::ops().selu(x.data(), whole.data(), n);
    for (const std::size_t split : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{13}}) {
      std::vector<float> pieces(n);
      std::size_t lo = 0;
      while (lo < n) {
        const std::size_t hi = std::min(n, lo + split);
        simd::ops().selu(x.data() + lo, pieces.data() + lo, hi - lo);
        lo = hi;
      }
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(whole[i], pieces[i])
            << simd::name(backend) << " split=" << split << " i=" << i;
    }
  }
}

TEST(SimdSeluTest, InPlaceApplicationMatchesOutOfPlace) {
  BackendGuard guard;
  const std::size_t n = 29;
  const auto x = random_vec(n, 409);
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    std::vector<float> out(n);
    simd::ops().selu(x.data(), out.data(), n);
    std::vector<float> inplace = x;
    simd::ops().selu(inplace.data(), inplace.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], inplace[i]) << i;
  }
}

// ------------------------------------------------------ SELU gradient

// Inputs covering both branches, the origin, -0.0 and deep saturation.
std::vector<float> selu_grad_inputs(std::size_t n, std::uint64_t seed) {
  std::vector<float> x = random_vec(n, seed);
  for (float& v : x) v *= 3.0f;
  if (n >= 5) {
    x[0] = 0.0f;
    x[1] = -0.0f;
    x[2] = -100.0f;
    x[3] = 80.0f;
    x[4] = -1e-30f;
  }
  return x;
}

TEST(SimdSeluGradTest, Avx2EqualsScalarBitwiseIncludingTails) {
  // One add, select and multiply per element in both kernels: the
  // contract is bit-identity across backends, full vectors and masked
  // tails alike, and in place.
  if (!avx2_available()) GTEST_SKIP() << "avx2 backend unavailable";
  BackendGuard guard;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{30},
                              std::size_t{1013}}) {
    const auto x = selu_grad_inputs(n, 601 + n);
    const auto g = random_vec(n, 701 + n);
    ASSERT_TRUE(simd::set_active(Backend::kScalar));
    std::vector<float> y(n), ref(n);
    simd::ops().selu(x.data(), y.data(), n);
    simd::ops().selu_grad(y.data(), g.data(), ref.data(), n);
    for (const Backend backend : {Backend::kAvx2, Backend::kAvx2Int8}) {
      ASSERT_TRUE(simd::set_active(backend));
      std::vector<float> out(n, -1e30f);
      simd::ops().selu_grad(y.data(), g.data(), out.data(), n);
      std::vector<float> inplace = g;
      simd::ops().selu_grad(y.data(), inplace.data(), inplace.data(), n);
      ASSERT_EQ(std::memcmp(out.data(), ref.data(), n * sizeof(float)), 0)
          << simd::name(backend) << " n=" << n;
      ASSERT_EQ(std::memcmp(inplace.data(), ref.data(), n * sizeof(float)), 0)
          << simd::name(backend) << " in place, n=" << n;
    }
  }
}

TEST(SimdSeluGradTest, MatchesExpDerivativeUnderEveryBackend) {
  // The output-based form y + lambda*alpha stands in for
  // lambda*alpha*exp(x); with each backend's own forward y it stays
  // within 2e-7 absolute plus 1e-6 relative of the exp derivative.
  BackendGuard guard;
  const std::size_t n = 1013;
  const auto x = selu_grad_inputs(n, 809);
  const std::vector<float> ones(n, 1.0f);
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    std::vector<float> y(n), d(n);
    simd::ops().selu(x.data(), y.data(), n);
    simd::ops().selu_grad(y.data(), ones.data(), d.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ref =
          x[i] > 0.0f ? double(nn::kSeluLambda)
                      : double(nn::kSeluLambda) * nn::kSeluAlpha *
                            std::exp(double(x[i]));
      ASSERT_NEAR(d[i], ref, 2e-7 + 1e-6 * std::abs(ref))
          << simd::name(backend) << " i=" << i << " x=" << x[i];
    }
  }
}

// ------------------------------------------------- rotation kernels

linalg::CMat random_cmat(std::size_t r, std::size_t c, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return linalg::CMat::random_gaussian(r, c, rng);
}

TEST(SimdRotationTest, Avx2GivensMatchesScalarAcrossGeometries) {
  if (!avx2_available()) GTEST_SKIP() << "avx2 backend unavailable";
  BackendGuard guard;
  // Rows/cols 1..5 cover the odd-length vector tails (cols=1 runs the
  // pure-scalar path, cols=3/5 the 2-wide body plus one complex tail).
  for (std::size_t rows = 2; rows <= 5; ++rows) {
    for (std::size_t cols = 1; cols <= 5; ++cols) {
      const linalg::CMat base = random_cmat(rows, cols, 500 + 10 * rows + cols);
      const double psi = 0.37 + 0.1 * double(rows) - 0.05 * double(cols);

      linalg::CMat scalar_left = base, avx2_left = base;
      ASSERT_TRUE(simd::set_active(Backend::kScalar));
      scalar_left.apply_givens_left(0, rows - 1, psi);
      ASSERT_TRUE(simd::set_active(Backend::kAvx2));
      avx2_left.apply_givens_left(0, rows - 1, psi);
      EXPECT_LT(linalg::max_abs_diff(scalar_left, avx2_left), 1e-12)
          << "left " << rows << "x" << cols;

      const std::vector<double> phases = {0.3, -1.2};
      linalg::CMat scalar_rows = base, avx2_rows = base;
      ASSERT_TRUE(simd::set_active(Backend::kScalar));
      scalar_rows.scale_rows_polar(0, phases);
      ASSERT_TRUE(simd::set_active(Backend::kAvx2));
      avx2_rows.scale_rows_polar(0, phases);
      EXPECT_LT(linalg::max_abs_diff(scalar_rows, avx2_rows), 1e-12)
          << "rows_polar " << rows << "x" << cols;
    }
  }
}

// ------------------------------------- threaded selu layer determinism

TEST(SimdSeluTest, ThreadedSeluApplyBitIdenticalAcrossThreadCounts) {
  // selu_apply now fans out over the pool (it used to be the one serial
  // stage between parallel GEMMs); the existing bit-identity-across-
  // DEEPCSI_THREADS guarantee must survive under both backends.
  ThreadGuard tguard;
  BackendGuard bguard;
  nn::Tensor x({5, 3, 1, 67});
  std::mt19937_64 rng(777);
  std::normal_distribution<float> dist(0.0f, 2.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x.data()[i] = dist(rng);
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    nn::Selu selu;
    common::set_num_threads(1);
    const nn::Tensor y1 = selu.forward(x, /*training=*/false);
    common::set_num_threads(4);
    const nn::Tensor y4 = selu.forward(x, /*training=*/false);
    for (std::size_t i = 0; i < y1.numel(); ++i)
      ASSERT_EQ(y1[i], y4[i]) << simd::name(backend) << " i=" << i;
  }
}

}  // namespace
}  // namespace deepcsi
