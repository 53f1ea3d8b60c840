// The register-blocked GEMM micro-kernels against a naive ascending-k
// reference, under every available SIMD backend. The scalar backend must
// match the reference bitwise (blocking, k-tiling and B-packing move
// data without ever reassociating a sum); the avx2 backend reassociates
// only through FMA rounding, so it gets a tolerance against the
// reference — but must still be bitwise self-identical across
// DEEPCSI_THREADS (the per-backend determinism contract). Shapes
// deliberately include row counts that are not multiples of the row
// block and odd n / k.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "test_util.h"

namespace deepcsi::nn {
namespace {

using tests::available_backends;
using tests::BackendGuard;
using tests::ThreadGuard;

// Bitwise for scalar; FMA-rounding tolerance for avx2.
void expect_matches_reference(simd::Backend backend, float got, float want,
                              const char* what, std::size_t elem) {
  if (backend == simd::Backend::kScalar) {
    ASSERT_EQ(got, want) << what << " backend=scalar elem=" << elem;
  } else {
    ASSERT_NEAR(got, want, 5e-4 * (1.0 + std::abs(want)))
        << what << " backend=" << simd::name(backend) << " elem=" << elem;
  }
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// C_s = row_init + A * B_s, plain triple loop, ascending k, one add per
// k — the accumulation order the kernels contract to reproduce exactly.
void naive_nn(std::size_t batch, std::size_t m, std::size_t n, std::size_t k,
              const float* a, const float* b, std::size_t b_stride, float* c,
              std::size_t c_stride, const float* row_init) {
  for (std::size_t s = 0; s < batch; ++s)
    for (std::size_t i = 0; i < m; ++i) {
      float* row = c + s * c_stride + i * n;
      for (std::size_t j = 0; j < n; ++j)
        row[j] = row_init != nullptr ? row_init[i] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        for (std::size_t j = 0; j < n; ++j)
          row[j] += av * b[s * b_stride + kk * n + j];
      }
    }
}

void naive_tn(std::size_t batch, std::size_t m, std::size_t n, std::size_t k,
              const float* a, const float* b, std::size_t b_stride, float* c,
              std::size_t c_stride, bool accumulate) {
  for (std::size_t s = 0; s < batch; ++s)
    for (std::size_t i = 0; i < m; ++i) {
      float* row = c + s * c_stride + i * n;
      if (!accumulate)
        for (std::size_t j = 0; j < n; ++j) row[j] = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a[kk * m + i];
        for (std::size_t j = 0; j < n; ++j)
          row[j] += av * b[s * b_stride + kk * n + j];
      }
    }
}

struct Shape {
  std::size_t batch, m, n, k;
};

// A 1x1 conv over one-row planes: its im2col matrix is the input itself,
// so conv_f32_batched(batch, m, plain_b(k, n), A, B, C) is C_s = A * B_s
// with B_s [k][n] at stride k * n and C_s at stride m * n.
ConvShape plain_b(std::size_t k, std::size_t n) {
  return {k, n, 1, 0};
}

// Sizes straddle every kernel edge: m % 4 != 0 tails, n past the packed
// stride padding, k beyond one kKTile-deep (64) tile, batch folding.
const Shape kShapes[] = {
    {1, 1, 1, 1},   {1, 3, 5, 7},    {1, 4, 8, 16},   {2, 5, 9, 3},
    {3, 7, 33, 129}, {1, 16, 234, 45}, {4, 6, 17, 200}, {2, 13, 31, 257},
};

TEST(GemmBlockedTest, NnMatchesNaiveAndIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  BackendGuard backend_guard;
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    for (const Shape& sh : kShapes) {
      const auto a = random_vec(sh.m * sh.k, 11 + sh.k);
      const auto b = random_vec(sh.batch * sh.k * sh.n, 13 + sh.n);
      const auto bias = random_vec(sh.m, 19 + sh.m);
      for (const bool with_bias : {false, true}) {
        const float* row_init = with_bias ? bias.data() : nullptr;
        std::vector<float> expected(sh.batch * sh.m * sh.n);
        naive_nn(sh.batch, sh.m, sh.n, sh.k, a.data(), b.data(), sh.k * sh.n,
                 expected.data(), sh.m * sh.n, row_init);
        std::vector<float> one_thread;
        for (const int threads : {1, 4}) {
          common::set_num_threads(threads);
          auto c = random_vec(sh.batch * sh.m * sh.n, 17);  // garbage
          conv_f32_batched(sh.batch, sh.m, plain_b(sh.k, sh.n), a.data(),
                           b.data(), c.data(), nullptr, row_init);
          for (std::size_t e = 0; e < c.size(); ++e)
            expect_matches_reference(backend, c[e], expected[e], "nn", e);
          if (threads == 1) {
            one_thread = c;
          } else {
            for (std::size_t e = 0; e < c.size(); ++e)
              ASSERT_EQ(c[e], one_thread[e])
                  << "nn thread-count bit-identity backend="
                  << simd::name(backend) << " m=" << sh.m << " n=" << sh.n
                  << " k=" << sh.k << " elem=" << e;
          }
        }
      }
    }
  }
}

TEST(GemmBlockedTest, TnMatchesNaiveAndIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  BackendGuard backend_guard;
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    for (const Shape& sh : kShapes) {
      const auto a = random_vec(sh.k * sh.m, 19 + sh.k);
      const auto b = random_vec(sh.batch * sh.k * sh.n, 23 + sh.n);
      for (const bool accumulate : {false, true}) {
        auto expected = random_vec(sh.batch * sh.m * sh.n, 29);
        naive_tn(sh.batch, sh.m, sh.n, sh.k, a.data(), b.data(), sh.k * sh.n,
                 expected.data(), sh.m * sh.n, accumulate);
        std::vector<float> one_thread;
        for (const int threads : {1, 4}) {
          common::set_num_threads(threads);
          auto c = random_vec(sh.batch * sh.m * sh.n, 29);
          gemm_tn_batched(sh.batch, sh.m, sh.n, sh.k, a.data(), b.data(),
                          sh.k * sh.n, c.data(), sh.m * sh.n, accumulate);
          for (std::size_t e = 0; e < c.size(); ++e)
            expect_matches_reference(backend, c[e], expected[e], "tn", e);
          if (threads == 1) {
            one_thread = c;
          } else {
            for (std::size_t e = 0; e < c.size(); ++e)
              ASSERT_EQ(c[e], one_thread[e])
                  << "tn thread-count bit-identity backend="
                  << simd::name(backend) << " m=" << sh.m << " n=" << sh.n
                  << " k=" << sh.k << " elem=" << e;
          }
        }
      }
    }
  }
}

TEST(GemmBlockedTest, ExactZerosInAContributeLikeAnyOtherValue) {
  // The old kernels skipped a_ik == 0 entirely; the blocked kernels must
  // not, and the naive reference (which never skips) pins the semantics
  // under every backend.
  ThreadGuard guard;
  BackendGuard backend_guard;
  common::set_num_threads(1);
  const std::size_t m = 6, n = 9, k = 140;
  auto a = random_vec(m * k, 31);
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  const auto b = random_vec(k * n, 37);
  std::vector<float> expected(m * n);
  naive_nn(1, m, n, k, a.data(), b.data(), 0, expected.data(), 0, nullptr);
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    std::vector<float> c(m * n);
    conv_f32_batched(1, m, plain_b(k, n), a.data(), b.data(), c.data());
    for (std::size_t e = 0; e < c.size(); ++e)
      expect_matches_reference(backend, c[e], expected[e], "zeros", e);
  }
}

TEST(GemmBlockedTest, FusedRowEpilogueMatchesSeparateApplication) {
  // gemm + epilogue(selu) must equal gemm then selu over the output —
  // the contract the fused conv->bias->SELU serve path stands on — under
  // every backend and thread count.
  ThreadGuard guard;
  BackendGuard backend_guard;
  const std::size_t batch = 2, m = 6, n = 29, k = 70;
  const auto a = random_vec(m * k, 61);
  const auto b = random_vec(batch * k * n, 67);
  const std::vector<float> bias(m, 0.25f);
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    const simd::SimdOps& ops = simd::ops();
    for (const int threads : {1, 4}) {
      common::set_num_threads(threads);
      std::vector<float> unfused(batch * m * n);
      conv_f32_batched(batch, m, plain_b(k, n), a.data(), b.data(),
                       unfused.data(), nullptr, bias.data());
      ops.selu(unfused.data(), unfused.data(), unfused.size());
      std::vector<float> fused(batch * m * n);
      conv_f32_batched(batch, m, plain_b(k, n), a.data(), b.data(),
                       fused.data(), ops.selu, bias.data());
      for (std::size_t e = 0; e < fused.size(); ++e)
        ASSERT_EQ(fused[e], unfused[e])
            << simd::name(backend) << " threads=" << threads << " elem=" << e;
    }
  }
}

TEST(GemmBlockedTest, NtVariantsStayConsistentWithNaive) {
  // gemm_nt uses fixed-lane dot products (it does reassociate), so it
  // gets a tolerance, not bitwise equality — under every backend.
  ThreadGuard guard;
  BackendGuard backend_guard;
  common::set_num_threads(4);
  const std::size_t m = 5, n = 7, k = 61;
  const auto a = random_vec(m * k, 41);
  const auto b = random_vec(n * k, 43);
  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    std::vector<float> c(m * n, 0.0f);
    gemm_nt(m, n, k, a.data(), b.data(), c.data(), false);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double ref = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk)
          ref += static_cast<double>(a[i * k + kk]) * b[j * k + kk];
        EXPECT_NEAR(c[i * n + j], ref, 1e-4) << simd::name(backend);
      }
  }
}

}  // namespace
}  // namespace deepcsi::nn
