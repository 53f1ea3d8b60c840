// The in-place rotation kernels behind decompose_v / reconstruct_v must
// be numerically indistinguishable from the explicit matrix-product form
// of Eq. (4)-(7) they replaced: same angles, same Vtilde (within strict
// roundoff), for every geometry and for reused scratch storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <utility>
#include <vector>

#include "feedback/angles.h"
#include "feedback/quantizer.h"
#include "linalg/svd.h"

namespace deepcsi::feedback {
namespace {

using linalg::CMat;
using linalg::cplx;

CMat random_v(std::size_t m, std::size_t nss, std::mt19937_64& rng) {
  const CMat a = CMat::random_gaussian(m, m, rng);
  return linalg::svd(a).v.first_columns(nss);
}

// The pre-rotation-kernel decompose: collects angles by multiplying
// explicit D^dagger and G matrices, exactly as the old implementation did.
BfmAngles decompose_v_reference(const CMat& v) {
  const int m = static_cast<int>(v.rows());
  const int nss = static_cast<int>(v.cols());
  BfmAngles out;
  out.m = m;
  out.nss = nss;
  CMat omega = v;
  for (int c = 0; c < nss; ++c)
    omega.scale_col(static_cast<std::size_t>(c),
                    std::polar(1.0, -std::arg(v(static_cast<std::size_t>(m - 1),
                                               static_cast<std::size_t>(c)))));
  const int imax = std::min(nss, m - 1);
  for (int i = 1; i <= imax; ++i) {
    std::vector<double> phi_col;
    for (int l = i; l <= m - 1; ++l) {
      double phi = std::arg(omega(static_cast<std::size_t>(l - 1),
                                  static_cast<std::size_t>(i - 1)));
      if (phi < 0.0) phi += 2.0 * std::numbers::pi;
      phi_col.push_back(phi);
      out.phi.push_back(phi);
    }
    omega = d_matrix(m, i, phi_col).hermitian() * omega;
    for (int l = i + 1; l <= m; ++l) {
      const double x = omega(static_cast<std::size_t>(i - 1),
                             static_cast<std::size_t>(i - 1))
                           .real();
      const double y = omega(static_cast<std::size_t>(l - 1),
                             static_cast<std::size_t>(i - 1))
                           .real();
      const double denom = std::sqrt(x * x + y * y);
      const double psi =
          denom > 0.0 ? std::acos(std::min(1.0, std::max(-1.0, x / denom)))
                      : 0.0;
      out.psi.push_back(psi);
      omega = g_matrix(m, l, i, psi) * omega;
    }
  }
  return out;
}

class RotationKernelTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(RotationKernelTest, DecomposeMatchesMatrixProductReference) {
  const auto [m, nss] = GetParam();
  std::mt19937_64 rng(4000 + 10 * m + nss);
  for (int trial = 0; trial < 25; ++trial) {
    const CMat v = random_v(static_cast<std::size_t>(m),
                            static_cast<std::size_t>(nss), rng);
    const BfmAngles fast = decompose_v(v);
    const BfmAngles ref = decompose_v_reference(v);
    ASSERT_EQ(fast.phi.size(), ref.phi.size());
    ASSERT_EQ(fast.psi.size(), ref.psi.size());
    for (std::size_t i = 0; i < ref.phi.size(); ++i)
      EXPECT_NEAR(fast.phi[i], ref.phi[i], 1e-10) << "phi " << i;
    for (std::size_t i = 0; i < ref.psi.size(); ++i)
      EXPECT_NEAR(fast.psi[i], ref.psi[i], 1e-10) << "psi " << i;
  }
}

TEST_P(RotationKernelTest, ReconstructMatchesMatrixProductReference) {
  const auto [m, nss] = GetParam();
  std::mt19937_64 rng(5000 + 10 * m + nss);
  for (int trial = 0; trial < 25; ++trial) {
    const BfmAngles angles =
        decompose_v(random_v(static_cast<std::size_t>(m),
                             static_cast<std::size_t>(nss), rng));
    const CMat ref = reconstruct_v_reference(angles);
    const CMat fast = reconstruct_v(angles);
    EXPECT_LT(linalg::max_abs_diff(fast, ref), 1e-10);
  }
}

TEST_P(RotationKernelTest, RoundTripsRandomUnitaryV) {
  const auto [m, nss] = GetParam();
  std::mt19937_64 rng(6000 + 10 * m + nss);
  for (int trial = 0; trial < 25; ++trial) {
    const CMat v = random_v(static_cast<std::size_t>(m),
                            static_cast<std::size_t>(nss), rng);
    const CMat vt = reconstruct_v(decompose_v(v));
    CMat expected = v;  // V * Dtilde^dagger
    for (int c = 0; c < nss; ++c)
      expected.scale_col(
          static_cast<std::size_t>(c),
          std::polar(1.0, -std::arg(v(static_cast<std::size_t>(m - 1),
                                      static_cast<std::size_t>(c)))));
    EXPECT_LT(linalg::max_abs_diff(vt, expected), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RotationKernelTest,
    ::testing::Values(std::pair<int, int>{2, 1}, std::pair<int, int>{2, 2},
                      std::pair<int, int>{3, 1}, std::pair<int, int>{3, 2},
                      std::pair<int, int>{3, 3}, std::pair<int, int>{4, 1},
                      std::pair<int, int>{4, 2}, std::pair<int, int>{4, 3},
                      std::pair<int, int>{4, 4}));

TEST(RotationKernelTest, ReconstructIntoReusesScratchAcrossGeometries) {
  std::mt19937_64 rng(77);
  CMat scratch;  // deliberately shared across shapes and calls
  for (const auto& [m, nss] : {std::pair<int, int>{4, 4},
                              std::pair<int, int>{2, 1},
                              std::pair<int, int>{3, 2}}) {
    for (int trial = 0; trial < 5; ++trial) {
      const BfmAngles angles =
          decompose_v(random_v(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(nss), rng));
      reconstruct_v_into(angles, &scratch);
      EXPECT_EQ(scratch.rows(), static_cast<std::size_t>(m));
      EXPECT_EQ(scratch.cols(), static_cast<std::size_t>(nss));
      EXPECT_LT(linalg::max_abs_diff(scratch, reconstruct_v_reference(angles)),
                1e-10);
    }
  }
}

// The CMat rotation primitives against the explicit matrices they model.
TEST(CMatRotationPrimitivesTest, MatchExplicitMatrixProducts) {
  std::mt19937_64 rng(79);
  const int m = 4;
  const CMat a = CMat::random_gaussian(4, 3, rng);
  const double psi = 0.6;

  // apply_givens_left == G * A; with -psi it is G^T * A.
  CMat left = a;
  left.apply_givens_left(0, 2, psi);
  EXPECT_LT(linalg::max_abs_diff(left, g_matrix(m, 3, 1, psi) * a), 1e-12);
  CMat left_t = a;
  left_t.apply_givens_left(0, 2, -psi);
  EXPECT_LT(
      linalg::max_abs_diff(left_t, g_matrix(m, 3, 1, psi).transpose() * a),
      1e-12);

  // scale_rows_polar == D * A (diagonal phases).
  const std::vector<double> phases = {0.3, 1.1, 2.5};
  CMat rows = a;
  rows.scale_rows_polar(0, phases);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const cplx f = r < phases.size() ? std::polar(1.0, phases[r]) : 1.0;
      EXPECT_LT(std::abs(rows(r, c) - f * a(r, c)), 1e-12);
    }
}

TEST(CMatRotationPrimitivesTest, SetEyeReusesStorage) {
  CMat m(4, 4);
  m.set_eye(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(m(r, c), (r == c ? cplx{1.0, 0.0} : cplx{0.0, 0.0}));
}

}  // namespace
}  // namespace deepcsi::feedback
