// Complex matrix and SVD properties. The SVD feeds the beamforming
// feedback, so correctness here underpins every experiment.
#include <gtest/gtest.h>

#include <random>

#include "linalg/cmat.h"
#include "linalg/svd.h"

namespace deepcsi::linalg {
namespace {

TEST(CMatTest, IdentityAndEye) {
  const CMat id = CMat::identity(3);
  EXPECT_EQ(id(0, 0), cplx(1.0, 0.0));
  EXPECT_EQ(id(0, 1), cplx(0.0, 0.0));
  const CMat eye = CMat::eye(3, 2);
  EXPECT_EQ(eye.rows(), 3u);
  EXPECT_EQ(eye.cols(), 2u);
  EXPECT_EQ(eye(0, 0), cplx(1.0, 0.0));
  EXPECT_EQ(eye(1, 1), cplx(1.0, 0.0));
  EXPECT_EQ(eye(2, 0), cplx(0.0, 0.0));
  EXPECT_EQ(eye(2, 1), cplx(0.0, 0.0));
}

TEST(CMatTest, DiagConstruction) {
  const CMat d = CMat::diag({cplx(1.0, 2.0), cplx(3.0, -1.0)});
  EXPECT_EQ(d(0, 0), cplx(1.0, 2.0));
  EXPECT_EQ(d(1, 1), cplx(3.0, -1.0));
  EXPECT_EQ(d(0, 1), cplx(0.0, 0.0));
}

TEST(CMatTest, HermitianConjugatesAndTransposes) {
  CMat a(2, 3);
  a(0, 1) = cplx(1.0, 2.0);
  const CMat h = a.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(1, 0), cplx(1.0, -2.0));
}

TEST(CMatTest, MatMulAgainstHandComputed) {
  CMat a(2, 2), b(2, 2);
  a(0, 0) = {1, 1};
  a(0, 1) = {2, 0};
  a(1, 0) = {0, -1};
  a(1, 1) = {1, 0};
  b(0, 0) = {1, 0};
  b(0, 1) = {0, 1};
  b(1, 0) = {2, 0};
  b(1, 1) = {1, 1};
  const CMat c = a * b;
  EXPECT_NEAR(std::abs(c(0, 0) - cplx(5, 1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(c(0, 1) - cplx(1, 3)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(c(1, 0) - cplx(2, -1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(c(1, 1) - cplx(2, 1)), 0.0, 1e-12);
}

TEST(CMatTest, MatMulShapeMismatchThrows) {
  CMat a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::logic_error);
}

TEST(CMatTest, SubtractScale) {
  std::mt19937_64 rng(7);
  const CMat a = CMat::random_gaussian(3, 3, rng);
  EXPECT_LT(max_abs_diff(a * cplx(2.0, 0.0) - a, a), 1e-12);
}

TEST(CMatTest, FrobeniusNormMatchesDefinition) {
  CMat a(1, 2);
  a(0, 0) = {3.0, 0.0};
  a(0, 1) = {0.0, 4.0};
  EXPECT_NEAR(a.frobenius_norm(), 5.0, 1e-12);
}

TEST(CMatTest, ScaleRowAndColumn) {
  std::mt19937_64 rng(9);
  CMat a = CMat::random_gaussian(3, 2, rng);
  CMat b = a;
  b.scale_row(1, cplx(0.0, 1.0));
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_NEAR(std::abs(b(1, c) - a(1, c) * cplx(0.0, 1.0)), 0.0, 1e-12);
  b = a;
  b.scale_col(0, cplx(2.0, 0.0));
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_NEAR(std::abs(b(r, 0) - a(r, 0) * 2.0), 0.0, 1e-12);
}

TEST(SvdTest, ReconstructsDiagonalMatrix) {
  const CMat a = CMat::diag({cplx(3.0, 0.0), cplx(1.0, 0.0)});
  const Svd d = svd(a);
  EXPECT_NEAR(d.s[0], 3.0, 1e-12);
  EXPECT_NEAR(d.s[1], 1.0, 1e-12);
  EXPECT_LT(max_abs_diff(svd_reconstruct(d), a), 1e-12);
}

TEST(SvdTest, SingularValuesSortedDescending) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const CMat a = CMat::random_gaussian(3, 2, rng);
    const Svd d = svd(a);
    for (std::size_t i = 1; i < d.s.size(); ++i)
      EXPECT_GE(d.s[i - 1], d.s[i]);
  }
}

// Property sweep over the shapes that occur in the sounding pipeline.
class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdShapeTest, ThinFactorsAreOrthonormalAndReconstruct) {
  const auto [rows, cols] = GetParam();
  std::mt19937_64 rng(1000 * rows + cols);
  for (int trial = 0; trial < 25; ++trial) {
    const CMat a = CMat::random_gaussian(rows, cols, rng);
    const Svd d = svd(a);
    const std::size_t r = std::min(rows, cols);
    ASSERT_EQ(d.s.size(), r);
    ASSERT_EQ(d.u.rows(), rows);
    ASSERT_EQ(d.u.cols(), r);
    ASSERT_EQ(d.v.rows(), cols);
    ASSERT_EQ(d.v.cols(), r);
    EXPECT_LT(orthonormality_defect(d.u), 1e-10);
    EXPECT_LT(orthonormality_defect(d.v), 1e-10);
    EXPECT_LT(max_abs_diff(svd_reconstruct(d), a), 1e-10);
    for (double s : d.s) EXPECT_GE(s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, SvdShapeTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{3, 2},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{4, 2},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{3, 1},
                      std::pair<std::size_t, std::size_t>{1, 3}));

TEST(SvdTest, RankDeficientGetsZeroSingularValueAndOrthonormalBasis) {
  CMat a(3, 2);
  // Second column = 2 * first column -> rank 1.
  std::mt19937_64 rng(5);
  const CMat col = CMat::random_gaussian(3, 1, rng);
  for (std::size_t r = 0; r < 3; ++r) {
    a(r, 0) = col(r, 0);
    a(r, 1) = col(r, 0) * 2.0;
  }
  const Svd d = svd(a);
  EXPECT_NEAR(d.s[1], 0.0, 1e-10);
  EXPECT_GT(d.s[0], 0.0);
  EXPECT_LT(orthonormality_defect(d.u), 1e-8);
  EXPECT_LT(max_abs_diff(svd_reconstruct(d), a), 1e-10);
}

TEST(SvdTest, ScalarPhaseLeavesRightSingularVectorsInvariant) {
  // The invariance that makes V blind to common-phase offsets (PPO, common
  // CFO): e^{j theta} A has the same right singular subspace as A.
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const CMat a = CMat::random_gaussian(2, 3, rng);
    std::uniform_real_distribution<double> u(-3.14, 3.14);
    const CMat b = a * std::polar(1.0, u(rng));
    const Svd da = svd(a);
    const Svd db = svd(b);
    EXPECT_LT(subspace_distance(da.v, db.v), 1e-7);
    for (std::size_t i = 0; i < da.s.size(); ++i)
      EXPECT_NEAR(da.s[i], db.s[i], 1e-10);
  }
}

TEST(SvdTest, UnitaryDiagonalRightFactorTransfersIntoV) {
  // Per-TX-chain phase offsets D (unitary diagonal) satisfy:
  // right singular vectors of A*D are D^dagger * (those of A).
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const CMat a = CMat::random_gaussian(2, 3, rng);
    std::uniform_real_distribution<double> u(-3.14, 3.14);
    const CMat d = CMat::diag({std::polar(1.0, u(rng)), std::polar(1.0, u(rng)),
                               std::polar(1.0, u(rng))});
    const CMat ad = a * d;
    const Svd s1 = svd(a);
    const Svd s2 = svd(ad);
    // Spans must match after undoing the rotation.
    EXPECT_LT(subspace_distance(d.hermitian() * s1.v, s2.v), 1e-7);
  }
}

TEST(SubspaceDistanceTest, ZeroForSameSpanAndPositiveOtherwise) {
  std::mt19937_64 rng(11);
  const CMat a = CMat::random_gaussian(3, 3, rng);
  const Svd d = svd(a);
  const CMat v1 = d.v.first_columns(2);
  CMat v2 = v1;
  v2.scale_col(0, std::polar(1.0, 1.2));  // per-column phase is irrelevant
  EXPECT_LT(subspace_distance(v1, v2), 1e-7);
  CMat v3 = v1;
  for (std::size_t r = 0; r < 3; ++r) v3(r, 1) = d.v(r, 2);  // other subspace
  EXPECT_GT(subspace_distance(v1, v3), 0.5);
}

TEST(SvdTest, EmptyMatrixThrows) {
  EXPECT_THROW(svd(CMat()), std::logic_error);
}

}  // namespace
}  // namespace deepcsi::linalg
