// Tensor primitive: shapes, accessors, slicing and in-place math.
#include <gtest/gtest.h>

#include "tensor/tensor.h"

namespace deepcsi::tensor {
namespace {

TEST(TensorTest, ConstructionZeroInitialized) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, At4Layout) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  // NCHW row-major: index = ((n*C + c)*H + h)*W + w.
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(TensorTest, FillAndZero) {
  Tensor t({4});
  t.fill(2.5f);
  EXPECT_EQ(t.sum(), 10.0);
  t.zero();
  EXPECT_EQ(t.sum(), 0.0);
}

TEST(TensorTest, ReshapePreservesDataAndChecksCount) {
  Tensor t({2, 6});
  for (std::size_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped({5, 2}), std::logic_error);
}

TEST(TensorTest, MaxAbs) {
  Tensor t({3});
  t[0] = -5.0f;
  t[1] = 2.0f;
  EXPECT_EQ(t.max_abs(), 5.0f);
}

TEST(TensorTest, SliceRows) {
  Tensor t({4, 3});
  for (std::size_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  const Tensor s = slice_rows(t, 1, 3);
  EXPECT_EQ(s.dim(0), 2u);
  EXPECT_EQ(s.dim(1), 3u);
  EXPECT_EQ(s[0], 3.0f);
  EXPECT_EQ(s[5], 8.0f);
  EXPECT_THROW(slice_rows(t, 3, 5), std::logic_error);
}

TEST(TensorTest, ZerosLikeMatchesShape) {
  Tensor t({2, 7});
  t.fill(3.0f);
  const Tensor z = Tensor::zeros_like(t);
  EXPECT_TRUE(z.same_shape(t));
  EXPECT_EQ(z.sum(), 0.0);
}

}  // namespace
}  // namespace deepcsi::tensor
