#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "v2v/common/matrix.hpp"
#include "v2v/common/vec_math.hpp"

namespace v2v {
namespace {

TEST(Matrix, DimensionsAndFill) {
  MatrixF m(3, 4, 2.0f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FALSE(m.empty());
  for (std::size_t r = 0; r < 3; ++r) {
    for (const float x : m.row(r)) EXPECT_FLOAT_EQ(x, 2.0f);
  }
}

TEST(Matrix, RowSpansAreContiguousViews) {
  MatrixF m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 3;
  m(1, 1) = 5;
  auto r0 = m.row(0);
  EXPECT_FLOAT_EQ(r0[0], 1);
  EXPECT_FLOAT_EQ(r0[2], 3);
  r0[1] = 9;  // writes through
  EXPECT_FLOAT_EQ(m(0, 1), 9);
  EXPECT_EQ(m.row(1).data(), m.data() + m.stride());
}

TEST(Matrix, RowsAreCacheLineAligned) {
  // Stride pads 3 floats up to one 64-byte line (16 floats); every row
  // start must land on a line boundary.
  MatrixF m(4, 3, 1.0f);
  EXPECT_EQ(m.stride(), kCacheLineBytes / sizeof(float));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(r).data()) % kCacheLineBytes, 0u)
        << "row " << r;
  }
  // A full-line row count keeps the stride tight.
  MatrixF exact(2, 16);
  EXPECT_EQ(exact.stride(), 16u);
  MatrixD d(2, 5);
  EXPECT_EQ(d.stride(), kCacheLineBytes / sizeof(double));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.row(1).data()) % kCacheLineBytes, 0u);
}

TEST(Matrix, EqualityIgnoresPadding) {
  MatrixF a(2, 3, 1.0f), b(2, 3, 1.0f);
  // Scribble into a's padding region; logical payloads still match.
  ASSERT_GT(a.stride(), a.cols());
  a.data()[a.cols()] = 42.0f;
  EXPECT_TRUE(a == b);
  b(1, 2) = 7.0f;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, EqualityAndDefault) {
  MatrixF a(2, 2, 1.0f), b(2, 2, 1.0f), c(2, 2, 2.0f);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  MatrixF d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.rows(), 0u);
}

TEST(Matrix, OverflowingSizeThrowsLengthError) {
  // rows * stride wraps to 0 (16 * 2^60 == 2^64).
  EXPECT_THROW(MatrixF(16, std::size_t{1} << 60), std::length_error);
  // Rounding SIZE_MAX columns up to a whole cache line wraps.
  EXPECT_THROW(MatrixF(1, SIZE_MAX), std::length_error);
  // 2^61 rows of one 8-double line wrap as well.
  EXPECT_THROW(MatrixD(std::size_t{1} << 61, 8), std::length_error);
  // Zero rows of a huge (non-wrapping) stride allocate nothing.
  EXPECT_TRUE(MatrixF(0, std::size_t{1} << 60).empty());
}

TEST(VecMath, DotAndNorm) {
  const std::vector<float> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot<float>(a, b), 32.0);
  EXPECT_DOUBLE_EQ(squared_norm<float>(a), 14.0);
  EXPECT_NEAR(norm<float>(a), std::sqrt(14.0), 1e-12);
}

TEST(VecMath, SquaredDistance) {
  const std::vector<float> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(squared_distance<float>(a, b), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance<float>(a, a), 0.0);
}

TEST(VecMath, CosineDistanceIdenticalIsZero) {
  const std::vector<float> a{1, 2, 3};
  EXPECT_NEAR(cosine_distance<float>(a, a), 0.0, 1e-9);
}

TEST(VecMath, CosineDistanceOrthogonalIsOne) {
  const std::vector<float> a{1, 0}, b{0, 1};
  EXPECT_NEAR(cosine_distance<float>(a, b), 1.0, 1e-12);
}

TEST(VecMath, CosineDistanceOppositeIsTwo) {
  const std::vector<float> a{1, 0}, b{-1, 0};
  EXPECT_NEAR(cosine_distance<float>(a, b), 2.0, 1e-12);
}

TEST(VecMath, CosineDistanceZeroVectorConvention) {
  const std::vector<float> z{0, 0}, a{1, 1};
  EXPECT_DOUBLE_EQ(cosine_distance<float>(z, a), 1.0);
  EXPECT_DOUBLE_EQ(cosine_distance<float>(z, z), 1.0);
}

TEST(VecMath, AxpyAndScale) {
  std::vector<float> y{1, 1, 1};
  const std::vector<float> x{1, 2, 3};
  axpy<float>(2.0, x, y);
  EXPECT_FLOAT_EQ(y[0], 3);
  EXPECT_FLOAT_EQ(y[2], 7);
  scale<float>(y, 0.5);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
}

TEST(VecMath, NormalizeMakesUnitLength) {
  std::vector<float> v{3, 4};
  normalize<float>(v);
  EXPECT_NEAR(norm<float>(std::span<const float>(v)), 1.0, 1e-6);
  EXPECT_NEAR(v[0], 0.6, 1e-6);
}

TEST(VecMath, NormalizeLeavesZeroVector) {
  std::vector<float> z{0, 0, 0};
  normalize<float>(z);
  for (const float x : z) EXPECT_FLOAT_EQ(x, 0.0f);
}

}  // namespace
}  // namespace v2v
