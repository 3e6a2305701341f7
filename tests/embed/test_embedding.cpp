#include "v2v/embed/embedding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "v2v/common/rng.hpp"
#include "v2v/common/vec_math.hpp"

namespace v2v::embed {
namespace {

Embedding small_embedding() {
  Embedding e(3, 2);
  e.vector(0)[0] = 1.0f;
  e.vector(0)[1] = 0.0f;
  e.vector(1)[0] = 0.0f;
  e.vector(1)[1] = 1.0f;
  e.vector(2)[0] = 1.0f;
  e.vector(2)[1] = 1.0f;
  return e;
}

/// Gaussian-filled embedding: the values exercise full float mantissas,
/// unlike the hand-written integer-valued fixtures.
Embedding random_embedding(std::size_t n, std::size_t d, std::uint64_t seed) {
  Embedding e(n, d);
  Rng rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    for (auto& x : e.vector(v)) x = static_cast<float>(rng.next_gaussian());
  }
  return e;
}

bool bitwise_equal(const Embedding& a, const Embedding& b) {
  if (a.vertex_count() != b.vertex_count() || a.dimensions() != b.dimensions()) {
    return false;
  }
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto ra = a.vector(v), rb = b.vector(v);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) return false;
  }
  return true;
}

TEST(Embedding, CosineSimilarity) {
  const Embedding e = small_embedding();
  EXPECT_NEAR(e.cosine_similarity(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(e.cosine_similarity(0, 2), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(e.cosine_similarity(0, 0), 1.0, 1e-9);
}

TEST(Embedding, NormalizedRowsAreUnit) {
  const Embedding norm = small_embedding().normalized();
  for (std::size_t v = 0; v < norm.vertex_count(); ++v) {
    EXPECT_NEAR(v2v::norm(norm.vector(v)), 1.0, 1e-6);
  }
}

TEST(Embedding, TextRoundTrip) {
  const Embedding e = small_embedding();
  std::stringstream buffer;
  e.save_text(buffer);
  const Embedding back = Embedding::load_text(buffer);
  ASSERT_EQ(back.vertex_count(), 3u);
  ASSERT_EQ(back.dimensions(), 2u);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_FLOAT_EQ(back.vector(v)[d], e.vector(v)[d]);
    }
  }
}

// Regression: save_text used the stream's default 6 significant digits,
// which truncated most mantissas — save -> load -> save was lossy. With
// max_digits10 the text path round-trips every float bitwise and a second
// save produces byte-identical text.
TEST(Embedding, TextRoundTripIsBitwiseExact) {
  const Embedding e = random_embedding(17, 9, 42);
  std::stringstream first;
  e.save_text(first);
  const Embedding back = Embedding::load_text(first);
  EXPECT_TRUE(bitwise_equal(e, back));

  std::stringstream second;
  back.save_text(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Embedding, SaveTextRestoresStreamPrecision) {
  std::stringstream buffer;
  buffer.precision(3);
  small_embedding().save_text(buffer);
  EXPECT_EQ(buffer.precision(), 3);
}

TEST(Embedding, TextLoadRejectsBadHeader) {
  std::stringstream buffer("garbage");
  EXPECT_THROW((void)Embedding::load_text(buffer), std::runtime_error);
}

TEST(Embedding, TextLoadRejectsBadRowId) {
  std::stringstream buffer("2 2\n5 1.0 2.0\n");
  EXPECT_THROW((void)Embedding::load_text(buffer), std::runtime_error);
}

TEST(Embedding, TextLoadRejectsTruncatedRow) {
  std::stringstream buffer("1 3\n0 1.0 2.0");
  EXPECT_THROW((void)Embedding::load_text(buffer), std::runtime_error);
}

TEST(Embedding, MissingFilesThrow) {
  EXPECT_THROW((void)Embedding::load_text_file("/no/such/file"), std::runtime_error);
}

}  // namespace
}  // namespace v2v::embed
