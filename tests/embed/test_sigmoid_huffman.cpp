#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "v2v/embed/huffman.hpp"
#include "v2v/embed/sigmoid_table.hpp"

namespace v2v::embed {
namespace {

TEST(SigmoidTable, MatchesExactSigmoidInRange) {
  const SigmoidTable& table = sigmoid_table();
  for (float x = -5.9f; x <= 5.9f; x += 0.37f) {
    const double exact = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    EXPECT_NEAR(static_cast<double>(table(x)), exact, 0.01) << "x=" << x;
  }
}

TEST(SigmoidTable, SaturatesOutsideRange) {
  const SigmoidTable& table = sigmoid_table();
  EXPECT_FLOAT_EQ(table(100.0f), 1.0f);
  EXPECT_FLOAT_EQ(table(6.0f), 1.0f);
  EXPECT_FLOAT_EQ(table(-100.0f), 0.0f);
  EXPECT_FLOAT_EQ(table(-6.0f), 0.0f);
}

TEST(SigmoidTable, MonotoneNonDecreasing) {
  const SigmoidTable& table = sigmoid_table();
  float prev = -1.0f;
  for (float x = -7.0f; x <= 7.0f; x += 0.05f) {
    const float y = table(x);
    EXPECT_GE(y, prev - 1e-6f);
    prev = y;
  }
}

TEST(SigmoidTable, CenterIsHalf) {
  EXPECT_NEAR(sigmoid_table()(0.0f), 0.5f, 0.01f);
}

TEST(Huffman, TwoSymbolsGetOneBitCodes) {
  const std::vector<std::uint64_t> freq{5, 3};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  EXPECT_EQ(tree.vocab_size(), 2u);
  EXPECT_EQ(tree.inner_count(), 1u);
  EXPECT_EQ(tree.code(0).code.size(), 1u);
  EXPECT_EQ(tree.code(1).code.size(), 1u);
  EXPECT_NE(tree.code(0).code[0], tree.code(1).code[0]);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  const std::vector<std::uint64_t> freq{100, 1, 1, 1, 1, 1, 1, 1};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  for (std::size_t s = 1; s < freq.size(); ++s) {
    EXPECT_LE(tree.code(0).code.size(), tree.code(s).code.size());
  }
}

TEST(Huffman, CodesArePrefixFree) {
  const std::vector<std::uint64_t> freq{7, 5, 3, 3, 2, 1, 1};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  auto code_string = [&](std::size_t s) {
    std::string out;
    for (const auto bit : tree.code(s).code) out += static_cast<char>('0' + bit);
    return out;
  };
  for (std::size_t a = 0; a < freq.size(); ++a) {
    for (std::size_t b = 0; b < freq.size(); ++b) {
      if (a == b) continue;
      const auto ca = code_string(a);
      const auto cb = code_string(b);
      EXPECT_FALSE(cb.size() >= ca.size() && cb.substr(0, ca.size()) == ca)
          << "code of " << a << " prefixes code of " << b;
    }
  }
}

TEST(Huffman, PointsAreValidInnerNodes) {
  const std::vector<std::uint64_t> freq{4, 3, 2, 1, 1};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  for (std::size_t s = 0; s < freq.size(); ++s) {
    const auto& code = tree.code(s);
    ASSERT_EQ(code.points.size(), code.code.size());
    for (const auto p : code.points) EXPECT_LT(p, tree.inner_count());
    // Root inner node (the last one created) heads every path.
    EXPECT_EQ(code.points.front(), static_cast<std::uint32_t>(tree.inner_count() - 1));
  }
}

TEST(Huffman, MeanCodeLengthNearEntropy) {
  // Dyadic distribution: entropy is exactly the Huffman mean length.
  const std::vector<std::uint64_t> freq{8, 4, 2, 1, 1};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  const double mean = tree.mean_code_length(std::span<const std::uint64_t>(freq));
  // H = (8*1 + 4*2 + 2*3 + 1*4 + 1*4) / 16 = 30/16 = 1.875
  EXPECT_NEAR(mean, 1.875, 1e-9);
}

TEST(Huffman, ZeroFrequenciesStillGetCodes) {
  const std::vector<std::uint64_t> freq{0, 0, 10};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(tree.code(s).code.empty());
  }
}

TEST(Huffman, SingleSymbolDegenerateTree) {
  const std::vector<std::uint64_t> freq{3};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  EXPECT_EQ(tree.inner_count(), 1u);
  EXPECT_EQ(tree.code(0).code.size(), 1u);
}

TEST(Huffman, EmptyVocabularyThrows) {
  const std::vector<std::uint64_t> freq;
  EXPECT_THROW(HuffmanTree{std::span<const std::uint64_t>(freq)},
               std::invalid_argument);
}

TEST(Huffman, LargeUniformVocabBalancedDepths) {
  std::vector<std::uint64_t> freq(256, 1);
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  for (std::size_t s = 0; s < freq.size(); ++s) {
    EXPECT_EQ(tree.code(s).code.size(), 8u);  // perfectly balanced
  }
}

// --- UBSan regression tests -------------------------------------------------

TEST(SigmoidTable, NanInputReturnsMidpointInsteadOfUb) {
  // A NaN dot product used to fall through both saturation branches into a
  // float->size_t cast: undefined behavior (UBSan float-cast-overflow).
  const SigmoidTable& table = sigmoid_table();
  EXPECT_FLOAT_EQ(table(std::numeric_limits<float>::quiet_NaN()), 0.5f);
  EXPECT_FLOAT_EQ(table(std::numeric_limits<float>::signaling_NaN()), 0.5f);
}

TEST(SigmoidTable, InfinityAndHugeInputsSaturate) {
  const SigmoidTable& table = sigmoid_table();
  EXPECT_FLOAT_EQ(table(std::numeric_limits<float>::infinity()), 1.0f);
  EXPECT_FLOAT_EQ(table(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_FLOAT_EQ(table(std::numeric_limits<float>::max()), 1.0f);
  EXPECT_FLOAT_EQ(table(std::numeric_limits<float>::lowest()), 0.0f);
}

TEST(SigmoidTable, BoundaryJustInsideRangeIndexesSafely) {
  const SigmoidTable& table = sigmoid_table();
  const float just_below = std::nextafter(SigmoidTable::kMaxExp, 0.0f);
  const float just_above = std::nextafter(-SigmoidTable::kMaxExp, 0.0f);
  EXPECT_GT(table(just_below), 0.99f);
  EXPECT_LT(table(just_above), 0.01f);
}

TEST(SigmoidTable, LossIsTheLogOfTheTabulatedSigmaInEverySlot) {
  // The trainer reads each pair's loss from the slot instead of calling
  // std::log; the reported loss stays bit-identical only if every slot
  // holds exactly what -log(max(p, 1e-7)) gives for its own sigma.
  const SigmoidTable& table = sigmoid_table();
  std::set<const SigmoidTable::Entry*> seen;
  const auto check = [&](float x) {
    const SigmoidTable::Entry& slot = table.entry(x);
    seen.insert(&slot);
    EXPECT_EQ(slot.sigma, table(x)) << "x=" << x;
    const float sigma = slot.sigma;
    EXPECT_EQ(slot.loss[1], -std::log(std::max(static_cast<double>(sigma), 1e-7)))
        << "x=" << x;
    EXPECT_EQ(slot.loss[0],
              -std::log(std::max(static_cast<double>(1.0f - sigma), 1e-7)))
        << "x=" << x;
  };
  // Bin i covers [-6 + i*w, -6 + (i+1)*w); probe each bin's lower edge,
  // the float just below it and its midpoint.
  constexpr std::size_t kBins = 1024;
  const float width = 2.0f * SigmoidTable::kMaxExp / static_cast<float>(kBins);
  for (std::size_t i = 0; i < kBins; ++i) {
    const float edge = -SigmoidTable::kMaxExp + static_cast<float>(i) * width;
    check(edge);
    check(std::nextafter(edge, -std::numeric_limits<float>::infinity()));
    check(edge + 0.5f * width);
  }
  const float kMax = SigmoidTable::kMaxExp;
  const float kInf = std::numeric_limits<float>::infinity();
  for (const float x : {kMax, -kMax, std::nextafter(kMax, 0.0f),
                        std::nextafter(-kMax, 0.0f), kInf, -kInf,
                        std::numeric_limits<float>::quiet_NaN()}) {
    check(x);
  }
  EXPECT_EQ(seen.size(), kBins + 3) << "every bin and the three clamp slots";
  EXPECT_EQ(table.entry(kInf).sigma, 1.0f);
  EXPECT_EQ(table.entry(-kInf).sigma, 0.0f);
  EXPECT_EQ(table.entry(std::numeric_limits<float>::quiet_NaN()).sigma, 0.5f);
  EXPECT_EQ(table.entry(-kInf).loss[1], -std::log(1e-7));  // clamped p = 0
}

TEST(Huffman, MeanCodeLengthOnHugeFrequenciesStaysFinite) {
  // Sums near the uint64 range must not overflow the double accumulation.
  std::vector<std::uint64_t> freq{1ULL << 62, 1ULL << 62, 1, 1};
  const HuffmanTree tree{std::span<const std::uint64_t>(freq)};
  const double mean = tree.mean_code_length(std::span<const std::uint64_t>(freq));
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GE(mean, 1.0);
  EXPECT_LE(mean, 3.0);
}

}  // namespace
}  // namespace v2v::embed
