// Precomputed logistic function and its log-loss, the classic word2vec
// trick extended by one column: sigma(x) is read from a 1024-entry table
// over [-6, 6] and clamped outside. The SGD inner loop calls this once per
// (context, target) pair, so avoiding expf is a measurable win — and since
// the trainer reports the per-pair loss -log(p), p = sigma (label 1) or
// 1 - sigma (label 0), each slot also carries both losses, so the loop
// pays one lookup instead of a lookup plus a libm log.
//
// Each loss entry is -std::log(std::max(double(p), 1e-7)) for the slot's
// own float sigma, with p = sigma or p = 1.0f - sigma (in float): the same
// expression a per-pair std::log call evaluates, so a loss read from the
// table is bit-identical to computing it per pair.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace v2v::embed {

class SigmoidTable {
 public:
  /// One slot: sigma and the log-loss of each label against it.
  struct Entry {
    float sigma = 0.0f;
    /// loss[label] for label 0 (p = 1 - sigma) and label 1 (p = sigma).
    std::array<double, 2> loss{};
  };

  static constexpr float kMaxExp = 6.0f;

  SigmoidTable() noexcept {
    for (std::size_t i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / kSize * 2.0 - 1.0) * kMaxExp;
      entries_[i] = make_entry(static_cast<float>(1.0 / (1.0 + std::exp(-x))));
    }
    entries_[kHigh] = make_entry(1.0f);
    entries_[kLow] = make_entry(0.0f);
    entries_[kNan] = make_entry(0.5f);
  }

  /// The slot for `x`: its bin inside (-6, 6); sigma 1 for x >= 6, 0 for
  /// x <= -6 and 0.5 for NaN.
  [[nodiscard]] const Entry& entry(float x) const noexcept {
    // Single in-range test on the hot path. The cold branch also catches
    // NaN, which would otherwise flow into the float->size_t cast below —
    // undefined behavior (flagged by UBSan's float-cast-overflow).
    if (!(std::fabs(x) < kMaxExp)) {
      if (x >= kMaxExp) return entries_[kHigh];
      if (x <= -kMaxExp) return entries_[kLow];
      return entries_[kNan];  // sigma's midpoint rather than a trap
    }
    const auto idx =
        static_cast<std::size_t>((x + kMaxExp) * (kSize / (2.0f * kMaxExp)));
    return entries_[idx < kSize ? idx : kSize - 1];
  }

  [[nodiscard]] float operator()(float x) const noexcept { return entry(x).sigma; }

 private:
  static constexpr std::size_t kSize = 1024;
  /// Clamp for the -log terms: p below this reports -log(kLossEps).
  static constexpr double kLossEps = 1e-7;
  // Clamp slots after the bins.
  static constexpr std::size_t kHigh = kSize;
  static constexpr std::size_t kLow = kSize + 1;
  static constexpr std::size_t kNan = kSize + 2;

  static Entry make_entry(float sigma) noexcept {
    const auto neg_log = [](float p) {
      return -std::log(std::max(static_cast<double>(p), kLossEps));
    };
    return Entry{sigma, {neg_log(1.0f - sigma), neg_log(sigma)}};
  }

  std::array<Entry, kSize + 3> entries_{};
};

/// Shared immutable instance (construction is cheap but not free).
[[nodiscard]] const SigmoidTable& sigmoid_table();

}  // namespace v2v::embed
