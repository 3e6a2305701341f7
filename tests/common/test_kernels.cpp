// Parity suite for the SIMD kernel layer: every variant compiled into this
// binary (and runnable on this CPU) must agree with the scalar reference
// on awkward dimensions — below one vector register (1, 7), exactly one
// register (8), and remainder-heavy sizes (100, 128, 129) — with negative
// and denormal inputs mixed in. Float reductions may legitimately differ
// across ISAs by reassociation, so comparisons are tolerance-checked
// relative to the magnitude of the terms, not bit-exact. The trainer's
// RowOps are the exception: each must give its own ISA's KernelSet bytes.
#include "v2v/common/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/rng.hpp"

namespace v2v::kernels {
namespace {

constexpr std::size_t kDims[] = {1, 7, 8, 100, 128, 129};

/// Deterministic awkward input: mixed signs, wide magnitude range, and a
/// sprinkling of float denormals.
AlignedVector<float> make_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float x = (rng.next_float() - 0.5f) * 4.0f;
    if (i % 7 == 3) x = -x;
    if (i % 11 == 5) x = std::numeric_limits<float>::denorm_min() * (1.0f + x * x);
    out[i] = x;
  }
  return out;
}

AlignedVector<double> make_input_d(std::size_t n, std::uint64_t seed) {
  const auto f = make_input(n, seed);
  return {f.begin(), f.end()};
}

/// Relative-ish tolerance: scaled by the magnitude of the involved terms
/// so dims {1..129} and denormal-heavy inputs are all covered.
double tol_for(double magnitude, std::size_t n) {
  return 1e-5 * (magnitude + 1.0) * static_cast<double>(n + 1);
}

class KernelParity : public ::testing::Test {
 protected:
  static std::vector<std::pair<Isa, KernelSet>> variants() {
    auto all = compiled_variants();
    EXPECT_FALSE(all.empty());
    EXPECT_EQ(all.front().first, Isa::kScalar);
    return all;
  }
};

TEST_F(KernelParity, DotMatchesScalar) {
  for (const std::size_t n : kDims) {
    const auto a = make_input(n, 11 + n);
    const auto b = make_input(n, 29 + n);
    const double ref = static_cast<double>(scalar::dot(a.data(), b.data(), n));
    for (const auto& [isa, set] : variants()) {
      const double got = static_cast<double>(set.dot(a.data(), b.data(), n));
      EXPECT_NEAR(got, ref, tol_for(std::fabs(ref), n))
          << isa_name(isa) << " dims=" << n;
    }
  }
}

TEST_F(KernelParity, AxpyMatchesScalar) {
  for (const std::size_t n : kDims) {
    const auto x = make_input(n, 5 + n);
    const auto y0 = make_input(n, 17 + n);
    const float alpha = -0.37f;
    AlignedVector<float> ref(y0);
    scalar::axpy(alpha, x.data(), ref.data(), n);
    for (const auto& [isa, set] : variants()) {
      AlignedVector<float> y(y0);
      set.axpy(alpha, x.data(), y.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(y[i], ref[i], tol_for(std::fabs(ref[i]), 1))
            << isa_name(isa) << " dims=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(KernelParity, ScaleAddFillMatchScalar) {
  for (const std::size_t n : kDims) {
    const auto x = make_input(n, 3 + n);
    const auto y0 = make_input(n, 41 + n);
    for (const auto& [isa, set] : variants()) {
      AlignedVector<float> s(y0);
      AlignedVector<float> sref(y0);
      set.scale(s.data(), -1.75f, n);
      scalar::scale(sref.data(), -1.75f, n);
      AlignedVector<float> a(y0);
      AlignedVector<float> aref(y0);
      set.add(x.data(), a.data(), n);
      scalar::add(x.data(), aref.data(), n);
      AlignedVector<float> f(n, 1.0f);
      set.fill(f.data(), 0.25f, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(s[i], sref[i]) << isa_name(isa) << " scale dims=" << n;
        EXPECT_NEAR(a[i], aref[i], tol_for(std::fabs(aref[i]), 1))
            << isa_name(isa) << " add dims=" << n;
        EXPECT_EQ(f[i], 0.25f) << isa_name(isa) << " fill dims=" << n;
      }
    }
  }
}

TEST_F(KernelParity, DoubleReductionsMatchScalar) {
  for (const std::size_t n : kDims) {
    const auto a = make_input(n, 7 + n);
    const auto b = make_input(n, 13 + n);
    const auto bd = make_input_d(n, 13 + n);
    const double ddot_ref = scalar::ddot(a.data(), b.data(), n);
    const double sq_ref = scalar::sqdist(a.data(), b.data(), n);
    const double sqfd_ref = scalar::sqdist_fd(a.data(), bd.data(), n);
    for (const auto& [isa, set] : variants()) {
      EXPECT_NEAR(set.ddot(a.data(), b.data(), n), ddot_ref,
                  tol_for(std::fabs(ddot_ref), n))
          << isa_name(isa) << " dims=" << n;
      EXPECT_NEAR(set.sqdist(a.data(), b.data(), n), sq_ref, tol_for(sq_ref, n))
          << isa_name(isa) << " dims=" << n;
      EXPECT_NEAR(set.sqdist_fd(a.data(), bd.data(), n), sqfd_ref, tol_for(sqfd_ref, n))
          << isa_name(isa) << " dims=" << n;
    }
  }
}

TEST_F(KernelParity, MixedDotAndDoubleRowsMatchScalar) {
  // The k-means engine kernels: float-row x double-row dot (norm-cached
  // distances), double-row dot (centroid norms), double-row sqdist
  // (centroid drift).
  for (const std::size_t n : kDims) {
    const auto a = make_input(n, 31 + n);
    const auto bd = make_input_d(n, 37 + n);
    const auto cd = make_input_d(n, 43 + n);
    const double dotfd_ref = scalar::dot_fd(a.data(), bd.data(), n);
    const double dotdd_ref = scalar::dot_dd(bd.data(), cd.data(), n);
    const double sqdd_ref = scalar::sqdist_dd(bd.data(), cd.data(), n);
    for (const auto& [isa, set] : variants()) {
      EXPECT_NEAR(set.dot_fd(a.data(), bd.data(), n), dotfd_ref,
                  tol_for(std::fabs(dotfd_ref), n))
          << isa_name(isa) << " dims=" << n;
      EXPECT_NEAR(set.dot_dd(bd.data(), cd.data(), n), dotdd_ref,
                  tol_for(std::fabs(dotdd_ref), n))
          << isa_name(isa) << " dims=" << n;
      EXPECT_NEAR(set.sqdist_dd(bd.data(), cd.data(), n), sqdd_ref,
                  tol_for(sqdd_ref, n))
          << isa_name(isa) << " dims=" << n;
    }
  }
}

TEST_F(KernelParity, DotFdAgreesWithDdotOnPromotedInput) {
  // When the double row is an exact copy of a float row, dot_fd reduces
  // the same exact products as ddot (float x float is exact in double);
  // only the summation order may differ, so the gap is bounded by a few
  // ulps per term rather than the usual float tolerance.
  for (const std::size_t n : kDims) {
    const auto a = make_input(n, 53 + n);
    const auto b = make_input(n, 59 + n);
    const AlignedVector<double> bd{b.begin(), b.end()};
    for (const auto& [isa, set] : variants()) {
      const double fd = set.dot_fd(a.data(), bd.data(), n);
      const double dd = set.ddot(a.data(), b.data(), n);
      const double bound = 64.0 * static_cast<double>(n + 1) *
                           std::numeric_limits<double>::epsilon() *
                           (std::fabs(dd) + 1.0);
      EXPECT_NEAR(fd, dd, bound) << isa_name(isa) << " dims=" << n;
    }
  }
}

TEST_F(KernelParity, DoubleElementwiseMatchScalar) {
  for (const std::size_t n : kDims) {
    const auto x = make_input(n, 19 + n);
    const auto y0 = make_input_d(n, 23 + n);
    for (const auto& [isa, set] : variants()) {
      AlignedVector<double> y(y0);
      AlignedVector<double> yref(y0);
      set.add_fd(x.data(), y.data(), n);
      scalar::add_fd(x.data(), yref.data(), n);
      AlignedVector<double> z(y0);
      AlignedVector<double> zref(y0);
      set.scale_d(z.data(), 0.125, n);
      scalar::scale_d(zref.data(), 0.125, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(y[i], yref[i], tol_for(std::fabs(yref[i]), 1))
            << isa_name(isa) << " add_fd dims=" << n;
        EXPECT_EQ(z[i], zref[i]) << isa_name(isa) << " scale_d dims=" << n;
      }
    }
  }
}

/// Deterministic code bytes covering the full range, with the saturation
/// edges (0 and 255) planted at fixed strides.
AlignedVector<std::uint8_t> make_codes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(rng.next_below(256));
    if (i % 5 == 0) out[i] = 0;
    if (i % 5 == 2) out[i] = 255;
  }
  return out;
}

TEST_F(KernelParity, PqAdcBitMatchesScalar) {
  // The quantized kernels promise bit-exactness (see kernels.hpp): every
  // variant uses the same 8-lane accumulation and the shared adc_reduce8
  // reduction tree, so this is EXPECT_EQ, not EXPECT_NEAR.
  for (const std::size_t m : kDims) {
    const auto lut = make_input(m * kPqLutStride, 61 + m);
    const auto codes = make_codes(m, 67 + m);
    const float ref = scalar::pq_adc(lut.data(), codes.data(), m);
    for (const auto& [isa, set] : variants()) {
      EXPECT_EQ(set.pq_adc(lut.data(), codes.data(), m), ref)
          << isa_name(isa) << " m=" << m;
    }
  }
}

TEST_F(KernelParity, PqLutBitMatchesScalar) {
  // Every entry must equal float(scalar::sqdist) over the codeword — the
  // per-entry formula the ADC table had before the kernel existed — on
  // every variant, bit for bit. Subspace widths cover below, at and past
  // one 4-double register; the 1e-20 pass rounds sums into float
  // denormals.
  //
  // Random inputs almost never expose a fused multiply-add: the double
  // sums differ in the last bit, which the rounding to float hides. So
  // for d >= 2 codeword 0 is a crafted case whose exact sum d0² + d1² is
  // just above a double tie that sits on a float tie: mul-then-add rounds
  // d1² down, lands on the tie and gives 1.0f; an FMA accumulation gives
  // 0x1.000002p+0. Its remaining dimensions equal q's, adding zeros.
  for (const std::size_t d : {1, 2, 3, 4, 7, 8, 9, 13}) {
    for (const float magnitude : {1.0f, 1e-20f}) {
      auto q = make_input(d, 89 + d);
      auto book = make_input(d * kPqLutStride, 97 + d);  // dimension-major
      for (float& x : q) x *= magnitude;
      for (float& x : book) x *= magnitude;
      if (d >= 2) {
        q[0] = 1.0f;
        q[1] = 0x1.0f876cp-11f;
        book[0] = 0x1.cp-24f;
        book[kPqLutStride] = -0x1.ca0bep-37f;
        for (std::size_t j = 2; j < d; ++j) book[j * kPqLutStride] = q[j];
      }
      AlignedVector<float> ref(kPqLutStride);
      scalar::pq_lut(q.data(), book.data(), d, ref.data());
      if (d >= 2) {
        EXPECT_EQ(ref[0], 1.0f) << "d=" << d;
      }
      std::vector<float> codeword(d);
      for (std::size_t c = 0; c < kPqLutStride; ++c) {
        for (std::size_t j = 0; j < d; ++j) codeword[j] = book[j * kPqLutStride + c];
        EXPECT_EQ(ref[c],
                  static_cast<float>(scalar::sqdist(q.data(), codeword.data(), d)))
            << "d=" << d << " magnitude=" << magnitude << " c=" << c;
      }
      for (const auto& [isa, set] : variants()) {
        AlignedVector<float> got(kPqLutStride);
        set.pq_lut(q.data(), book.data(), d, got.data());
        for (std::size_t c = 0; c < kPqLutStride; ++c) {
          EXPECT_EQ(got[c], ref[c]) << isa_name(isa) << " d=" << d
                                    << " magnitude=" << magnitude << " c=" << c;
        }
      }
    }
  }
}

TEST_F(KernelParity, Sq8KernelsBitMatchScalar) {
  for (const std::size_t n : kDims) {
    const auto q = make_input(n, 71 + n);
    const auto codes = make_codes(n, 73 + n);
    const auto vmin = make_input(n, 79 + n);
    // Scales must be non-negative (affine quantizer ranges); keep the
    // denormals from make_input in play to exercise underflow edges.
    auto scale = make_input(n, 83 + n);
    for (std::size_t i = 0; i < n; ++i) {
      scale[i] = std::fabs(scale[i]);
      if (i % 13 == 4) scale[i] = 0.0f;  // degenerate constant dimension
    }
    const float sq_ref =
        scalar::sq8_sqdist(q.data(), codes.data(), vmin.data(), scale.data(), n);
    const float dot_ref =
        scalar::sq8_dot(q.data(), codes.data(), vmin.data(), scale.data(), n);
    for (const auto& [isa, set] : variants()) {
      EXPECT_EQ(set.sq8_sqdist(q.data(), codes.data(), vmin.data(),
                               scale.data(), n),
                sq_ref)
          << isa_name(isa) << " dims=" << n;
      EXPECT_EQ(set.sq8_dot(q.data(), codes.data(), vmin.data(), scale.data(),
                            n),
                dot_ref)
          << isa_name(isa) << " dims=" << n;
    }
  }
}

/// True when the first n floats of a and b are the same bytes.
bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Checks RowOps<isa> against the KernelSet members it stands for, byte
/// for byte: dot, add, scale and fill against theirs, axpy_pair against
/// the trainer's former pair of axpy calls (grad += g*row, then
/// row += g*input). Widths cover the scalar tails of both SIMD variants
/// (1, 7, 13, and 100 = 12 x 8 + 4) and whole registers (8, 32).
template <Isa isa>
void expect_row_ops_match(const KernelSet& set) {
  using Ops = RowOps<isa>;
  for (const std::size_t n : {1, 7, 8, 13, 32, 100}) {
    const auto a = make_input(n, 131 + n);
    const auto b = make_input(n, 137 + n);
    const float dot_want = set.dot(a.data(), b.data(), n);
    const float dot_got = Ops::dot(a.data(), b.data(), n);
    EXPECT_TRUE(same_bytes(&dot_got, &dot_want, 1)) << isa_name(isa) << " dot n=" << n;

    AlignedVector<float> want(b);
    AlignedVector<float> got(b);
    set.add(a.data(), want.data(), n);
    Ops::add(a.data(), got.data(), n);
    EXPECT_TRUE(same_bytes(got.data(), want.data(), n))
        << isa_name(isa) << " add n=" << n;
    set.scale(want.data(), -1.75f, n);
    Ops::scale(got.data(), -1.75f, n);
    EXPECT_TRUE(same_bytes(got.data(), want.data(), n))
        << isa_name(isa) << " scale n=" << n;
    set.fill(want.data(), 0.0f, n);
    Ops::fill(got.data(), 0.0f, n);
    EXPECT_TRUE(same_bytes(got.data(), want.data(), n))
        << isa_name(isa) << " fill n=" << n;

    const auto input = make_input(n, 139 + n);
    const float g = -0.37f;
    AlignedVector<float> row_want(a);
    AlignedVector<float> grad_want(b);
    set.axpy(g, row_want.data(), grad_want.data(), n);
    set.axpy(g, input.data(), row_want.data(), n);
    AlignedVector<float> row_got(a);
    AlignedVector<float> grad_got(b);
    Ops::axpy_pair(g, input.data(), row_got.data(), grad_got.data(), n);
    EXPECT_TRUE(same_bytes(grad_got.data(), grad_want.data(), n))
        << isa_name(isa) << " axpy_pair grad n=" << n;
    EXPECT_TRUE(same_bytes(row_got.data(), row_want.data(), n))
        << isa_name(isa) << " axpy_pair row n=" << n;
  }
}

TEST_F(KernelParity, RowOpsMatchTheirKernelSetBitForBit) {
  for (const auto& [isa, set] : variants()) {
    switch (isa) {
      case Isa::kScalar:
        expect_row_ops_match<Isa::kScalar>(set);
        break;
#if V2V_KERNELS_X86
      case Isa::kSse2:
        expect_row_ops_match<Isa::kSse2>(set);
        break;
      case Isa::kAvx2:
        expect_row_ops_match<Isa::kAvx2>(set);
        break;
#endif
      default:
        ADD_FAILURE() << "no RowOps for " << isa_name(isa);
    }
  }
}

TEST(KernelDispatch, ActiveIsaIsCompiledAndNamed) {
  const Isa isa = active_isa();
  const std::string name = active_isa_name();
  EXPECT_FALSE(name.empty());
  EXPECT_STRNE(isa_name(isa), "unknown");
  bool found = false;
  for (const auto& [v, set] : compiled_variants()) {
    (void)set;
    if (v == isa) found = true;
  }
#if V2V_TSAN_ENABLED
  // Under TSan the kernels are pinned to the scalar reference.
  EXPECT_EQ(isa, Isa::kScalar);
#endif
  if (!force_scalar_requested()) {
    EXPECT_TRUE(found) << "active ISA not among compiled variants";
  }
}

TEST(KernelDispatch, ForceScalarDetection) {
  EXPECT_EQ(detect_isa(true), Isa::kScalar);
  // Honors the environment: under V2V_FORCE_SCALAR=1 (the CI generic
  // lane) the dispatcher must land on scalar.
  if (force_scalar_requested()) {
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
}

TEST(KernelDispatch, PublicEntryPointsMatchActiveVariant) {
  const std::size_t n = 129;
  const auto a = make_input(n, 101);
  const auto b = make_input(n, 103);
  // The free functions must agree with whichever variant dispatch picked.
  const double ref = static_cast<double>(dot(a.data(), b.data(), n));
  bool matched = false;
  for (const auto& [isa, set] : compiled_variants()) {
    if (isa == active_isa()) {
      EXPECT_EQ(static_cast<double>(set.dot(a.data(), b.data(), n)), ref);
      matched = true;
    }
  }
  EXPECT_TRUE(matched || force_scalar_requested());
}

}  // namespace
}  // namespace v2v::kernels
