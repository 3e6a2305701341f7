// Runtime-dispatched SIMD variants of the kernel layer.
//
// The ISA variants live behind __attribute__((target(...))): here, and
// for the trainer's row operations (dot, axpy, scale, add, fill) as
// inline bodies in kernels.hpp, which this file's KernelSets point at.
// Every file compiles with the project's baseline flags and only the
// marked functions use wider instructions; nothing above SSE2 executes
// unless __builtin_cpu_supports says the CPU has it. Loads/stores use the
// unaligned intrinsic forms — cost-free on the 64-byte-aligned rows
// MatrixF hands us, and safe for callers passing arbitrary scratch
// buffers.
//
// This TU is only built when V2V_TSAN_ENABLED is 0 as far as dispatch is
// concerned: under TSan the header inlines every kernel to the relaxed
// scalar reference and the functions here are never referenced (the
// introspection helpers below still are).

#include "v2v/common/kernels.hpp"

#include <cstdlib>

#if V2V_KERNELS_X86
#include <cpuid.h>
#endif

namespace v2v::kernels {

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool force_scalar_requested() noexcept {
  const char* env = std::getenv("V2V_FORCE_SCALAR");
  if (env == nullptr) return false;
  return env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

namespace scalar {

// The quantized-kernel references live here rather than in the header so
// they always compile under this TU's -ffp-contract=off (src/CMakeLists):
// GCC fuses mul+add across statements when FMA is available, and a fused
// decode would break bit-equality with the mul-then-add SIMD variants.
// pq_adc and the sq8 pair accumulate term i into lane i % 8 and reduce
// with adc_reduce8; pq_lut sums each entry in dimension order like
// scalar::sqdist. Those are the exact orders every SIMD variant reproduces.

void pq_adc(const float* lut, const std::uint8_t* codes, std::size_t m,
            std::size_t count, float* out) noexcept {
  // One named accumulator per lane keeps the lanes in registers; indexing
  // an array by s & 7 sends every add through memory (about 3x slower).
  constexpr std::size_t kS = kPqLutStride;
  for (std::size_t i = 0; i < count; ++i, codes += m) {
    float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
    float l4 = 0.0f, l5 = 0.0f, l6 = 0.0f, l7 = 0.0f;
    std::size_t s = 0;
    for (; s + 8 <= m; s += 8) {
      const float* t = lut + s * kS;
      const std::uint8_t* c = codes + s;
      l0 += t[c[0]];
      l1 += t[kS + c[1]];
      l2 += t[2 * kS + c[2]];
      l3 += t[3 * kS + c[3]];
      l4 += t[4 * kS + c[4]];
      l5 += t[5 * kS + c[5]];
      l6 += t[6 * kS + c[6]];
      l7 += t[7 * kS + c[7]];
    }
    // The last m % 8 terms land in lanes 0 .. m % 8 - 1.
    const std::size_t rest = m - s;
    const float* t = lut + s * kS;
    const std::uint8_t* c = codes + s;
    if (rest > 0) l0 += t[c[0]];
    if (rest > 1) l1 += t[kS + c[1]];
    if (rest > 2) l2 += t[2 * kS + c[2]];
    if (rest > 3) l3 += t[3 * kS + c[3]];
    if (rest > 4) l4 += t[4 * kS + c[4]];
    if (rest > 5) l5 += t[5 * kS + c[5]];
    if (rest > 6) l6 += t[6 * kS + c[6]];
    const float lanes[8] = {l0, l1, l2, l3, l4, l5, l6, l7};
    out[i] = adc_reduce8(lanes);
  }
}

void pq_lut(const float* q, const float* book, std::size_t d,
            float* lut) noexcept {
  // Dimension-outer, codeword-inner: each entry still sums its d terms in
  // dimension order (what scalar::sqdist does), and the inner loop runs
  // over contiguous book rows, so the compiler vectorizes it.
  double acc[kPqLutStride] = {};
  for (std::size_t j = 0; j < d; ++j) {
    const double qj = static_cast<double>(q[j]);
    const float* row = book + j * kPqLutStride;
    for (std::size_t c = 0; c < kPqLutStride; ++c) {
      const double diff = qj - static_cast<double>(row[c]);
      acc[c] += diff * diff;
    }
  }
  for (std::size_t c = 0; c < kPqLutStride; ++c) {
    lut[c] = static_cast<float>(acc[c]);
  }
}

float sq8_sqdist(const float* q, const std::uint8_t* codes, const float* vmin,
                 const float* scale, std::size_t n) noexcept {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (std::size_t i = 0; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float diff = q[i] - decoded;
    const float sq = diff * diff;
    lanes[i & 7] += sq;
  }
  return adc_reduce8(lanes);
}

float sq8_dot(const float* q, const std::uint8_t* codes, const float* vmin,
              const float* scale, std::size_t n) noexcept {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (std::size_t i = 0; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float term = q[i] * decoded;
    lanes[i & 7] += term;
  }
  return adc_reduce8(lanes);
}

}  // namespace scalar

namespace {

KernelSet scalar_set() noexcept {
  return KernelSet{&scalar::dot,    &scalar::axpy,      &scalar::scale,
                   &scalar::add,    &scalar::fill,      &scalar::ddot,
                   &scalar::sqdist, &scalar::sqdist_fd, &scalar::add_fd,
                   &scalar::scale_d, &scalar::dot_fd,   &scalar::dot_dd,
                   &scalar::sqdist_dd, &scalar::pq_adc, &scalar::pq_lut,
                   &scalar::sq8_sqdist, &scalar::sq8_dot};
}

#if V2V_KERNELS_X86

// The fixed-form intrinsic macros (extract/shuffle) expand to C-style
// casts inside our TU; silence the cast lints for the variant bodies only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wold-style-cast"

// ---------------------------------------------------------------- SSE2 --
//
// Six members keep an SSE2 body: dot (sse2::dot, in kernels.hpp), ddot,
// sqdist, sqdist_fd, sq8_sqdist, sq8_dot. bench/bench_micro_kernels
// measures each against the scalar reference and CI requires >= 1.2x.
// sse2_set() points the other members at the reference: GCC -O3 already
// vectorizes the elementwise loops (axpy, scale, add, fill, add_fd,
// scale_d) at the x86-64 baseline, the double reductions (dot_fd,
// dot_dd, sqdist_dd) gained too little over the reference's packed
// multiplies to keep a body, and pq_adc's lane inserts ran at 0.8x the
// reference's register lanes on a list call (so did AVX2's gathers).

__attribute__((target("sse2"))) double sse2_ddot(const float* a, const float* b,
                                                 std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 fa = _mm_loadu_ps(a + i);
    const __m128 fb = _mm_loadu_ps(b + i);
    const __m128d lo = _mm_mul_pd(_mm_cvtps_pd(fa), _mm_cvtps_pd(fb));
    const __m128d hi = _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(fa, fa)),
                                  _mm_cvtps_pd(_mm_movehl_ps(fb, fb)));
    acc = _mm_add_pd(acc, _mm_add_pd(lo, hi));
  }
  double sum = _mm_cvtsd_f64(_mm_add_pd(acc, _mm_unpackhi_pd(acc, acc)));
  for (; i < n; ++i) {
    sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return sum;
}

__attribute__((target("sse2"))) double sse2_sqdist(const float* a, const float* b,
                                                   std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 fa = _mm_loadu_ps(a + i);
    const __m128 fb = _mm_loadu_ps(b + i);
    const __m128d dlo = _mm_sub_pd(_mm_cvtps_pd(fa), _mm_cvtps_pd(fb));
    const __m128d dhi = _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(fa, fa)),
                                   _mm_cvtps_pd(_mm_movehl_ps(fb, fb)));
    acc = _mm_add_pd(acc, _mm_add_pd(_mm_mul_pd(dlo, dlo), _mm_mul_pd(dhi, dhi)));
  }
  double sum = _mm_cvtsd_f64(_mm_add_pd(acc, _mm_unpackhi_pd(acc, acc)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

__attribute__((target("sse2"))) double sse2_sqdist_fd(const float* a, const double* b,
                                                      std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d da =
        _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(a + i))));
    const __m128d d = _mm_sub_pd(da, _mm_loadu_pd(b + i));
    acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
  }
  double sum = _mm_cvtsd_f64(_mm_add_pd(acc, _mm_unpackhi_pd(acc, acc)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

// Quantized asymmetric-distance variants. Contract (see kernels.hpp): term
// i lands in lane i % 8 in index order, lane spill + scalar tail + the
// shared adc_reduce8 tree, mul and add kept as separate rounded ops (never
// fmadd) — so every variant is bit-identical to the scalar reference.
// pq_lut has no SSE2 variant: the set points at scalar::pq_lut, whose
// inner loop the compiler already vectorizes at this baseline. pq_adc has
// no variant at all (see kernels.hpp).

/// Widens 8 packed code bytes at `codes` to two float vectors (lanes 0-3
/// and 4-7). Exact: u8 -> i32 -> f32.
__attribute__((target("sse2"))) inline void sse2_codes_to_ps(
    const std::uint8_t* codes, __m128& lo, __m128& hi) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i raw =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes));
  const __m128i w16 = _mm_unpacklo_epi8(raw, zero);
  lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w16, zero));
  hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w16, zero));
}

__attribute__((target("sse2"))) float sse2_sq8_sqdist(const float* q,
                                                      const std::uint8_t* codes,
                                                      const float* vmin,
                                                      const float* scale,
                                                      std::size_t n) {
  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128 cf_lo, cf_hi;
    sse2_codes_to_ps(codes + i, cf_lo, cf_hi);
    const __m128 dec_lo = _mm_add_ps(_mm_loadu_ps(vmin + i),
                                     _mm_mul_ps(_mm_loadu_ps(scale + i), cf_lo));
    const __m128 dec_hi =
        _mm_add_ps(_mm_loadu_ps(vmin + i + 4),
                   _mm_mul_ps(_mm_loadu_ps(scale + i + 4), cf_hi));
    const __m128 diff_lo = _mm_sub_ps(_mm_loadu_ps(q + i), dec_lo);
    const __m128 diff_hi = _mm_sub_ps(_mm_loadu_ps(q + i + 4), dec_hi);
    acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(diff_lo, diff_lo));
    acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(diff_hi, diff_hi));
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, acc_lo);
  _mm_store_ps(lanes + 4, acc_hi);
  for (; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float diff = q[i] - decoded;
    const float sq = diff * diff;
    lanes[i & 7] += sq;
  }
  return scalar::adc_reduce8(lanes);
}

__attribute__((target("sse2"))) float sse2_sq8_dot(const float* q,
                                                   const std::uint8_t* codes,
                                                   const float* vmin,
                                                   const float* scale,
                                                   std::size_t n) {
  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128 cf_lo, cf_hi;
    sse2_codes_to_ps(codes + i, cf_lo, cf_hi);
    const __m128 dec_lo = _mm_add_ps(_mm_loadu_ps(vmin + i),
                                     _mm_mul_ps(_mm_loadu_ps(scale + i), cf_lo));
    const __m128 dec_hi =
        _mm_add_ps(_mm_loadu_ps(vmin + i + 4),
                   _mm_mul_ps(_mm_loadu_ps(scale + i + 4), cf_hi));
    acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(_mm_loadu_ps(q + i), dec_lo));
    acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(_mm_loadu_ps(q + i + 4), dec_hi));
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, acc_lo);
  _mm_store_ps(lanes + 4, acc_hi);
  for (; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float term = q[i] * decoded;
    lanes[i & 7] += term;
  }
  return scalar::adc_reduce8(lanes);
}

KernelSet sse2_set() noexcept {
  return KernelSet{&sse2::dot,       &scalar::axpy,    &scalar::scale,
                   &scalar::add,     &scalar::fill,    &sse2_ddot,
                   &sse2_sqdist,     &sse2_sqdist_fd,  &scalar::add_fd,
                   &scalar::scale_d, &scalar::dot_fd,  &scalar::dot_dd,
                   &scalar::sqdist_dd, &scalar::pq_adc, &scalar::pq_lut,
                   &sse2_sq8_sqdist, &sse2_sq8_dot};
}

// ------------------------------------------------------------ AVX2/FMA --
//
// dot, axpy, scale, add and fill are kernels.hpp's avx2:: bodies.

__attribute__((target("avx2,fma"))) double avx2_ddot(const float* a, const float* b,
                                                     std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    acc = _mm256_fmadd_pd(da, db, acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) {
    sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double avx2_sqdist(const float* a, const float* b,
                                                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                    _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double avx2_sqdist_fd(const float* a,
                                                          const double* b,
                                                          std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) void avx2_add_fd(const float* x, double* y,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), dx));
  }
  for (; i < n; ++i) y[i] += static_cast<double>(x[i]);
}

__attribute__((target("avx2,fma"))) void avx2_scale_d(double* x, double alpha,
                                                      std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma"))) double avx2_dot_fd(const float* a,
                                                       const double* b,
                                                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    acc = _mm256_fmadd_pd(da, _mm256_loadu_pd(b + i), acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) double avx2_dot_dd(const double* a,
                                                       const double* b,
                                                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) double avx2_sqdist_dd(const double* a,
                                                          const double* b,
                                                          std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_pd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) void avx2_pq_lut(const float* q,
                                                     const float* book,
                                                     std::size_t d, float* lut) {
  // 16 codewords per block in four 4-double accumulators; each entry sums
  // its d terms in dimension order with mul then add (never fmadd), as
  // scalar::pq_lut does, then rounds once to float.
  for (std::size_t c = 0; c < kPqLutStride; c += 16) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < d; ++j) {
      const __m256d qj = _mm256_set1_pd(static_cast<double>(q[j]));
      const float* row = book + j * kPqLutStride + c;
      const __m256d d0 = _mm256_sub_pd(qj, _mm256_cvtps_pd(_mm_loadu_ps(row)));
      const __m256d d1 = _mm256_sub_pd(qj, _mm256_cvtps_pd(_mm_loadu_ps(row + 4)));
      const __m256d d2 = _mm256_sub_pd(qj, _mm256_cvtps_pd(_mm_loadu_ps(row + 8)));
      const __m256d d3 =
          _mm256_sub_pd(qj, _mm256_cvtps_pd(_mm_loadu_ps(row + 12)));
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
    }
    _mm_storeu_ps(lut + c, _mm256_cvtpd_ps(acc0));
    _mm_storeu_ps(lut + c + 4, _mm256_cvtpd_ps(acc1));
    _mm_storeu_ps(lut + c + 8, _mm256_cvtpd_ps(acc2));
    _mm_storeu_ps(lut + c + 12, _mm256_cvtpd_ps(acc3));
  }
}

__attribute__((target("avx2,fma"))) float avx2_sq8_sqdist(
    const float* q, const std::uint8_t* codes, const float* vmin,
    const float* scale, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 cf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i))));
    // mul then add, not fmadd: bit-parity with the scalar reference.
    const __m256 decoded = _mm256_add_ps(
        _mm256_loadu_ps(vmin + i), _mm256_mul_ps(_mm256_loadu_ps(scale + i), cf));
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(q + i), decoded);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float diff = q[i] - decoded;
    const float sq = diff * diff;
    lanes[i & 7] += sq;
  }
  return scalar::adc_reduce8(lanes);
}

__attribute__((target("avx2,fma"))) float avx2_sq8_dot(const float* q,
                                                       const std::uint8_t* codes,
                                                       const float* vmin,
                                                       const float* scale,
                                                       std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 cf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i))));
    const __m256 decoded = _mm256_add_ps(
        _mm256_loadu_ps(vmin + i), _mm256_mul_ps(_mm256_loadu_ps(scale + i), cf));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(q + i), decoded));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    const float prod = scale[i] * static_cast<float>(codes[i]);
    const float decoded = vmin[i] + prod;
    const float term = q[i] * decoded;
    lanes[i & 7] += term;
  }
  return scalar::adc_reduce8(lanes);
}

KernelSet avx2_set() noexcept {
  return KernelSet{&avx2::dot,   &avx2::axpy,     &avx2::scale, &avx2::add,
                   &avx2::fill,  &avx2_ddot,      &avx2_sqdist, &avx2_sqdist_fd,
                   &avx2_add_fd, &avx2_scale_d,   &avx2_dot_fd, &avx2_dot_dd,
                   &avx2_sqdist_dd, &scalar::pq_adc, &avx2_pq_lut,
                   &avx2_sq8_sqdist, &avx2_sq8_dot};
}

#pragma GCC diagnostic pop

[[nodiscard]] bool cpu_has_avx2_fma() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // V2V_KERNELS_X86

#if !V2V_TSAN_ENABLED

struct Resolved {
  Isa isa;
  KernelSet set;
};

Resolved resolve_kernels() noexcept {
  const bool force = force_scalar_requested();
#if V2V_KERNELS_X86
  if (!force) {
    if (cpu_has_avx2_fma()) return Resolved{Isa::kAvx2, avx2_set()};
    return Resolved{Isa::kSse2, sse2_set()};
  }
#endif
  (void)force;
  return Resolved{Isa::kScalar, scalar_set()};
}

const Resolved& active() noexcept {
  static const Resolved resolved = resolve_kernels();
  return resolved;
}

#endif  // !V2V_TSAN_ENABLED

}  // namespace

Isa detect_isa(bool force_scalar) noexcept {
  if (force_scalar) return Isa::kScalar;
#if V2V_KERNELS_X86
  return cpu_has_avx2_fma() ? Isa::kAvx2 : Isa::kSse2;
#else
  return Isa::kScalar;
#endif
}

bool has_prefetchw() noexcept {
#if defined(__x86_64__)
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(0x80000001u, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & (1u << 8)) != 0;
  }();
  return supported;
#else
  return false;
#endif
}

std::vector<std::pair<Isa, KernelSet>> compiled_variants() {
  std::vector<std::pair<Isa, KernelSet>> variants;
  variants.emplace_back(Isa::kScalar, scalar_set());
#if V2V_KERNELS_X86
  variants.emplace_back(Isa::kSse2, sse2_set());
  if (cpu_has_avx2_fma()) variants.emplace_back(Isa::kAvx2, avx2_set());
#endif
  return variants;
}

#if V2V_TSAN_ENABLED

Isa active_isa() noexcept { return Isa::kScalar; }

#else

Isa active_isa() noexcept { return active().isa; }

float dot(const float* a, const float* b, std::size_t n) noexcept {
  return active().set.dot(a, b, n);
}
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  active().set.axpy(alpha, x, y, n);
}
void scale(float* x, float alpha, std::size_t n) noexcept {
  active().set.scale(x, alpha, n);
}
void add(const float* x, float* y, std::size_t n) noexcept { active().set.add(x, y, n); }
void fill(float* x, float value, std::size_t n) noexcept {
  active().set.fill(x, value, n);
}
double ddot(const float* a, const float* b, std::size_t n) noexcept {
  return active().set.ddot(a, b, n);
}
double sqdist(const float* a, const float* b, std::size_t n) noexcept {
  return active().set.sqdist(a, b, n);
}
double sqdist_fd(const float* a, const double* b, std::size_t n) noexcept {
  return active().set.sqdist_fd(a, b, n);
}
void add_fd(const float* x, double* y, std::size_t n) noexcept {
  active().set.add_fd(x, y, n);
}
void scale_d(double* x, double alpha, std::size_t n) noexcept {
  active().set.scale_d(x, alpha, n);
}
double dot_fd(const float* a, const double* b, std::size_t n) noexcept {
  return active().set.dot_fd(a, b, n);
}
double dot_dd(const double* a, const double* b, std::size_t n) noexcept {
  return active().set.dot_dd(a, b, n);
}
double sqdist_dd(const double* a, const double* b, std::size_t n) noexcept {
  return active().set.sqdist_dd(a, b, n);
}
void pq_adc(const float* lut, const std::uint8_t* codes, std::size_t m,
            std::size_t count, float* out) noexcept {
  active().set.pq_adc(lut, codes, m, count, out);
}
void pq_lut(const float* q, const float* book, std::size_t d,
            float* lut) noexcept {
  active().set.pq_lut(q, book, d, lut);
}
float sq8_sqdist(const float* q, const std::uint8_t* codes, const float* vmin,
                 const float* scale, std::size_t n) noexcept {
  return active().set.sq8_sqdist(q, codes, vmin, scale, n);
}
float sq8_dot(const float* q, const std::uint8_t* codes, const float* vmin,
              const float* scale, std::size_t n) noexcept {
  return active().set.sq8_dot(q, codes, vmin, scale, n);
}

#endif  // V2V_TSAN_ENABLED

const char* active_isa_name() noexcept { return isa_name(active_isa()); }

}  // namespace v2v::kernels
