// SIMD kernel layer for the embedding/ML hot loops.
//
// Every elementwise row operation of the SGD trainer (dot, axpy, scale,
// add, fill; inlined per ISA through RowOps, end of file) and the distance
// loops of k-means / k-NN / t-SNE (sqdist, ddot, sqdist_fd, add_fd,
// scale_d) go through this header. The free functions dispatch once per
// process to the widest compiled variant the CPU supports:
//
//   ISA      | guard                      | width
//   ---------+----------------------------+---------------------------
//   AVX2/FMA | __builtin_cpu_supports     | 8 floats / 4 doubles
//   SSE2     | x86 baseline; a body only  | 4 floats / 2 doubles (7 of
//            | where bench_micro_kernels  | the 17 members; the others
//            | measures >= 1.2x scalar    | use the scalar reference)
//   scalar   | always; all non-x86 builds | 1
//
// Setting the environment variable V2V_FORCE_SCALAR=1 pins dispatch to the
// scalar reference (the CI "generic" lane runs the whole suite this way).
//
// Loads/stores use the unaligned intrinsic forms, free on the 64-byte
// aligned, line-padded MatrixF rows (common/aligned.hpp), so row traffic is
// cache-line-clean and Hogwild writers on adjacent rows never share a line.
//
// ThreadSanitizer interplay: the Hogwild trainer intentionally races on
// embedding rows, which is only standard-conformant through the relaxed
// atomic accessors of common/relaxed.hpp. Under V2V_SANITIZE=thread this
// header therefore compiles every kernel to the inline scalar reference,
// whose element accesses all go through relaxed_load/relaxed_store — no
// SIMD, no dispatch, bit-identical to the pre-kernel TSan story. In every
// other build the relaxed accessors are plain loads/stores, so the scalar
// reference is also the portable fallback variant.
//
// Accumulation order differs between variants (lane-wise partial sums),
// so float results may differ by a few ulps across ISAs; the parity suite
// (tests/common/test_kernels.cpp) bounds the drift on every compiled
// variant. For a fixed build and machine every path is deterministic.
// Exception: the quantized kernels (pq_adc, pq_lut, sq8_sqdist, sq8_dot)
// are BIT-identical across variants — one fixed summation order each (see
// their references), no FMA, -ffp-contract=off; parity uses EXPECT_EQ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/relaxed.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define V2V_KERNELS_X86 1
#include <immintrin.h>
#else
#define V2V_KERNELS_X86 0
#endif

namespace v2v::kernels {

/// Instruction sets a kernel variant may be compiled for.
enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2 };

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// One compiled variant as a bundle of function pointers; what the
/// dispatcher selects from and what the parity tests iterate over.
struct KernelSet {
  float (*dot)(const float*, const float*, std::size_t);
  void (*axpy)(float, const float*, float*, std::size_t);
  void (*scale)(float*, float, std::size_t);
  void (*add)(const float*, float*, std::size_t);
  void (*fill)(float*, float, std::size_t);
  double (*ddot)(const float*, const float*, std::size_t);
  double (*sqdist)(const float*, const float*, std::size_t);
  double (*sqdist_fd)(const float*, const double*, std::size_t);
  void (*add_fd)(const float*, double*, std::size_t);
  void (*scale_d)(double*, double, std::size_t);
  double (*dot_fd)(const float*, const double*, std::size_t);
  double (*dot_dd)(const double*, const double*, std::size_t);
  double (*sqdist_dd)(const double*, const double*, std::size_t);
  float (*pq_adc)(const float*, const std::uint8_t*, std::size_t);
  void (*pq_lut)(const float*, const float*, std::size_t, float*);
  float (*sq8_sqdist)(const float*, const std::uint8_t*, const float*,
                      const float*, std::size_t);
  float (*sq8_dot)(const float*, const std::uint8_t*, const float*,
                   const float*, std::size_t);
};

/// LUT row length of the PQ ADC kernel: one entry per possible code byte.
inline constexpr std::size_t kPqLutStride = 256;

/// Scalar reference implementations. Element accesses go through the
/// TSan-gated relaxed accessors: under ThreadSanitizer they are relaxed
/// atomics (Hogwild rows race by design), in every other build they are
/// plain loads/stores and these loops auto-vectorize.
namespace scalar {

[[nodiscard]] inline float dot(const float* a, const float* b, std::size_t n) noexcept {
  float sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i) sum += relaxed_load(a + i) * relaxed_load(b + i);
  return sum;
}

/// y += alpha * x
inline void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    relaxed_store(y + i, relaxed_load(y + i) + alpha * relaxed_load(x + i));
  }
}

/// One SGD pair's two updates in one pass: grad += g * row, then
/// row += g * input, element by element. Neither `grad` nor `input` may
/// alias `row`; then each element gets the same two roundings as
/// axpy(g, row, grad, n) followed by axpy(g, input, row, n).
inline void axpy_pair(float g, const float* input, float* row, float* grad,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float r = relaxed_load(row + i);
    relaxed_store(grad + i, relaxed_load(grad + i) + g * r);
    relaxed_store(row + i, r + g * relaxed_load(input + i));
  }
}

inline void scale(float* x, float alpha, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) relaxed_store(x + i, relaxed_load(x + i) * alpha);
}

/// y += x
inline void add(const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    relaxed_store(y + i, relaxed_load(y + i) + relaxed_load(x + i));
  }
}

inline void fill(float* x, float value, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) relaxed_store(x + i, value);
}

/// Double-accumulated dot over float rows (cosine distances).
[[nodiscard]] inline double ddot(const float* a, const float* b, std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(relaxed_load(a + i)) *
           static_cast<double>(relaxed_load(b + i));
  }
  return sum;
}

/// Double-accumulated squared Euclidean distance between float rows.
[[nodiscard]] inline double sqdist(const float* a, const float* b, std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(relaxed_load(a + i)) -
                     static_cast<double>(relaxed_load(b + i));
    sum += d * d;
  }
  return sum;
}

/// Squared distance between a float row and a double row (k-means
/// point-to-centroid).
[[nodiscard]] inline double sqdist_fd(const float* a, const double* b,
                                      std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(relaxed_load(a + i)) - relaxed_load(b + i);
    sum += d * d;
  }
  return sum;
}

/// y += x with float source and double destination (centroid accumulation).
inline void add_fd(const float* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    relaxed_store(y + i, relaxed_load(y + i) + static_cast<double>(relaxed_load(x + i)));
  }
}

inline void scale_d(double* x, double alpha, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) relaxed_store(x + i, relaxed_load(x + i) * alpha);
}

/// Double-accumulated dot between a float row and a double row (k-means
/// norm-cached distances: d² = ‖x‖² + ‖c‖² − 2⟨x,c⟩).
[[nodiscard]] inline double dot_fd(const float* a, const double* b,
                                   std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(relaxed_load(a + i)) * relaxed_load(b + i);
  }
  return sum;
}

/// Dot between two double rows (centroid norms).
[[nodiscard]] inline double dot_dd(const double* a, const double* b,
                                   std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += relaxed_load(a + i) * relaxed_load(b + i);
  return sum;
}

/// Squared Euclidean distance between two double rows (centroid drift).
[[nodiscard]] inline double sqdist_dd(const double* a, const double* b,
                                      std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = relaxed_load(a + i) - relaxed_load(b + i);
    sum += d * d;
  }
  return sum;
}

/// The one fixed reduction tree every quantized-kernel variant must use on
/// its 8 lane accumulators — the same shape a 256-bit register reduces in
/// (halves, then the classic 4-lane horizontal sum). With identical lane
/// contents (term i in lane i % 8, in index order) and this reduction,
/// float addition is fully determined, which is what makes the quantized
/// kernels bit-identical across ISAs.
[[nodiscard]] inline float adc_reduce8(const float* lanes) noexcept {
  const float s04 = lanes[0] + lanes[4];
  const float s15 = lanes[1] + lanes[5];
  const float s26 = lanes[2] + lanes[6];
  const float s37 = lanes[3] + lanes[7];
  return (s04 + s15) + (s26 + s37);
}

// Quantized asymmetric-distance references. Defined out of line in
// kernels.cpp — the one TU built with -ffp-contract=off — so no caller's
// flags can fuse the decode's mul+add into an FMA and break the bit-exact
// cross-variant contract. None of these touch Hogwild-raced memory, so
// plain loads are TSan-clean.
//
/// ADC accumulation for PQ: sum over s < m of lut[s * kPqLutStride +
/// codes[s]] — the per-query distance table gather over one packed code.
[[nodiscard]] float pq_adc(const float* lut, const std::uint8_t* codes,
                           std::size_t m) noexcept;
/// One subspace's ADC table for PQ: lut[c] = static_cast<float>(
/// sqdist(q, codeword c, d)) for every c < kPqLutStride, summed in
/// dimension order in double. `book` is dimension-major: d rows of
/// kPqLutStride floats, book[j * kPqLutStride + c] = dimension j of
/// codeword c.
void pq_lut(const float* q, const float* book, std::size_t d,
            float* lut) noexcept;
/// Asymmetric squared distance between a float query and an SQ8 row:
/// sum of (q[i] - (vmin[i] + scale[i] * codes[i]))².
[[nodiscard]] float sq8_sqdist(const float* q, const std::uint8_t* codes,
                               const float* vmin, const float* scale,
                               std::size_t n) noexcept;
/// Asymmetric dot between a float query and a decoded SQ8 row:
/// sum of q[i] * (vmin[i] + scale[i] * codes[i]).
[[nodiscard]] float sq8_dot(const float* q, const std::uint8_t* codes,
                            const float* vmin, const float* scale,
                            std::size_t n) noexcept;

}  // namespace scalar

#if V2V_KERNELS_X86

// The SIMD bodies of the trainer's row operations. Each is the body its
// ISA's KernelSet points at (kernels.cpp) and a RowOps member, so the
// dispatched call and the trainer's inlined loop run one body and give
// the same bits. The other SIMD members live in kernels.cpp.
//
// Every translation unit that calls these bodies compiles with
// -ffp-contract=off, like kernels.cpp (src/ and tests/ CMakeLists.txt
// list those units): without it a copy may fuse a scalar tail's mul+add
// into an FMA, and the linker keeps one copy of each inline body for the
// whole binary, the KernelSet's pointers included.

// The fixed-form intrinsic macros (extract/shuffle) expand to C-style
// casts; silence the cast lint for the variant bodies only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wold-style-cast"

namespace sse2 {

[[gnu::target("sse2")]] inline float dot(const float* a, const float* b,
                                         std::size_t n) noexcept {
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  // Horizontal sum of the 4 lanes.
  __m128 shuf = _mm_shuffle_ps(acc, acc, _MM_SHUFFLE(2, 3, 0, 1));
  __m128 sums = _mm_add_ps(acc, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  float sum = _mm_cvtss_f32(sums);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace sse2

namespace avx2 {

[[gnu::target("avx2,fma")]] inline float dot(const float* a, const float* b,
                                             std::size_t n) noexcept {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_shuffle_ps(lo, lo, _MM_SHUFFLE(2, 3, 0, 1));
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  float sum = _mm_cvtss_f32(sums);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

[[gnu::target("avx2,fma")]] inline void axpy(float alpha, const float* x, float* y,
                                             std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// scalar::axpy_pair's contract; the vector body is avx2::axpy's twice.
[[gnu::target("avx2,fma")]] inline void axpy_pair(float g, const float* input,
                                                  float* row, float* grad,
                                                  std::size_t n) noexcept {
  const __m256 vg = _mm256_set1_ps(g);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = _mm256_loadu_ps(row + i);
    _mm256_storeu_ps(grad + i, _mm256_fmadd_ps(vg, r, _mm256_loadu_ps(grad + i)));
    _mm256_storeu_ps(row + i, _mm256_fmadd_ps(vg, _mm256_loadu_ps(input + i), r));
  }
  for (; i < n; ++i) {
    const float r = row[i];
    grad[i] += g * r;
    row[i] = r + g * input[i];
  }
}

[[gnu::target("avx2,fma")]] inline void scale(float* x, float alpha,
                                              std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

[[gnu::target("avx2,fma")]] inline void add(const float* x, float* y,
                                            std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

[[gnu::target("avx2,fma")]] inline void fill(float* x, float value,
                                             std::size_t n) noexcept {
  const __m256 vv = _mm256_set1_ps(value);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, vv);
  for (; i < n; ++i) x[i] = value;
}

}  // namespace avx2

#pragma GCC diagnostic pop

#endif  // V2V_KERNELS_X86

#if V2V_TSAN_ENABLED

// ThreadSanitizer build: every kernel IS the relaxed scalar reference, so
// Hogwild row traffic stays standard-conformant and TSan-clean. No
// dispatch, no SIMD.
[[nodiscard]] inline float dot(const float* a, const float* b, std::size_t n) noexcept {
  return scalar::dot(a, b, n);
}
inline void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  scalar::axpy(alpha, x, y, n);
}
inline void scale(float* x, float alpha, std::size_t n) noexcept {
  scalar::scale(x, alpha, n);
}
inline void add(const float* x, float* y, std::size_t n) noexcept { scalar::add(x, y, n); }
inline void fill(float* x, float value, std::size_t n) noexcept {
  scalar::fill(x, value, n);
}
[[nodiscard]] inline double ddot(const float* a, const float* b, std::size_t n) noexcept {
  return scalar::ddot(a, b, n);
}
[[nodiscard]] inline double sqdist(const float* a, const float* b,
                                   std::size_t n) noexcept {
  return scalar::sqdist(a, b, n);
}
[[nodiscard]] inline double sqdist_fd(const float* a, const double* b,
                                      std::size_t n) noexcept {
  return scalar::sqdist_fd(a, b, n);
}
inline void add_fd(const float* x, double* y, std::size_t n) noexcept {
  scalar::add_fd(x, y, n);
}
inline void scale_d(double* x, double alpha, std::size_t n) noexcept {
  scalar::scale_d(x, alpha, n);
}
[[nodiscard]] inline double dot_fd(const float* a, const double* b,
                                   std::size_t n) noexcept {
  return scalar::dot_fd(a, b, n);
}
[[nodiscard]] inline double dot_dd(const double* a, const double* b,
                                   std::size_t n) noexcept {
  return scalar::dot_dd(a, b, n);
}
[[nodiscard]] inline double sqdist_dd(const double* a, const double* b,
                                      std::size_t n) noexcept {
  return scalar::sqdist_dd(a, b, n);
}
[[nodiscard]] inline float pq_adc(const float* lut, const std::uint8_t* codes,
                                  std::size_t m) noexcept {
  return scalar::pq_adc(lut, codes, m);
}
inline void pq_lut(const float* q, const float* book, std::size_t d,
                   float* lut) noexcept {
  scalar::pq_lut(q, book, d, lut);
}
[[nodiscard]] inline float sq8_sqdist(const float* q, const std::uint8_t* codes,
                                      const float* vmin, const float* scale,
                                      std::size_t n) noexcept {
  return scalar::sq8_sqdist(q, codes, vmin, scale, n);
}
[[nodiscard]] inline float sq8_dot(const float* q, const std::uint8_t* codes,
                                   const float* vmin, const float* scale,
                                   std::size_t n) noexcept {
  return scalar::sq8_dot(q, codes, vmin, scale, n);
}

#else

// Dispatched entry points: resolved once per process (CPU detection +
// V2V_FORCE_SCALAR), then one indirect call through the resolved
// KernelSet per call. Loops that run many row operations per call site
// (the SGD trainer) instantiate over RowOps instead.
[[nodiscard]] float dot(const float* a, const float* b, std::size_t n) noexcept;
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale(float* x, float alpha, std::size_t n) noexcept;
void add(const float* x, float* y, std::size_t n) noexcept;
void fill(float* x, float value, std::size_t n) noexcept;
[[nodiscard]] double ddot(const float* a, const float* b, std::size_t n) noexcept;
[[nodiscard]] double sqdist(const float* a, const float* b, std::size_t n) noexcept;
[[nodiscard]] double sqdist_fd(const float* a, const double* b, std::size_t n) noexcept;
void add_fd(const float* x, double* y, std::size_t n) noexcept;
void scale_d(double* x, double alpha, std::size_t n) noexcept;
[[nodiscard]] double dot_fd(const float* a, const double* b, std::size_t n) noexcept;
[[nodiscard]] double dot_dd(const double* a, const double* b, std::size_t n) noexcept;
[[nodiscard]] double sqdist_dd(const double* a, const double* b, std::size_t n) noexcept;
[[nodiscard]] float pq_adc(const float* lut, const std::uint8_t* codes,
                           std::size_t m) noexcept;
void pq_lut(const float* q, const float* book, std::size_t d,
            float* lut) noexcept;
[[nodiscard]] float sq8_sqdist(const float* q, const std::uint8_t* codes,
                               const float* vmin, const float* scale,
                               std::size_t n) noexcept;
[[nodiscard]] float sq8_dot(const float* q, const std::uint8_t* codes,
                            const float* vmin, const float* scale,
                            std::size_t n) noexcept;

#endif  // V2V_TSAN_ENABLED

/// True when the CPU implements the write-intent prefetch `prefetchw`
/// (x86-64 CPUID leaf 0x80000001, ECX bit 8: PRFCHW). Probed once per
/// process; false on other architectures.
[[nodiscard]] bool has_prefetchw() noexcept;

/// Write-intent prefetch of every cache line overlapping [p, p + bytes),
/// for memory about to be read and then written (a Hogwild output row).
/// With `prefetchw` set (pass has_prefetchw()) each line is fetched by
/// `prefetchw`, which asks for it in exclusive state so the later store
/// needs no ownership upgrade; otherwise by __builtin_prefetch(line, 1, 3).
/// A hint only: no architectural access, so it cannot fault or change a
/// result, and ThreadSanitizer never sees it.
inline void prefetch_for_write(const void* p, std::size_t bytes,
                               bool prefetchw) noexcept {
  constexpr std::uintptr_t kLine = kCacheLineBytes;
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t line = first & ~(kLine - 1); line < first + bytes; line += kLine) {
    const auto* addr = reinterpret_cast<const char*>(line);
#if defined(__x86_64__)
    if (prefetchw) {
      __asm__ volatile("prefetchw %0" : : "m"(*addr));
      continue;
    }
#else
    (void)prefetchw;
#endif
    __builtin_prefetch(addr, 1, 3);
  }
}

/// The ISA the free functions above resolved to (kScalar under TSan or
/// V2V_FORCE_SCALAR=1). Stable after the first call.
[[nodiscard]] Isa active_isa() noexcept;
[[nodiscard]] const char* active_isa_name() noexcept;

/// Every variant compiled into this binary that the current CPU can
/// execute, scalar first. The parity suite checks each against the scalar
/// reference.
[[nodiscard]] std::vector<std::pair<Isa, KernelSet>> compiled_variants();

/// What `Isa` the dispatcher would pick given a force-scalar request;
/// pure function of (flag, CPU), exposed for tests.
[[nodiscard]] Isa detect_isa(bool force_scalar) noexcept;

/// True when the V2V_FORCE_SCALAR environment variable is set to anything
/// other than "" or "0". Read fresh on every call; dispatch samples it
/// once at first use.
[[nodiscard]] bool force_scalar_requested() noexcept;

/// The SGD trainer's row operations for one ISA: the bodies that ISA's
/// KernelSet points at (dot, add, scale, fill), plus axpy_pair, which
/// stands for two of its axpy calls. The trainer instantiates its loop
/// once per specialization (embed/trainer.cpp), and the parity suite
/// checks each member against its KernelSet member bit for bit.
template <Isa isa>
struct RowOps;

template <>
struct RowOps<Isa::kScalar> {
  static constexpr auto dot = &scalar::dot;
  static constexpr auto add = &scalar::add;
  static constexpr auto scale = &scalar::scale;
  static constexpr auto fill = &scalar::fill;
  static constexpr auto axpy_pair = &scalar::axpy_pair;
};

#if V2V_KERNELS_X86

/// SSE2 keeps its own body for dot only (see kernels.cpp).
template <>
struct RowOps<Isa::kSse2> : RowOps<Isa::kScalar> {
  static constexpr auto dot = &sse2::dot;
};

template <>
struct RowOps<Isa::kAvx2> {
  static constexpr auto dot = &avx2::dot;
  static constexpr auto add = &avx2::add;
  static constexpr auto scale = &avx2::scale;
  static constexpr auto fill = &avx2::fill;
  static constexpr auto axpy_pair = &avx2::axpy_pair;
};

#endif  // V2V_KERNELS_X86

}  // namespace v2v::kernels
