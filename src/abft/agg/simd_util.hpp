// Internal: laned floating-point reductions for the relaxed-parity
// (AggMode::fast) kernels, templated on the element type T in {double,
// float} — the f64 fast lane and the f32 lane (Precision::f32) run the same
// kernel bodies.
//
// GCC/Clang will not auto-vectorize a plain `sum += a[k] * b[k]` reduction
// (the sequential order of sqdist below) without -ffast-math because it
// reorders the additions; the laned_* loops carry independent partial sums
// (groups of kLanes<T> — one 512-bit vector each, enough ILP to cover the
// FMA latency chain) so the compiler vectorizes them at -O2 and the result
// is deterministic for a given (d, T, ISA) — just not bit-equal to the
// sequential exact-mode order.  Exact-mode kernels must NOT call them.
// Lane accumulation stays in T (for float each lane sums ~d/16 products —
// the sqrt(d/16) * 2^-24 relative error is far inside every f32 tolerance
// envelope); tails and the final cross-lane reduction widen to double.
// (The coreset construction pass in agg/coreset.cpp vectorizes differently —
// across rows on a column-major layout, which keeps each row's summation
// sequential in k; only its runtime-dispatched AVX-512 colmajor variant
// below, whose FMA contraction can round differently, is fast-mode-gated.)
#pragma once

#include <cstddef>
#include <type_traits>

#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
#define ABFT_AVX512 1
#include <immintrin.h>
#endif

namespace abft::agg::detail {

/// Partial sums per group: one 512-bit vector of T (8 doubles, 16 floats).
template <typename T>
inline constexpr int kLanes = static_cast<int>(64 / sizeof(T));

/// Minimum dimension for the f32 distance-pass lanes (Weiszfeld, CClip).
/// Below this the per-row fixed costs of the f32 path — the iterate demotion
/// and the wider horizontal reduction — outweigh the halved streaming
/// traffic, and the f64 fast path is measurably quicker (breakeven sits near
/// d = 300-500 for both kernels at n = 50); the knob is a documented no-op
/// there.  Rank-kernel rules (cwtm, cwmed) and the Gram-based rules gate
/// differently and do not use this constant.
inline constexpr int kF32DistanceLaneMinDim = 512;

/// True when the AVX-512 kernels may run: compile-time ISA support AND a
/// runtime CPU check (one cpuid probe, cached), so a binary built with
/// -march=native on an AVX-512 host degrades safely elsewhere.
inline bool avx512_available() {
#if defined(ABFT_AVX512)
  static const bool available = __builtin_cpu_supports("avx512f") != 0;
  return available;
#else
  return false;
#endif
}

/// sum_k (a[k] - b[k])^2 in ascending-k order, in double: the sequential
/// (exact-mode) distance the laned kernels below relax.
template <typename T>
inline double sqdist(const T* a, const T* b, int d) {
  double sum = 0.0;
  for (int k = 0; k < d; ++k) {
    const double diff = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    sum += diff * diff;
  }
  return sum;
}

/// sum_k (a[k] - b[k])^2, laned, returned in double.  The workhorse of the
/// fast Weiszfeld and centered-clipping distance passes.
template <typename T>
inline double laned_sqdist(const T* a, const T* b, int d) {
  constexpr int kL = kLanes<T>;
  T l0[kL] = {};
  T l1[kL] = {};
  int k = 0;
  for (; k + 2 * kL <= d; k += 2 * kL) {
    for (int t = 0; t < kL; ++t) {
      const T diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
    for (int t = 0; t < kL; ++t) {
      const T diff = a[k + kL + t] - b[k + kL + t];
      l1[t] += diff * diff;
    }
  }
  for (; k + kL <= d; k += kL) {
    for (int t = 0; t < kL; ++t) {
      const T diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
  }
  double sum = 0.0;
  for (; k < d; ++k) {
    const double diff = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    sum += diff * diff;
  }
  for (int t = 0; t < kL; ++t) sum += static_cast<double>(l0[t]) + static_cast<double>(l1[t]);
  return sum;
}

/// sum_k a[k], laned, returned in double.
template <typename T>
inline double laned_sum(const T* a, int d) {
  constexpr int kL = kLanes<T>;
  T l0[kL] = {};
  int k = 0;
  for (; k + kL <= d; k += kL) {
    for (int t = 0; t < kL; ++t) l0[t] += a[k + t];
  }
  double sum = 0.0;
  for (; k < d; ++k) sum += static_cast<double>(a[k]);
  for (int t = 0; t < kL; ++t) sum += static_cast<double>(l0[t]);
  return sum;
}

/// Portable column-major squared-distance block: out[i] = sum_k (cols[k *
/// stride + i] - center[k])^2 for i in [lo, hi), hi - lo <= kColmajorRows,
/// written as d strided sweeps so the compiler vectorizes ACROSS rows.  Each
/// row accumulates in T in ascending-k order — the same sequential sum a
/// scalar row loop produces — so the values are independent of the vector
/// width and the thread count: this is the construction pass's exact-mode
/// arithmetic.  The double lane accumulates in `out` itself; the float lane
/// in a stack buffer, widened into `out` at the end (the selection machinery
/// stays f64, so tie-breaking is precision-agnostic).  The caller blocks
/// [lo, hi) small enough that the accumulators stay cache-resident across
/// the k sweeps.
inline constexpr int kColmajorRows = 1024;

template <typename T>
inline void colmajor_sqdist(const T* cols, std::size_t stride, const T* center, int d, int lo,
                            int hi, double* out) {
  T local[std::is_same_v<T, double> ? 1 : kColmajorRows];
  T* acc = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    acc = out + lo;
  } else {
    acc = local;
  }
  const int rows = hi - lo;
  const T* col0 = cols + lo;
  for (int i = 0; i < rows; ++i) {
    const T diff = col0[i] - center[0];
    acc[i] = diff * diff;
  }
  for (int k = 1; k < d; ++k) {
    const T* col = col0 + static_cast<std::size_t>(k) * stride;
    const T ck = center[k];
    for (int i = 0; i < rows; ++i) {
      const T diff = col[i] - ck;
      acc[i] += diff * diff;
    }
  }
  if constexpr (!std::is_same_v<T, double>) {
    for (int i = 0; i < rows; ++i) out[lo + i] = static_cast<double>(acc[i]);
  }
}

#if defined(ABFT_AVX512)
/// One zmm register of T: the handful of AVX-512 operations the Gram and
/// col-major distance kernels need, so each kernel has a single body.
template <typename T>
struct Zmm;

template <>
struct Zmm<double> {
  using V = __m512d;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static double reduce(V a) { return _mm512_reduce_add_pd(a); }
  static void store_widened(double* out, V a) { _mm512_storeu_pd(out, a); }
};

template <>
struct Zmm<float> {
  using V = __m512;
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static float reduce(V a) { return _mm512_reduce_add_ps(a); }
  static void store_widened(double* out, V a) {
    _mm512_storeu_pd(out, _mm512_cvtps_pd(_mm512_castps512_ps256(a)));
    // Upper 8 floats via the AVX512F-only f64x4 extract (f32x8 needs DQ).
    const __m256 hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(a), 1));
    _mm512_storeu_pd(out + 8, _mm512_cvtps_pd(hi8));
  }
};

/// AVX-512 col-major distance block: colmajor_sqdist's row-group shape with
/// one register accumulator per kLanes<T> rows.  Each row's sum runs in
/// ascending-k order like the portable loop, but FMA contraction can round
/// differently — fast mode only.
template <typename T>
inline void avx512_colmajor_sqdist(const T* cols, std::size_t stride, const T* center, int d,
                                   int lo, int hi, double* out) {
  using Z = Zmm<T>;
  constexpr int kL = kLanes<T>;
  int i = lo;
  for (; i + kL <= hi; i += kL) {
    const T* col = cols + i;
    auto diff = Z::sub(Z::load(col), Z::set1(center[0]));
    auto acc = Z::mul(diff, diff);
    for (int k = 1; k < d; ++k) {
      diff = Z::sub(Z::load(col + static_cast<std::size_t>(k) * stride), Z::set1(center[k]));
      acc = Z::fmadd(diff, diff, acc);
    }
    Z::store_widened(out + i, acc);
  }
  for (; i < hi; ++i) {  // scalar row tail (< kL rows)
    const T diff0 = cols[i] - center[0];
    T acc = diff0 * diff0;
    for (int k = 1; k < d; ++k) {
      const T diff = cols[static_cast<std::size_t>(k) * stride + i] - center[k];
      acc += diff * diff;
    }
    out[i] = static_cast<double>(acc);
  }
}
#endif

}  // namespace abft::agg::detail
