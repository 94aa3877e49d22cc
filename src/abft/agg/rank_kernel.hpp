// Internal: branchless rank-count kernel shared by the coordinate-wise
// filters (CWTM, CWMed).  For a contiguous column of n doubles it computes
//
//   lt[j] = #{ i : col[i] < col[j] }        for every j in [0, n)
//
// For duplicate-free columns lt is a permutation of 0..n-1, so rank
// classification reproduces positional trimming / median selection of the
// sorted column exactly without moving any data.  Callers detect duplicate
// columns via sum(lt) != n(n-1)/2 and fall back to exact selection.
//
// The kernel is the hot inner loop of the batched CWTM/CWMed path: one
// broadcast + compare + masked-add per (i, j-block), processing a full SIMD
// register of columns-entries per instruction on AVX-512/AVX2, with a
// portable auto-vectorizable fallback elsewhere.
#pragma once

#include <cstdint>
#include <type_traits>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "abft/agg/batch.hpp"

namespace abft::agg::detail {

/// Hard ceiling on the rank-kernel n: sizes the callers' stack buffers
/// (count array + column tiles), so the calibrated cutoff can never exceed
/// it.  512 keeps the largest tile (16 columns x 512 rows) at 64 KiB.
constexpr int kRankKernelCapacity = 512;

/// The crossover AggMode::exact pins: the historical hard-coded value.
/// Exact mode promises bit-reproducible output run-to-run, and CWTM's
/// rank-classified trimmed sum adds kept entries in original column order
/// while the nth_element fallback adds them in partition order — same
/// multiset, different rounding — so exact mode must route by a constant,
/// never by the timing-based calibration below.
constexpr int kRankKernelExactCutoff = 256;

/// Adaptive crossover for AggMode::fast: the largest n routed to the O(n^2)
/// rank kernel before fast-mode callers fall back to O(n log n) nth_element
/// selection.  Calibrated once per process by racing the two kernels at a
/// few candidate sizes (see rank_kernel.cpp) — the crossover depends on the
/// host's SIMD width, which is exactly the host-dependence fast mode's
/// relaxed-parity contract permits.  kRankKernelExactCutoff is the fallback
/// when calibration is inconclusive.  The result is the pure measurement,
/// cached for the process lifetime; the ABFT_RANK_KERNEL_CUTOFF override is
/// applied by effective_rank_cutoff, not baked into the cache.  Both routes
/// reproduce sorted-position selection exactly for duplicate-free columns
/// (duplicates take the fallback regardless); only the floating-point
/// summation order of the kept entries differs, inside the fast tolerance
/// contract.
int rank_kernel_cutoff();

/// The cutoff CWTM/CWMed routing actually uses for `mode`.  When the
/// ABFT_RANK_KERNEL_CUTOFF environment variable is set it wins in BOTH
/// modes (parsed per call so tests can flip it at runtime, clamped to
/// [0, kRankKernelCapacity]; 0 forces the rank kernel off entirely);
/// otherwise fast mode takes the cached per-process calibration and exact
/// mode pins kRankKernelExactCutoff.  Within one run the override is a
/// constant, so exact mode's run-to-run reproducibility contract holds for
/// a fixed environment.
int effective_rank_cutoff(AggMode mode);

/// Count type of rank_counts for element type T: int64 for double columns,
/// int32 for float columns (one SIMD lane per entry in both overloads).
template <typename T>
using RankCount = std::conditional_t<std::is_same_v<T, float>, std::int32_t, std::int64_t>;

inline void rank_counts(const double* col, int n, std::int64_t* lt) {
#if defined(__AVX512F__)
  const __m512i ones = _mm512_set1_epi64(1);
  for (int j0 = 0; j0 < n; j0 += 8) {
    const int rem = n - j0;
    const __mmask8 lane_mask =
        rem >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << rem) - 1);
    const __m512d vx = _mm512_maskz_loadu_pd(lane_mask, col + j0);
    __m512i vcnt = _mm512_setzero_si512();
    for (int i = 0; i < n; ++i) {
      const __m512d vy = _mm512_set1_pd(col[i]);
      const __mmask8 is_lt = _mm512_cmp_pd_mask(vy, vx, _CMP_LT_OQ);
      vcnt = _mm512_mask_add_epi64(vcnt, is_lt, vcnt, ones);
    }
    _mm512_mask_storeu_epi64(lt + j0, lane_mask, vcnt);
  }
#elif defined(__AVX2__)
  int j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    const __m256d vx = _mm256_loadu_pd(col + j0);
    __m256i vcnt = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) {
      const __m256d vy = _mm256_set1_pd(col[i]);
      const __m256d is_lt = _mm256_cmp_pd(vy, vx, _CMP_LT_OQ);
      // The compare mask is all-ones (-1) per true lane; subtracting counts.
      vcnt = _mm256_sub_epi64(vcnt, _mm256_castpd_si256(is_lt));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lt + j0), vcnt);
  }
  for (; j0 < n; ++j0) {
    const double x = col[j0];
    std::int64_t c = 0;
    for (int i = 0; i < n; ++i) c += col[i] < x ? 1 : 0;
    lt[j0] = c;
  }
#else
  for (int j = 0; j < n; ++j) lt[j] = 0;
  for (int i = 0; i < n; ++i) {
    const double y = col[i];
    for (int j = 0; j < n; ++j) lt[j] += y < col[j] ? 1 : 0;
  }
#endif
}

/// Float32-lane overload: same branchless rank counts over a demoted
/// column, 16 entries per 512-bit register (twice the f64 throughput at
/// half the traffic).  Counts fit int32 (n <= kRankKernelCapacity = 512).
inline void rank_counts(const float* col, int n, std::int32_t* lt) {
#if defined(__AVX512F__)
  const __m512i ones = _mm512_set1_epi32(1);
  for (int j0 = 0; j0 < n; j0 += 16) {
    const int rem = n - j0;
    const __mmask16 lane_mask =
        rem >= 16 ? static_cast<__mmask16>(0xFFFF) : static_cast<__mmask16>((1u << rem) - 1);
    const __m512 vx = _mm512_maskz_loadu_ps(lane_mask, col + j0);
    __m512i vcnt = _mm512_setzero_si512();
    for (int i = 0; i < n; ++i) {
      const __m512 vy = _mm512_set1_ps(col[i]);
      const __mmask16 is_lt = _mm512_cmp_ps_mask(vy, vx, _CMP_LT_OQ);
      vcnt = _mm512_mask_add_epi32(vcnt, is_lt, vcnt, ones);
    }
    _mm512_mask_storeu_epi32(lt + j0, lane_mask, vcnt);
  }
#elif defined(__AVX2__)
  int j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    const __m256 vx = _mm256_loadu_ps(col + j0);
    __m256i vcnt = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) {
      const __m256 vy = _mm256_set1_ps(col[i]);
      const __m256 is_lt = _mm256_cmp_ps(vy, vx, _CMP_LT_OQ);
      // The compare mask is all-ones (-1) per true lane; subtracting counts.
      vcnt = _mm256_sub_epi32(vcnt, _mm256_castps_si256(is_lt));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lt + j0), vcnt);
  }
  for (; j0 < n; ++j0) {
    const float x = col[j0];
    std::int32_t c = 0;
    for (int i = 0; i < n; ++i) c += col[i] < x ? 1 : 0;
    lt[j0] = c;
  }
#else
  for (int j = 0; j < n; ++j) lt[j] = 0;
  for (int i = 0; i < n; ++i) {
    const float y = col[i];
    for (int j = 0; j < n; ++j) lt[j] += y < col[j] ? 1 : 0;
  }
#endif
}

}  // namespace abft::agg::detail
