// Internal: branchless rank-count kernel shared by the coordinate-wise
// filters (CWTM, CWMed).  For a contiguous column of n doubles or floats it
// computes
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
/// (count array + column tiles).  512 keeps the largest tile (16 columns x
/// 512 rows) at 64 KiB.
constexpr int kRankKernelCapacity = 512;

/// The largest n CWTM/CWMed route to the O(n^2) rank kernel before falling
/// back to O(n log n) nth_element selection, in both modes.  A constant,
/// never a timing measurement: CWTM's rank-classified trimmed sum adds kept
/// entries in original column order while the nth_element fallback adds
/// them in partition order — same multiset, different rounding — so a
/// route that varied between processes would make outputs vary too.
constexpr int kRankKernelCutoff = 256;

/// The cutoff CWTM/CWMed routing actually uses.  When the
/// ABFT_RANK_KERNEL_CUTOFF environment variable is set it wins (parsed per
/// call so tests can flip it at runtime, clamped to [0,
/// kRankKernelCapacity]; 0 forces the rank kernel off entirely); otherwise
/// both modes take kRankKernelCutoff.  `mode` no longer changes the route.
int effective_rank_cutoff(AggMode mode);

/// Count type of rank_counts for element type T: int64 for double columns,
/// int32 for float columns (one SIMD lane per entry for both).
template <typename T>
using RankCount = std::conditional_t<std::is_same_v<T, float>, std::int32_t, std::int64_t>;

#if defined(__AVX512F__)
/// Per-type AVX-512 ops of rank_counts: a masked load of up to kWidth
/// entries and a compare that adds one to each lane where y < x.
template <typename T>
struct RankLane;

template <>
struct RankLane<double> {
  static constexpr int kWidth = 8;
  using Mask = __mmask8;
  static __m512d load(Mask m, const double* p) { return _mm512_maskz_loadu_pd(m, p); }
  static __m512d set1(double y) { return _mm512_set1_pd(y); }
  static __m512i count_lt(__m512i cnt, __m512d y, __m512d x) {
    return _mm512_mask_add_epi64(cnt, _mm512_cmp_pd_mask(y, x, _CMP_LT_OQ), cnt,
                                 _mm512_set1_epi64(1));
  }
  static void store(std::int64_t* p, Mask m, __m512i cnt) { _mm512_mask_storeu_epi64(p, m, cnt); }
};

template <>
struct RankLane<float> {
  static constexpr int kWidth = 16;
  using Mask = __mmask16;
  static __m512 load(Mask m, const float* p) { return _mm512_maskz_loadu_ps(m, p); }
  static __m512 set1(float y) { return _mm512_set1_ps(y); }
  static __m512i count_lt(__m512i cnt, __m512 y, __m512 x) {
    return _mm512_mask_add_epi32(cnt, _mm512_cmp_ps_mask(y, x, _CMP_LT_OQ), cnt,
                                 _mm512_set1_epi32(1));
  }
  static void store(std::int32_t* p, Mask m, __m512i cnt) { _mm512_mask_storeu_epi32(p, m, cnt); }
};
#elif defined(__AVX2__)
/// Per-type AVX2 ops of rank_counts.  The compare mask is all-ones (-1) per
/// true lane, so subtracting it counts.
template <typename T>
struct RankLane;

template <>
struct RankLane<double> {
  static constexpr int kWidth = 4;
  static __m256d load(const double* p) { return _mm256_loadu_pd(p); }
  static __m256d set1(double y) { return _mm256_set1_pd(y); }
  static __m256i count_lt(__m256i cnt, __m256d y, __m256d x) {
    return _mm256_sub_epi64(cnt, _mm256_castpd_si256(_mm256_cmp_pd(y, x, _CMP_LT_OQ)));
  }
};

template <>
struct RankLane<float> {
  static constexpr int kWidth = 8;
  static __m256 load(const float* p) { return _mm256_loadu_ps(p); }
  static __m256 set1(float y) { return _mm256_set1_ps(y); }
  static __m256i count_lt(__m256i cnt, __m256 y, __m256 x) {
    return _mm256_sub_epi32(cnt, _mm256_castps_si256(_mm256_cmp_ps(y, x, _CMP_LT_OQ)));
  }
};
#endif

/// lt[j] = #{i : col[i] < col[j]} for T in {double, float}: one broadcast +
/// compare + count per (i, register of j), a full register of column
/// entries per instruction (8/16 on AVX-512, 4/8 on AVX2).  The counts are
/// integers, so every ISA path returns the same array.
template <typename T>
inline void rank_counts(const T* col, int n, RankCount<T>* lt) {
#if defined(__AVX512F__)
  using L = RankLane<T>;
  for (int j0 = 0; j0 < n; j0 += L::kWidth) {
    const int rem = n - j0;
    const auto lane_mask = static_cast<typename L::Mask>(
        rem >= L::kWidth ? (1u << L::kWidth) - 1 : (1u << rem) - 1);
    const auto vx = L::load(lane_mask, col + j0);
    __m512i vcnt = _mm512_setzero_si512();
    for (int i = 0; i < n; ++i) vcnt = L::count_lt(vcnt, L::set1(col[i]), vx);
    L::store(lt + j0, lane_mask, vcnt);
  }
#elif defined(__AVX2__)
  using L = RankLane<T>;
  int j0 = 0;
  for (; j0 + L::kWidth <= n; j0 += L::kWidth) {
    const auto vx = L::load(col + j0);
    __m256i vcnt = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) vcnt = L::count_lt(vcnt, L::set1(col[i]), vx);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lt + j0), vcnt);
  }
  for (; j0 < n; ++j0) {
    const T x = col[j0];
    RankCount<T> c = 0;
    for (int i = 0; i < n; ++i) c += col[i] < x ? 1 : 0;
    lt[j0] = c;
  }
#else
  for (int j = 0; j < n; ++j) lt[j] = 0;
  for (int i = 0; i < n; ++i) {
    const T y = col[i];
    for (int j = 0; j < n; ++j) lt[j] += y < col[j] ? 1 : 0;
  }
#endif
}

}  // namespace abft::agg::detail
