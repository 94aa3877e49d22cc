#include "abft/agg/batch.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Tile width of the Gram accumulation: row segments of kChunk elements stay
/// L2-resident across the O(n^2) pair sweep, so the whole batch streams from
/// memory once instead of once per pair.
constexpr int kChunk = 1024;

/// Start of row i's run in the packed strictly-upper-triangular layout
/// (== AggregatorWorkspace::pair_index(i, i + 1, n); for i == n - 1 it is
/// the one-past-end offset, which callers form but never dereference).
std::size_t pair_row_start(int i, int n) {
  return static_cast<std::size_t>(i) * (2 * static_cast<std::size_t>(n) - i - 1) / 2;
}

/// Row i of a row-major n x d buffer.
template <typename T>
T* row_ptr(T* rows, int i, int d) {
  return rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
}

/// Accumulates partial dot products <row_i, row_j> over the full chunk
/// [k0, k0 + kChunk) into the packed triangle of `pairdist` for i in
/// [i_begin, i_end), j > i.  The fixed-size lane array (one 512-bit vector
/// of T) makes the inner product vectorizable without -ffast-math (each lane
/// is an independent partial sum), and the compile-time k extent is what
/// lets the compiler schedule the vector loop well — a runtime bound here
/// costs ~3x.  Lanes, the cross-lane dot and the packed triangle all stay in
/// T: for float each lane sums kChunk / 16 = 64 products, far inside the f32
/// tolerance envelopes.
///
/// Kept out of line: inlined into the dispatch lambda, GCC 12 schedules this
/// fixed-extent loop about 1.3x slower (exact mode, 50 x 4096 rows).
template <typename T>
[[gnu::noinline]] void accumulate_pair_dots_chunk(const T* rows, T* pairdist, int n, int d,
                                                  int i_begin, int i_end, int k0) {
  constexpr int kLanes = detail::kLanes<T>;
  for (int i = i_begin; i < i_end; ++i) {
    const T* ri = row_ptr(rows, i, d);
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const T* rj = row_ptr(rows, j, d);
      T lanes[kLanes] = {};
      for (int k = k0; k < k0 + kChunk; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      T dot = 0;
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// Runtime-bound variant for the final partial chunk [k0, k1).
template <typename T>
void accumulate_pair_dots_tail(const T* rows, T* pairdist, int n, int d, int i_begin,
                               int i_end, int k0, int k1) {
  constexpr int kLanes = detail::kLanes<T>;
  for (int i = i_begin; i < i_end; ++i) {
    const T* ri = row_ptr(rows, i, d);
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const T* rj = row_ptr(rows, j, d);
      T lanes[kLanes] = {};
      int k = k0;
      for (; k + kLanes <= k1; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      T dot = 0;
      for (; k < k1; ++k) dot += ri[k] * rj[k];
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

#if defined(ABFT_AVX512)
/// Relaxed-parity (AggMode::fast) AVX-512 variant of the full-chunk kernel:
/// four independent zmm FMA accumulators cover the FMA latency chain,
/// roughly doubling throughput over the auto-vectorized lane kernel.  The
/// horizontal reduction order differs from the exact kernel's sequential
/// lane sum, so this path is fast-mode only.
template <typename T>
void accumulate_pair_dots_chunk_avx512(const T* rows, T* pairdist, int n, int d, int i_begin,
                                       int i_end, int k0) {
  using Z = detail::Zmm<T>;
  constexpr int kL = detail::kLanes<T>;
  static_assert(kChunk % (4 * kL) == 0, "avx512 gram kernel consumes four vectors per step");
  for (int i = i_begin; i < i_end; ++i) {
    const T* ri = row_ptr(rows, i, d);
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const T* rj = row_ptr(rows, j, d);
      auto acc0 = Z::zero();
      auto acc1 = Z::zero();
      auto acc2 = Z::zero();
      auto acc3 = Z::zero();
      for (int k = k0; k < k0 + kChunk; k += 4 * kL) {
        acc0 = Z::fmadd(Z::load(ri + k), Z::load(rj + k), acc0);
        acc1 = Z::fmadd(Z::load(ri + k + kL), Z::load(rj + k + kL), acc1);
        acc2 = Z::fmadd(Z::load(ri + k + 2 * kL), Z::load(rj + k + 2 * kL), acc2);
        acc3 = Z::fmadd(Z::load(ri + k + 3 * kL), Z::load(rj + k + 3 * kL), acc3);
      }
      const T dot = Z::reduce(Z::add(Z::add(acc0, acc1), Z::add(acc2, acc3)));
      prow[j - i - 1] += dot;
    }
  }
}
#endif  // ABFT_AVX512

/// Walks all d-chunks for rows [i_begin, i_end): full chunks through the
/// fixed-extent kernel (the AVX-512 variant in fast mode, when the CPU has
/// it), the remainder through the tail kernel.
template <typename T>
void accumulate_pair_dots(const T* rows, T* pairdist, int n, int d, int i_begin, int i_end,
                          bool use_avx512) {
  (void)use_avx512;
  int k0 = 0;
  for (; k0 + kChunk <= d; k0 += kChunk) {
#if defined(ABFT_AVX512)
    if (use_avx512) {
      accumulate_pair_dots_chunk_avx512(rows, pairdist, n, d, i_begin, i_end, k0);
      continue;
    }
#endif
    accumulate_pair_dots_chunk(rows, pairdist, n, d, i_begin, i_end, k0);
  }
  if (k0 < d) accumulate_pair_dots_tail(rows, pairdist, n, d, i_begin, i_end, k0, d);
}

/// Per-row squared norms, laned in T (lanes, tail and cross-lane sum).
template <typename T>
void row_sqnorms(const T* rows, int n, int d, std::vector<T>& out) {
  constexpr int kLanes = detail::kLanes<T>;
  out.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const T* r = row_ptr(rows, i, d);
    T lanes[kLanes] = {};
    int k = 0;
    for (; k + kLanes <= d; k += kLanes) {
      for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
    }
    T sum = 0;
    for (; k < d; ++k) sum += r[k] * r[k];
    for (int b = 0; b < kLanes; ++b) sum += lanes[b];
    out[static_cast<std::size_t>(i)] = sum;
  }
}

/// Gram fill of the lane-T packed triangle.  Dot products accumulate into
/// the packed triangle in d-chunks sized so the active rows stay
/// cache-resident across the O(n^2) pair sweep — the whole batch is read
/// from memory once instead of once per pair.  The packed layout stores
/// each unordered pair once: half the matrix memory, no n^2 zero-assign, no
/// mirror pass.  Pair-level parallelism partitions the i range once per
/// call (one dispatch, not one per chunk); every packed cell is written by
/// exactly one thread.
template <typename T>
void fill_pairwise_lane(AggregatorWorkspace& ws, const T* rows, int n, int d) {
  Lane<T>& lane = ws.lane<T>();
  row_sqnorms(rows, n, d, lane.sqnorms);
  const std::size_t pairs = static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  lane.pairdist.assign(pairs, T(0));
  const bool use_avx512 = ws.mode == AggMode::fast && detail::avx512_available();
  T* packed = lane.pairdist.data();
  ws.run_parallel(0, n, [&](int i_begin, int i_end) {
    accumulate_pair_dots(rows, packed, n, d, i_begin, i_end, use_avx512);
  });
  // Convert the accumulated dots to squared distances in place (in double).
  // The Gram identity cancels catastrophically when gradients share a large
  // common component (||xi - xj||^2 << ||xi||^2 + ||xj||^2) — exactly the
  // clustered regime where Krum-family selection matters — so pairs whose
  // result is small relative to the cancellation scale are recomputed
  // directly.  On well-separated data no pair trips the guard and nothing is
  // recomputed.  The f32 guard is wider to match the f32 dot's larger
  // accumulation error: clustered batches simply take the direct-difference
  // path, the most accurate result f32 inputs admit.
  constexpr double kCancellationGuard = std::is_same_v<T, float> ? 1e-3 : 1e-6;
  constexpr int kLanes = detail::kLanes<T>;
  const T* sqnorms = lane.sqnorms.data();
  for (int i = 0; i < n; ++i) {
    const double sqi = static_cast<double>(sqnorms[i]);
    T* prow = packed + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double scale = sqi + static_cast<double>(sqnorms[j]);
      double d2 = std::max(0.0, scale - 2.0 * static_cast<double>(prow[j - i - 1]));
      if (d2 < kCancellationGuard * scale) {
        const T* ri = row_ptr(rows, i, d);
        const T* rj = row_ptr(rows, j, d);
        T lanes[kLanes] = {};
        int k = 0;
        for (; k + kLanes <= d; k += kLanes) {
          for (int b = 0; b < kLanes; ++b) {
            const T diff = ri[k + b] - rj[k + b];
            lanes[b] += diff * diff;
          }
        }
        d2 = 0.0;
        for (; k < d; ++k) {
          const double diff = static_cast<double>(ri[k]) - static_cast<double>(rj[k]);
          d2 += diff * diff;
        }
        for (int b = 0; b < kLanes; ++b) d2 += static_cast<double>(lanes[b]);
      }
      prow[j - i - 1] = static_cast<T>(d2);
    }
  }
}

/// Shared packed-row gather (diagonal 0, f32 values promoted on read).
template <typename T>
void gather_pair_row_from(const T* packed, int i, int n, double* dst) {
  // (j, i) entries for j < i: start at pair_index(0, i, n) == i - 1, and
  // consecutive source rows j are n - j - 2 apart at fixed column i.
  std::size_t idx = static_cast<std::size_t>(i) - 1;  // unused when i == 0
  for (int j = 0; j < i; ++j) {
    dst[j] = static_cast<double>(packed[idx]);
    idx += static_cast<std::size_t>(n - j - 2);
  }
  dst[i] = 0.0;
  // (i, j > i) is row i's contiguous packed run.
  if (i + 1 < n) {
    const T* run = packed + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) dst[j] = static_cast<double>(run[j - i - 1]);
  }
}

/// B(d), the largest entry magnitude the f32 lane admits (see
/// AggregatorWorkspace::demote).
float f32_entry_bound(int d) {
  return static_cast<float>(
      std::sqrt(static_cast<double>(std::numeric_limits<float>::max()) / (8.0 * d)));
}

}  // namespace

void GradientBatch::reshape(int n, int d) {
  ABFT_REQUIRE(n >= 0 && d >= 0, "batch shape must be non-negative");
  n_ = n;
  d_ = d;
  data_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
}

void GradientBatch::pack(std::span<const Vector> gradients) {
  ABFT_REQUIRE(!gradients.empty(), "cannot pack an empty gradient family");
  const int d = gradients.front().dim();
  reshape(static_cast<int>(gradients.size()), d);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    ABFT_REQUIRE(gradients[i].dim() == d, "all gradients must share a dimension");
    // std::copy, not memcpy: zero-dimension rows have null data pointers
    // (rejected later by validate_batch).
    const auto src = gradients[i].coefficients();
    std::copy(src.begin(), src.end(), data_.begin() + static_cast<std::ptrdiff_t>(i * d));
  }
}

void GradientBatch::set_row(int i, const Vector& v) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(v.dim() == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              v.coefficients().data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::set_row(int i, std::span<const double> values) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(static_cast<int>(values.size()) == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              values.data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::truncate_rows(int n) {
  ABFT_REQUIRE(0 <= n && n <= n_, "cannot truncate to more rows than the batch holds");
  n_ = n;
}

Vector GradientBatch::unpack_row(int i) const {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  const auto r = row(i);
  return Vector(std::vector<double>(r.begin(), r.end()));
}

template <typename T>
void AggregatorWorkspace::fill_colmajor(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  const T* src_rows = rows<T>(batch);
  std::vector<T>& cols = lane<T>().colmajor;
  cols.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  T* dst_cols = cols.data();
  // Cache-blocked transpose: both the row-major source and the column-major
  // destination are touched in tiles that fit in L1.
  constexpr int kBlock = 64;
  run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k0 = k_begin; k0 < k_end; k0 += kBlock) {
      const int k1 = std::min(k0 + kBlock, k_end);
      for (int i0 = 0; i0 < n; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const T* src = row_ptr(src_rows, i, d);
          T* dst = dst_cols + i;
          for (int k = k0; k < k1; ++k) {
            dst[static_cast<std::size_t>(k) * static_cast<std::size_t>(n)] = src[k];
          }
        }
      }
    }
  });
}

template void AggregatorWorkspace::fill_colmajor<double>(const GradientBatch&);
template void AggregatorWorkspace::fill_colmajor<float>(const GradientBatch&);

void AggregatorWorkspace::fill_sqnorms(const GradientBatch& batch) {
  row_sqnorms(batch.data(), batch.rows(), batch.cols(), f64.sqnorms);
}

void AggregatorWorkspace::fill_norms(const GradientBatch& batch) {
  fill_sqnorms(batch);
  norms.resize(f64.sqnorms.size());
  for (std::size_t i = 0; i < f64.sqnorms.size(); ++i) norms[i] = std::sqrt(f64.sqnorms[i]);
}

bool AggregatorWorkspace::demote(const GradientBatch& batch) {
  if (!f32_lane()) return false;
  const int n = batch.rows();
  const int d = batch.cols();
  f32.rows.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  const double* src = batch.data();
  float* dst = f32.rows.data();
  // Element-wise demotion with one writer per element — bit-identical at
  // every thread count.  The range check rides in the same loop as one
  // integer compare of |y|'s bit pattern against the bound's (non-negative
  // floats order like their bit patterns; +-inf and NaN compare above every
  // finite bound).  A floating-point magnitude compare here vectorizes to
  // 512-bit FP instructions, which on an AVX-512 Xeon slowed the round
  // phases after aggregation by ~25% (the async round benchmark's produce
  // and emit).
  const std::uint32_t bound = std::bit_cast<std::uint32_t>(f32_entry_bound(d));
  std::atomic<bool> out_of_range{false};
  run_parallel(0, n, [&](int i_begin, int i_end) {
    const std::size_t lo = static_cast<std::size_t>(i_begin) * static_cast<std::size_t>(d);
    const std::size_t hi = static_cast<std::size_t>(i_end) * static_cast<std::size_t>(d);
    std::uint32_t over = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const float y = static_cast<float>(src[k]);
      dst[k] = y;
      over |= (std::bit_cast<std::uint32_t>(y) & 0x7fffffffu) > bound;
    }
    if (over != 0) out_of_range.store(true);
  });
  return !out_of_range.load();
}

void AggregatorWorkspace::gather_pair_row(int i, int n, double* dst) const noexcept {
  if (pair_lane == Precision::f32) {
    gather_pair_row_from(f32.pairdist.data(), i, n, dst);
  } else {
    gather_pair_row_from(f64.pairdist.data(), i, n, dst);
  }
}

bool AggregatorWorkspace::fill_pairwise_sqdist(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  if (demote(batch)) {
    fill_pairwise_lane(*this, f32.rows.data(), n, d);
    pair_lane = Precision::f32;
  } else {
    fill_pairwise_lane(*this, batch.data(), n, d);
    pair_lane = Precision::f64;
  }
  return pair_lane == Precision::f32;
}

int validate_batch(const GradientBatch& batch, int f) {
  ABFT_REQUIRE(batch.rows() > 0, "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < batch.rows(), "fault bound f must be smaller than the number of gradients");
  ABFT_REQUIRE(batch.cols() > 0, "gradients must be non-empty vectors");
  return batch.cols();
}

void resize_output(Vector& out, int d) {
  if (out.dim() != d) out = Vector(d);
}

template <typename T>
double median_inplace(T* first, T* last) {
  const std::size_t m = static_cast<std::size_t>(last - first);
  ABFT_REQUIRE(m > 0, "median of empty range");
  T* mid = first + m / 2;
  std::nth_element(first, mid, last);
  if (m % 2 == 1) return static_cast<double>(*mid);
  const double hi = static_cast<double>(*mid);
  const double lo = static_cast<double>(*std::max_element(first, mid));
  return 0.5 * (lo + hi);
}

template double median_inplace<double>(double*, double*);
template double median_inplace<float>(float*, float*);

}  // namespace abft::agg
