#include "abft/agg/geomed.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

// One Weiszfeld driver, two reduction policies.  ExactReduce's sequential
// loops keep exact mode in step with the reference Weiszfeld
// (tests/reference_rules.hpp);
// LanedReduce (AggMode::fast) carries independent partial sums so the
// distance and step-length reductions vectorize without -ffast-math.  The
// damping, tolerance and iteration schedule live in the shared driver, so
// the two modes cannot drift structurally — only in rounding, which the
// tolerance-parity suite bounds.

struct ExactReduce {
  static double sqdist(const double* a, const double* b, int d) {
    return detail::sqdist(a, b, d);
  }
  /// cur = num * inv, formed in place; returns the squared step length.
  static double scale_update(const double* num, double inv, double* cur, int d) {
    double moved_sq = 0.0;
    for (int k = 0; k < d; ++k) {
      const double next_k = num[k] * inv;
      const double diff = next_k - cur[k];
      moved_sq += diff * diff;
      cur[k] = next_k;
    }
    return moved_sq;
  }
};

struct LanedReduce {
  template <typename T>
  static double sqdist(const T* a, const T* b, int d) {
    return detail::laned_sqdist(a, b, d);
  }
  static double scale_update(const double* num, double inv, double* cur, int d) {
    constexpr int kLanes = detail::kLanes<double>;
    double lanes[kLanes] = {0.0};
    int k = 0;
    for (; k + kLanes <= d; k += kLanes) {
      for (int t = 0; t < kLanes; ++t) {
        const double next_k = num[k + t] * inv;
        const double diff = next_k - cur[k + t];
        lanes[t] += diff * diff;
        cur[k + t] = next_k;
      }
    }
    double moved_sq = 0.0;
    for (; k < d; ++k) {
      const double next_k = num[k] * inv;
      const double diff = next_k - cur[k];
      moved_sq += diff * diff;
      cur[k] = next_k;
    }
    for (int t = 0; t < kLanes; ++t) moved_sq += lanes[t];
    return moved_sq;
  }
};

/// Damped Weiszfeld over the batch rows into `out`; the numerator lives in
/// ws.f64.vecbuf, so the iteration loop allocates nothing.  The distance
/// pass and the weighted accumulation of each row run back-to-back (the row
/// is still cache-hot for the second read).  T is the element type of the
/// rows both read: the batch itself for double; for float (the f32 lane,
/// after ws.demote) the demoted rows, with the iterate demoted once per
/// iteration into ws.f32.vecbuf so both sqdist operands are float.  The
/// numerator/denominator accumulation and the damped update stay f64, so the
/// emitted aggregate is a f64 fixed point of the lane-measured weights.
template <typename T, typename Reduce>
void weiszfeld_into(Vector& out, const GradientBatch& batch, AggregatorWorkspace& ws,
                    double tolerance, int max_iterations) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const int n = batch.rows();
  const int d = batch.cols();
  resize_output(out, d);
  auto cur = out.coefficients();
  // current = mean of the rows (same summation order as linalg::mean).
  std::fill(cur.begin(), cur.end(), 0.0);
  for (int i = 0; i < n; ++i) {
    const double* row = batch.row(i).data();
    for (int k = 0; k < d; ++k) cur[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  double sq = 0.0;
  for (int k = 0; k < d; ++k) {
    cur[static_cast<std::size_t>(k)] *= inv_n;
    sq += cur[static_cast<std::size_t>(k)] * cur[static_cast<std::size_t>(k)];
  }
  const double scale = std::max(1.0, std::sqrt(sq));
  // Damping floor: weights 1 / max(dist, floor) sidestep the singularity
  // when the iterate coincides with an input point.
  const double floor = 1e-12 * scale;

  const T* rows = ws.rows<T>(batch);
  ws.f64.vecbuf.resize(static_cast<std::size_t>(d));
  double* num = ws.f64.vecbuf.data();
  T* cur_t = nullptr;
  if constexpr (kF32) {
    ws.f32.vecbuf.resize(static_cast<std::size_t>(d));
    cur_t = ws.f32.vecbuf.data();
  } else {
    cur_t = cur.data();
  }
  for (int iter = 0; iter < max_iterations; ++iter) {
    if constexpr (kF32) {
      for (int k = 0; k < d; ++k) cur_t[k] = static_cast<float>(cur[static_cast<std::size_t>(k)]);
    }
    std::fill(num, num + d, 0.0);
    double denominator = 0.0;
    for (int i = 0; i < n; ++i) {
      const T* row = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      const double dist = std::max(std::sqrt(Reduce::sqdist(cur_t, row, d)), floor);
      const double w = 1.0 / dist;
      for (int k = 0; k < d; ++k) num[k] += w * static_cast<double>(row[k]);
      denominator += w;
    }
    const double moved_sq = Reduce::scale_update(num, 1.0 / denominator, cur.data(), d);
    if (std::sqrt(moved_sq) <= tolerance * scale) break;
  }
}

}  // namespace

void geometric_median_into(Vector& out, const GradientBatch& batch,
                           AggregatorWorkspace& ws, double tolerance, int max_iterations) {
  const int n = batch.rows();
  const int d = batch.cols();
  ABFT_REQUIRE(n > 0 && d > 0, "geometric median of empty family");
  // The laned kernels only pay off once a row spans a few SIMD registers;
  // below that the exact path is already optimal, so fast mode routes tiny
  // dimensions back to it (still a valid "fast" result — exact is within
  // every tolerance bound).
  if (d >= detail::kF32DistanceLaneMinDim && ws.demote(batch)) {
    weiszfeld_into<float, LanedReduce>(out, batch, ws, tolerance, max_iterations);
  } else if (ws.mode == AggMode::fast && d >= 2 * detail::kLanes<double>) {
    weiszfeld_into<double, LanedReduce>(out, batch, ws, tolerance, max_iterations);
  } else {
    weiszfeld_into<double, ExactReduce>(out, batch, ws, tolerance, max_iterations);
  }
}

void GeometricMedianAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                               AggregatorWorkspace& ws) const {
  validate_batch(batch, f);
  geometric_median_into(out, batch, ws);
}

GmomAggregator::GmomAggregator(int num_buckets) : num_buckets_(num_buckets) {
  ABFT_REQUIRE(num_buckets >= 0, "gmom bucket count must be non-negative");
}

void GmomAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  const int k = std::min(n, num_buckets_ > 0 ? num_buckets_ : 2 * f + 1);
  // Contiguous buckets of near-equal size (a deterministic partition); their
  // means go into the auxiliary batch, then the batched Weiszfeld runs over
  // them.
  ws.aux_batch.reshape(k, d);
  int start = 0;
  for (int b = 0; b < k; ++b) {
    const int size = (n - start) / (k - b);
    auto mean_row = ws.aux_batch.row(b);
    std::fill(mean_row.begin(), mean_row.end(), 0.0);
    for (int i = start; i < start + size; ++i) {
      const double* row = batch.row(i).data();
      for (int kk = 0; kk < d; ++kk) mean_row[static_cast<std::size_t>(kk)] += row[kk];
    }
    const double inv = 1.0 / static_cast<double>(size);
    for (int kk = 0; kk < d; ++kk) mean_row[static_cast<std::size_t>(kk)] *= inv;
    start += size;
  }
  geometric_median_into(out, ws.aux_batch, ws);
}

}  // namespace abft::agg
