#include "abft/agg/cclip.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <type_traits>

#include "abft/agg/cwmed.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

CenteredClipAggregator::CenteredClipAggregator(double tau, int iterations)
    : tau_(tau), iterations_(iterations) {
  ABFT_REQUIRE(iterations > 0, "centered clipping needs at least one iteration");
}

namespace {

/// Centered-clipping iterations over lane-T rows, updating `pivot` in place.
/// `laned` (fast mode) swaps the scalar distance reductions (loop-carried FP
/// dependency, never vectorized at -O2) for laned partial sums; iteration
/// structure, clipping rule and pivot updates are unchanged.  The f32 lane
/// is laned by construction: its distance passes — and the correction's row
/// reads — run over the demoted rows, against the pivot demoted once per
/// iteration into ws.f32.vecbuf, while the correction and pivot update
/// accumulate in f64.
template <typename T>
void clip_iterations(std::span<double> pivot, const T* rows, int n, int d, double tau0,
                     int iterations, bool laned, AggregatorWorkspace& ws) {
  T* pivot_t = nullptr;
  if constexpr (std::is_same_v<T, float>) {
    ws.f32.vecbuf.resize(static_cast<std::size_t>(d));
    pivot_t = ws.f32.vecbuf.data();
  } else {
    pivot_t = pivot.data();
  }
  ws.f64.vecbuf.resize(static_cast<std::size_t>(d));
  double* correction = ws.f64.vecbuf.data();
  const auto sqdist_to_pivot = [&](const T* row) {
    return laned ? detail::laned_sqdist(row, pivot_t, d) : detail::sqdist(row, pivot_t, d);
  };
  for (int iter = 0; iter < iterations; ++iter) {
    if constexpr (std::is_same_v<T, float>) {
      for (int k = 0; k < d; ++k) {
        pivot_t[k] = static_cast<float>(pivot[static_cast<std::size_t>(k)]);
      }
    }
    double tau = tau0;
    if (tau <= 0.0) {
      // Adaptive radius: median distance from the current pivot.
      ws.scratch.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const T* row = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
        ws.scratch[static_cast<std::size_t>(i)] = std::sqrt(sqdist_to_pivot(row));
      }
      tau = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
      if (tau <= 0.0) return;  // all gradients equal the pivot
    }
    std::fill(correction, correction + d, 0.0);
    for (int i = 0; i < n; ++i) {
      const T* row = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      const double norm = std::sqrt(sqdist_to_pivot(row));
      const double s = norm > tau ? tau / norm : 1.0;
      for (int k = 0; k < d; ++k) {
        correction[k] += s * (static_cast<double>(row[k]) - pivot[static_cast<std::size_t>(k)]);
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (int k = 0; k < d; ++k) pivot[static_cast<std::size_t>(k)] += inv * correction[k];
  }
}

}  // namespace

void CenteredClipAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  // Robust pivot: batched coordinate-wise median straight into `out`.
  const CwmedAggregator median_rule;
  median_rule.aggregate_into(out, batch, f, ws);
  // Small rows stay on the f64 paths — the f32 lane's per-row fixed costs
  // outweigh the halved streaming traffic below kF32DistanceLaneMinDim.
  if (d >= detail::kF32DistanceLaneMinDim && ws.demote(batch)) {
    clip_iterations(out.coefficients(), ws.rows<float>(batch), n, d, tau_, iterations_, true,
                    ws);
  } else {
    const bool laned = ws.mode == AggMode::fast && d >= 2 * detail::kLanes<double>;
    clip_iterations(out.coefficients(), batch.data(), n, d, tau_, iterations_, laned, ws);
  }
}

ClippedInputAggregator::ClippedInputAggregator(const GradientAggregator& inner)
    : inner_(inner) {}

void ClippedInputAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ws.fill_norms(batch);
  ws.scratch.assign(ws.norms.begin(), ws.norms.end());
  const double cap = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
  // Capped copy lives in its own workspace batch (clip_batch) so the inner
  // rule is free to use aux_batch and the other scratch buffers.  Nesting
  // ClippedInput inside ClippedInput would alias clip_batch; don't.
  ws.clip_batch.reshape(n, d);
  for (int i = 0; i < n; ++i) {
    const double norm = ws.norms[static_cast<std::size_t>(i)];
    const double* src = batch.row(i).data();
    double* dst = ws.clip_batch.row(i).data();
    if (norm > cap && norm > 0.0) {
      const double s = cap / norm;
      for (int k = 0; k < d; ++k) dst[k] = src[k] * s;
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(d) * sizeof(double));
    }
  }
  inner_.aggregate_into(out, ws.clip_batch, f, ws);
}

}  // namespace abft::agg
