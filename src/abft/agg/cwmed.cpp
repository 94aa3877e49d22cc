#include "abft/agg/cwmed.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "abft/agg/rank_kernel.hpp"

namespace abft::agg {

namespace {

/// Rank-classified median (see rank_kernel.hpp): for duplicate-free columns
/// the median entries are exactly those with rank n/2 (and n/2 - 1 when n
/// is even); they promote to double on emission.  Duplicates (rank sum short
/// of n(n-1)/2) report ok = false; the caller falls back to exact selection.
template <typename T>
double median_rank(const T* col, int n, bool& ok) {
  using Count = detail::RankCount<T>;
  Count lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  const Count hi_rank = n / 2;
  const Count lo_rank = n / 2 - 1;
  double hi = 0.0, lo = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    hi += lt[j] == hi_rank ? static_cast<double>(col[j]) : 0.0;
    lo += lt[j] == lo_rank ? static_cast<double>(col[j]) : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return n % 2 == 0 ? 0.5 * (lo + hi) : hi;
}

/// Column medians over the lane-T workspace transpose (the f32 lane's
/// columns are demoted entries, promoted to double on emission).
template <typename T>
void cwmed_columns(std::span<double> result, const GradientBatch& batch, bool use_rank_kernel,
                   AggregatorWorkspace& ws) {
  const int n = batch.rows();
  const int d = batch.cols();
  ws.fill_colmajor<T>(batch);
  T* cols = ws.lane<T>().colmajor.data();
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      T* col = cols + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      if (use_rank_kernel) {
        bool ok = false;
        const double med = median_rank(col, n, ok);
        if (ok) {
          result[static_cast<std::size_t>(k)] = med;
          continue;
        }
      }
      result[static_cast<std::size_t>(k)] = median_inplace(col, col + n);
    }
  });
}

}  // namespace

void CwmedAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                     AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  resize_output(out, d);
  auto result = out.coefficients();
  // The rank-classified median picks the same element(s) as nth_element, so
  // unlike CWTM the routing never changes output here; both modes route by
  // the constant crossover (ABFT_RANK_KERNEL_CUTOFF overrides it, 0 = rank
  // kernel off).
  const int rank_cutoff = detail::effective_rank_cutoff(ws.mode);
  const bool use_rank_kernel = n > 1 && n <= rank_cutoff;
  if (ws.demote(batch)) {
    cwmed_columns<float>(result, batch, use_rank_kernel, ws);
  } else {
    cwmed_columns<double>(result, batch, use_rank_kernel, ws);
  }
}

}  // namespace abft::agg
