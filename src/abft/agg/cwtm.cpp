#include "abft/agg/cwtm.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Two nth_element partitions placing the f smallest entries in [0, f) and
/// the f largest in [n - f, n): the kept middle is exactly the sorted
/// column's positions [f, n - f).  Mutates the column (workspace scratch).
template <typename T>
void trim_partition(T* col, int n, int f) {
  std::nth_element(col, col + f, col + n);
  std::nth_element(col + f, col + (n - f - 1), col + n);
}

/// Sorted-position trimmed sum of a column via trim_partition, in double.
/// Fallback for large n and for columns with duplicate entries.
template <typename T>
double trimmed_sum_select(T* col, int n, int f) {
  if (f > 0) trim_partition(col, n, f);
  double sum = 0.0;
  for (int j = f; j < n - f; ++j) sum += static_cast<double>(col[j]);
  return sum;
}

/// Rank-classified trimmed sum (see rank_kernel.hpp): an entry is kept iff
/// its rank lies in [f, n - f), which for duplicate-free columns equals
/// positional trimming of the sorted column.  Duplicates make the rank sum
/// fall short of n(n-1)/2; those columns report ok = false and take the
/// exact selection fallback.  Kept entries sum in double (rank
/// classification is value-exact on the lane's entries, so the only drift
/// of the f32 lane versus f64 is the demotion itself).  Requires
/// n <= detail::kRankKernelCapacity.
template <typename T>
double trimmed_sum_rank(const T* col, int n, int f, bool& ok) {
  using Count = detail::RankCount<T>;
  using UCount = std::make_unsigned_t<Count>;
  using Bits = std::conditional_t<std::is_same_v<T, float>, std::uint32_t, std::uint64_t>;
  Count lt[detail::kRankKernelCapacity];
  detail::rank_counts(col, n, lt);
  double sum = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    // Bitwise keep-select: a float->double conversion inside a ternary
    // compiles to a mispredicting branch, and 0.0 * x would NaN-poison the
    // sum when a trimmed outlier is inf.  Masking the payload keeps the loop
    // branchless and maps dropped entries to an exact +0.
    const Bits keep = static_cast<UCount>(lt[j] - f) < static_cast<UCount>(n - 2 * f);
    const T kept = std::bit_cast<T>(std::bit_cast<Bits>(col[j]) & (Bits{0} - keep));
    sum += static_cast<double>(kept);
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return sum;
}

/// Fused gather + rank-select over lane-T rows: columns are staged a small
/// tile at a time (tile stays L1-resident, the rows are streamed exactly
/// once), so no full d x n transpose is materialized at all.
template <typename T>
void cwtm_rank_tiles(std::span<double> result, const T* rows, int n, int d, int f, double inv,
                     AggregatorWorkspace& ws) {
  constexpr int kTileCols = 16;
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    T tile[kTileCols * detail::kRankKernelCapacity];
    for (int k0 = k_begin; k0 < k_end; k0 += kTileCols) {
      const int cols = std::min(kTileCols, k_end - k0);
      for (int i = 0; i < n; ++i) {
        const T* row = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d) + k0;
        for (int c = 0; c < cols; ++c) tile[c * n + i] = row[c];
      }
      for (int c = 0; c < cols; ++c) {
        T* col = tile + c * n;
        bool ok = false;
        double sum = trimmed_sum_rank(col, n, f, ok);
        if (!ok) sum = trimmed_sum_select(col, n, f);
        result[static_cast<std::size_t>(k0 + c)] = sum * inv;
      }
    }
  });
}

/// Large-n (or f == 0) path: selection over the lane-T workspace transpose.
/// Fast mode keeps the same nth_element partitions but sums the kept range
/// with laned partial sums (the exact path's sequential sum is a
/// loop-carried dependency the compiler cannot vectorize).  The f32 lane is
/// fast by construction.
template <typename T>
void cwtm_columns(std::span<double> result, const GradientBatch& batch, int f, double inv,
                  AggregatorWorkspace& ws) {
  const int n = batch.rows();
  const int d = batch.cols();
  ws.fill_colmajor<T>(batch);
  const bool fast = ws.mode == AggMode::fast;
  T* cols = ws.lane<T>().colmajor.data();
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      T* col = cols + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      if (f == 0) {
        // f == 0 keeps everything: a plain column sum.
        double sum = 0.0;
        if (fast) {
          sum = detail::laned_sum(col, n);
        } else {
          for (int j = 0; j < n; ++j) sum += static_cast<double>(col[j]);
        }
        result[static_cast<std::size_t>(k)] = sum * inv;
      } else if (fast) {
        trim_partition(col, n, f);  // f > 0 here: the f == 0 branch ran above
        result[static_cast<std::size_t>(k)] = detail::laned_sum(col + f, n - 2 * f) * inv;
      } else {
        result[static_cast<std::size_t>(k)] = trimmed_sum_select(col, n, f) * inv;
      }
    }
  });
}

}  // namespace

void CwtmAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  resize_output(out, d);
  auto result = out.coefficients();
  const double inv = 1.0 / static_cast<double>(n - 2 * f);

  // Both modes route by the constant crossover, so the summation order (and
  // the output bits) never vary between processes; ABFT_RANK_KERNEL_CUTOFF
  // overrides it (0 = rank kernel off).
  const int rank_cutoff = detail::effective_rank_cutoff(ws.mode);
  if (f > 0 && n <= rank_cutoff) {
    // The f32 rank tile path pays a full demotion pass before the tile
    // sweep, which it only recoups once the f64 batch stops fitting in cache
    // and the halved streaming traffic dominates — empirically
    // n * d >= ~4e5 on the calibration host.  Below that (and below one full
    // 16-float mask of rows) the f64 tile path is as fast or faster, so the
    // lane routes back to it; the precision knob is a no-op there.
    if (n >= detail::kLanes<float> && static_cast<long long>(n) * d >= 400000LL &&
        ws.demote(batch)) {
      cwtm_rank_tiles(result, ws.rows<float>(batch), n, d, f, inv, ws);
    } else {
      cwtm_rank_tiles(result, batch.data(), n, d, f, inv, ws);
    }
    return;
  }
  if (ws.demote(batch)) {
    cwtm_columns<float>(result, batch, f, inv, ws);
  } else {
    cwtm_columns<double>(result, batch, f, inv, ws);
  }
}

}  // namespace abft::agg
