#include "abft/agg/bulyan.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "abft/agg/krum.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Fast-mode stage 1: the iterated Krum selection with incremental score
/// maintenance instead of the exact path's per-round O(n^2) rescan of the
/// active mask.
///
/// Each row's Krum score is the sum of its `neighbors` smallest distances to
/// *active* other rows, and in each row's fixed distance-sorted neighbour
/// order that set is exactly a prefix (skipping inactive entries).  So every
/// row keeps a cursor one past its selection prefix plus a running score:
/// when the round's winner is deactivated, rows whose prefix contained it
/// subtract one term and advance their cursor to the next active neighbour,
/// and when the neighbour count shrinks with the pool, every row retreats
/// its cursor by one active entry.  Cursor movement is monotone per
/// direction, so the whole selection costs O(n^2 log n) for the initial
/// sorts plus O(n^2) maintenance — replacing the O(theta * n^2) rescan
/// (effectively O(n^3) since theta ~ n).
///
/// Relaxed parity: the running add/subtract accumulates fp error of order
/// n ulps relative to the freshly-summed exact score, so near-exact ties
/// may pick a different (equally valid) winner — the same class of
/// deviation the fast stage 2 already admits, bounded by the Bulyan
/// tolerance suite.
///
/// Preconditions match aggregate_into (caller validated); fills ws.order
/// with the theta picks and leaves ws.active marking the unselected rows.
void select_stage1_incremental(AggregatorWorkspace& ws, int n, int f, int theta) {
  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  ws.sorted_ids.resize(nn);
  ws.ranks.resize(nn);
  ws.heads.resize(static_cast<std::size_t>(n));
  ws.counts.resize(static_cast<std::size_t>(n));
  ws.scores.resize(static_cast<std::size_t>(n));

  // Per-row neighbour order (ascending distance, ties by id so the order is
  // deterministic), plus its inverse for O(1) "is j inside i's prefix?".
  // Each row's distances are gathered once from the packed triangle into a
  // dense buffer so the sort comparator stays a plain indexed load; the
  // later incremental maintenance does point lookups via pair_sqdist().
  const bool parallel = ws.width() > 1;
  if (!parallel) ws.pairrow.resize(static_cast<std::size_t>(n));
  ws.run_parallel(0, n, [&](int begin, int end) {
    std::vector<double> local_row;
    double* dist = ws.pairrow.data();
    if (parallel) {
      local_row.resize(static_cast<std::size_t>(n));
      dist = local_row.data();
    }
    for (int i = begin; i < end; ++i) {
      const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
      int* ids = ws.sorted_ids.data() + base;
      ws.gather_pair_row(i, n, dist);
      int m = 0;
      for (int j = 0; j < n; ++j) {
        if (j != i) ids[m++] = j;
      }
      std::sort(ids, ids + m, [dist](int a, int b) {
        return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
      });
      int* rank = ws.ranks.data() + base;
      rank[i] = n;  // never inside any prefix
      for (int s = 0; s < m; ++s) rank[ids[s]] = s;
    }
  });

  int pool = n;
  {
    // Initial selection: the first k0 entries of every sorted order (all
    // rows are active).
    const int k0 = std::max(1, pool - f - 2);  // == round 0's neighbour count
    for (int i = 0; i < n; ++i) {
      const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
      const int* ids = ws.sorted_ids.data() + base;
      double sum = 0.0;
      for (int s = 0; s < k0; ++s) sum += ws.pair_sqdist(i, ids[s], n);
      ws.scores[static_cast<std::size_t>(i)] = sum;
      ws.heads[static_cast<std::size_t>(i)] = k0;
      ws.counts[static_cast<std::size_t>(i)] = k0;
    }
  }

  int removed = -1;
  for (int round = 0; round < theta; ++round) {
    // f = 0 would shrink the final round's pool to one row, leaving Krum
    // scoring no neighbour: that is why min_usable_f() == 1.
    ABFT_REQUIRE(pool >= 2, "relaxed krum scores need at least two gradients");
    const int neighbors = std::max(1, pool - f - 2);
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < n; ++i) {
      if (!ws.active[static_cast<std::size_t>(i)]) continue;
      const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
      const int* ids = ws.sorted_ids.data() + base;
      const int* rank = ws.ranks.data() + base;
      int& head = ws.heads[static_cast<std::size_t>(i)];
      int& count = ws.counts[static_cast<std::size_t>(i)];
      double& score = ws.scores[static_cast<std::size_t>(i)];
      if (removed >= 0 && rank[removed] < head) {
        score -= ws.pair_sqdist(i, removed, n);
        --count;
      }
      while (count < neighbors) {
        // Enough active neighbours always remain (neighbors <= pool - 1),
        // so the cursor cannot run off the end.
        while (!ws.active[static_cast<std::size_t>(ids[head])]) ++head;
        score += ws.pair_sqdist(i, ids[head], n);
        ++head;
        ++count;
      }
      while (count > neighbors) {
        do {
          --head;
        } while (!ws.active[static_cast<std::size_t>(ids[head])]);
        score -= ws.pair_sqdist(i, ids[head], n);
        --count;
      }
      if (neighbors == 1) {
        // Endgame rounds score each row by its single nearest active
        // neighbour, and the two mutually-nearest rows then tie EXACTLY —
        // a structural tie the exact path breaks by index.  The running
        // sum's accumulated roundoff would break it arbitrarily instead,
        // so assign the one-term score directly (the selected entry is the
        // first active one in sorted order).
        int s = 0;
        while (!ws.active[static_cast<std::size_t>(ids[s])]) ++s;
        score = ws.pair_sqdist(i, ids[s], n);
      }
      if (best < 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    ws.order[static_cast<std::size_t>(round)] = best;
    ws.active[static_cast<std::size_t>(best)] = 0;
    removed = best;
    --pool;
  }
}

/// Stage 2: per coordinate, average the `take` selected entries (ws.order,
/// theta of them) closest to the selected median.  Columns come from the
/// contiguous lane-T workspace transpose.  In exact mode the selection
/// runs the reference rule's two sorts (tests/reference_rules.hpp) verbatim,
/// so tie-breaking among equidistant entries matches it; fast mode drops the second
/// O(theta log theta) sort — in a sorted column the take entries closest to
/// the median form a contiguous window, found by an O(take) two-pointer
/// sweep and summed with laned partial sums.  The selected multiset is
/// identical for tie-free columns; only the winner among exactly-equidistant
/// entries (which the exact path's unstable second sort also picks
/// arbitrarily) and the summation order may differ.  The f32 lane streams
/// demoted columns (half the bandwidth of the dominant theta x d gather);
/// the sort, median and window sweep run on promoted doubles, so
/// tie-breaking is the same deterministic comparison as the f64 lane.
template <typename T>
void select_stage2(std::span<double> result, const GradientBatch& batch, int theta, int take,
                   AggregatorWorkspace& ws) {
  const int n = batch.rows();
  const int d = batch.cols();
  ws.fill_colmajor<T>(batch);
  const T* cols = ws.lane<T>().colmajor.data();
  const bool fast = ws.mode == AggMode::fast;
  const bool parallel = ws.width() > 1;
  if (!parallel) ws.scratch.resize(static_cast<std::size_t>(theta));
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    // Single-threaded (the common case) stays allocation-free by borrowing
    // ws.scratch (free after stage 1); parallel chunks get a private buffer.
    std::vector<double> local_column;
    double* column = ws.scratch.data();
    if (parallel) {
      local_column.resize(static_cast<std::size_t>(theta));
      column = local_column.data();
    }
    for (int k = k_begin; k < k_end; ++k) {
      const T* col = cols + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      for (int s = 0; s < theta; ++s) {
        column[s] = static_cast<double>(col[ws.order[static_cast<std::size_t>(s)]]);
      }
      double sum = 0.0;
      if (fast) {
        std::sort(column, column + theta);
        const double med = (theta % 2 == 1)
                               ? column[theta / 2]
                               : 0.5 * (column[theta / 2 - 1] + column[theta / 2]);
        // Greedy window growth from the median outwards: distances increase
        // monotonically in each direction of a sorted column, so the take
        // closest entries are exactly the window this sweep ends on.
        int lo = theta / 2 - 1;  // last index at or below the median
        int hi = theta / 2;      // first index at or above the median
        for (int picked = 0; picked < take; ++picked) {
          if (lo < 0) {
            ++hi;
          } else if (hi >= theta) {
            --lo;
          } else if (med - column[lo] <= column[hi] - med) {
            --lo;
          } else {
            ++hi;
          }
        }
        sum = detail::laned_sum(column + (lo + 1), hi - (lo + 1));
      } else {
        std::sort(column, column + theta);
        const double med = (theta % 2 == 1)
                               ? column[theta / 2]
                               : 0.5 * (column[theta / 2 - 1] + column[theta / 2]);
        std::sort(column, column + theta, [med](double a, double b) {
          return std::abs(a - med) < std::abs(b - med);
        });
        for (int s = 0; s < take; ++s) sum += column[s];
      }
      result[static_cast<std::size_t>(k)] = sum / static_cast<double>(take);
    }
  });
}

}  // namespace

void BulyanAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                      AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ABFT_REQUIRE(n >= 4 * f + 3, "bulyan needs n >= 4f + 3");
  const int theta = n - 2 * f;
  const int beta = theta - 2 * f;

  // Stage 1: iterated Krum selection over a shrinking active set.  The
  // pairwise squared distances are computed once (Gram identity) and shared
  // across all theta rounds instead of being recomputed per round.
  const bool f32 = ws.fill_pairwise_sqdist(batch);
  ws.active.assign(static_cast<std::size_t>(n), 1);
  ws.order.resize(static_cast<std::size_t>(theta));  // selected rows, in pick order
  if (ws.mode == AggMode::fast) {
    select_stage1_incremental(ws, n, f, theta);
  } else {
    ws.scratch.resize(static_cast<std::size_t>(n));
    ws.pairrow.resize(static_cast<std::size_t>(n));
    int pool = n;
    for (int round = 0; round < theta; ++round) {
      // f = 0 would shrink the final round's pool to one row, leaving Krum
      // scoring no neighbour: that is why min_usable_f() == 1.
      ABFT_REQUIRE(pool >= 2, "relaxed krum scores need at least two gradients");
      const int neighbors = std::max(1, pool - f - 2);
      int best = -1;
      double best_score = 0.0;
      for (int i = 0; i < n; ++i) {
        if (!ws.active[static_cast<std::size_t>(i)]) continue;
        // Same values in the same ascending-j order as the old square
        // layout, so the exact path stays bit-identical.
        ws.gather_pair_row(i, n, ws.pairrow.data());
        const double* row = ws.pairrow.data();
        int m = 0;
        for (int j = 0; j < n; ++j) {
          if (j != i && ws.active[static_cast<std::size_t>(j)]) {
            ws.scratch[static_cast<std::size_t>(m++)] = row[j];
          }
        }
        std::nth_element(ws.scratch.begin(), ws.scratch.begin() + (neighbors - 1),
                         ws.scratch.begin() + m);
        double score = 0.0;
        for (int s = 0; s < neighbors; ++s) score += ws.scratch[static_cast<std::size_t>(s)];
        if (best < 0 || score < best_score) {
          best = i;
          best_score = score;
        }
      }
      ws.order[static_cast<std::size_t>(round)] = best;
      ws.active[static_cast<std::size_t>(best)] = 0;
      --pool;
    }
  }

  // Stage 2 reads the columns of the lane stage 1 measured in.
  resize_output(out, d);
  if (f32) {
    select_stage2<float>(out.coefficients(), batch, theta, std::min(beta, theta), ws);
  } else {
    select_stage2<double>(out.coefficients(), batch, theta, std::min(beta, theta), ws);
  }
}

}  // namespace abft::agg
