// Naive reference implementations of the registry gradient filters — the
// test-side oracle for src/abft/agg.
//
// Each rule is written the obvious way over a std::vector<Vector> family:
// full sorts, direct pairwise distances, fresh allocations, no workspace.
// The production kernels (GradientAggregator::aggregate_into) must agree with
// these to 1e-12 relative in AggMode::exact, and reject exactly the shapes
// these reject (tests/test_agg.cpp, BatchedParity.*); bench_agg_micro times
// them as its "legacy" rows.  Nothing under src/ includes this header.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "abft/linalg/vector.hpp"
#include "abft/util/check.hpp"

namespace abft::reference {

using linalg::Vector;

/// A reference rule: (gradients, f) -> aggregate.
using Rule = std::function<Vector(std::span<const Vector>, int)>;

/// The shared preconditions (non-empty, 0 <= f < n, equal non-zero
/// dimension); returns the common dimension.
inline int validate_gradients(std::span<const Vector> gradients, int f) {
  ABFT_REQUIRE(!gradients.empty(), "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < static_cast<int>(gradients.size()),
               "fault bound f must be smaller than the number of gradients");
  const int dim = gradients.front().dim();
  ABFT_REQUIRE(dim > 0, "gradients must be non-empty vectors");
  for (const auto& g : gradients) {
    ABFT_REQUIRE(g.dim() == dim, "all gradients must share a dimension");
  }
  return dim;
}

/// Median of a sorted range: the middle entry, or the mean of the two.
inline double sorted_median(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  return (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

inline Vector average(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  return linalg::mean(gradients);
}

/// Indices of the n - f smallest-norm gradients, ties broken by index.
inline std::vector<int> cge_kept_indices(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&norms](int a, int b) {
    return norms[static_cast<std::size_t>(a)] < norms[static_cast<std::size_t>(b)];
  });
  order.resize(static_cast<std::size_t>(n - f));
  return order;
}

/// CGE (paper eq. 23): the sum of the n - f smallest-norm gradients.
inline Vector cge(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  Vector sum(dim);
  for (int idx : cge_kept_indices(gradients, f)) sum += gradients[static_cast<std::size_t>(idx)];
  return sum;
}

/// CWTM (paper eq. 24): per coordinate, the mean of the sorted column's
/// entries [f, n - f).
inline Vector cwtm(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  Vector out(dim);
  std::vector<double> column(gradients.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < gradients.size(); ++i) column[i] = gradients[i][k];
    std::sort(column.begin(), column.end());
    double sum = 0.0;
    for (int j = f; j < n - f; ++j) sum += column[static_cast<std::size_t>(j)];
    out[k] = sum / static_cast<double>(n - 2 * f);
  }
  return out;
}

inline Vector cwmed(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  Vector out(dim);
  std::vector<double> column(gradients.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < gradients.size(); ++i) column[i] = gradients[i][k];
    std::sort(column.begin(), column.end());
    out[k] = sorted_median(column);
  }
  return out;
}

/// Krum score of every gradient: the sum of its `num_neighbors` smallest
/// squared distances to the other gradients.
inline std::vector<double> scores_with_neighbors(std::span<const Vector> gradients,
                                                 int num_neighbors) {
  std::vector<double> score(gradients.size(), 0.0);
  std::vector<double> dists;
  dists.reserve(gradients.size() - 1);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    dists.clear();
    for (std::size_t j = 0; j < gradients.size(); ++j) {
      if (i == j) continue;
      const double d = linalg::distance(gradients[i], gradients[j]);
      dists.push_back(d * d);
    }
    std::nth_element(dists.begin(), dists.begin() + (num_neighbors - 1), dists.end());
    score[i] = std::accumulate(dists.begin(), dists.begin() + num_neighbors, 0.0);
  }
  return score;
}

inline std::vector<double> krum_scores(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  return scores_with_neighbors(gradients, n - f - 2);
}

inline Vector krum(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  const auto score = krum_scores(gradients, f);
  const auto best = std::min_element(score.begin(), score.end()) - score.begin();
  return gradients[static_cast<std::size_t>(best)];
}

/// Multi-Krum: the mean of the m lowest-score gradients (m = 0: n - f).
inline Vector multikrum(std::span<const Vector> gradients, int f, int m_param = 0) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  const int m = m_param > 0 ? m_param : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  const auto score = krum_scores(gradients, f);
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[static_cast<std::size_t>(a)] < score[static_cast<std::size_t>(b)];
  });
  Vector sum(dim);
  for (int i = 0; i < m; ++i) {
    sum += gradients[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  return sum / static_cast<double>(m);
}

/// Damped Weiszfeld iterations from the mean, weights 1 / max(dist, floor).
inline Vector geometric_median(std::span<const Vector> points, double tolerance = 1e-10,
                               int max_iterations = 200) {
  ABFT_REQUIRE(!points.empty(), "geometric median of empty family");
  Vector current = linalg::mean(points);
  const double scale = std::max(1.0, current.norm());
  Vector numerator(current.dim());
  for (int iter = 0; iter < max_iterations; ++iter) {
    auto num = numerator.coefficients();
    std::fill(num.begin(), num.end(), 0.0);
    double denominator = 0.0;
    for (const auto& p : points) {
      const double dist = std::max(linalg::distance(current, p), 1e-12 * scale);
      const double w = 1.0 / dist;
      numerator.add_scaled(w, p);
      denominator += w;
    }
    const double inv = 1.0 / denominator;
    auto cur = current.coefficients();
    double moved_sq = 0.0;
    for (std::size_t k = 0; k < cur.size(); ++k) {
      const double next_k = num[k] * inv;
      const double diff = next_k - cur[k];
      moved_sq += diff * diff;
      cur[k] = next_k;
    }
    if (std::sqrt(moved_sq) <= tolerance * scale) break;
  }
  return current;
}

inline Vector geomed(std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  return geometric_median(gradients);
}

/// GMoM: k contiguous near-equal buckets (k = 2f + 1 by default, capped at
/// n), then the geometric median of the bucket means.
inline Vector gmom(std::span<const Vector> gradients, int f, int num_buckets = 0) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  const int k = std::min(n, num_buckets > 0 ? num_buckets : 2 * f + 1);
  std::vector<Vector> bucket_means;
  bucket_means.reserve(static_cast<std::size_t>(k));
  int start = 0;
  for (int b = 0; b < k; ++b) {
    const int size = (n - start) / (k - b);
    Vector sum(dim);
    for (int i = start; i < start + size; ++i) sum += gradients[static_cast<std::size_t>(i)];
    bucket_means.push_back(sum / static_cast<double>(size));
    start += size;
  }
  return geometric_median(bucket_means);
}

/// Bulyan: theta = n - 2f rounds of Krum selection (neighbour count clamped
/// to at least one as the pool shrinks), then per coordinate the mean of the
/// beta = theta - 2f selected entries closest to the selected median.
inline Vector bulyan(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n >= 4 * f + 3, "bulyan needs n >= 4f + 3");
  const int theta = n - 2 * f;
  const int beta = theta - 2 * f;

  std::vector<Vector> pool(gradients.begin(), gradients.end());
  std::vector<Vector> selected;
  selected.reserve(static_cast<std::size_t>(theta));
  for (int round = 0; round < theta; ++round) {
    // f = 0 shrinks the final round's pool to one gradient (BulyanAggregator
    // has min_usable_f() == 1).
    const int size = static_cast<int>(pool.size());
    ABFT_REQUIRE(size >= 2, "relaxed krum scores need at least two gradients");
    const auto score = scores_with_neighbors(pool, std::max(1, size - f - 2));
    const auto best =
        static_cast<std::size_t>(std::min_element(score.begin(), score.end()) - score.begin());
    selected.push_back(pool[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  }

  Vector out(dim);
  std::vector<double> column(selected.size());
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < selected.size(); ++i) column[i] = selected[i][k];
    std::sort(column.begin(), column.end());
    const double med = sorted_median(column);
    std::sort(column.begin(), column.end(), [med](double a, double b) {
      return std::abs(a - med) < std::abs(b - med);
    });
    double sum = 0.0;
    const int take = std::min<int>(beta, static_cast<int>(column.size()));
    for (int i = 0; i < take; ++i) sum += column[static_cast<std::size_t>(i)];
    out[k] = sum / static_cast<double>(take);
  }
  return out;
}

/// Rescales every gradient above the median norm down to it, then averages.
inline Vector normclip(std::span<const Vector> gradients, int f) {
  const int dim = validate_gradients(gradients, f);
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const double clip = sorted_median(sorted);
  Vector sum(dim);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    if (norms[i] > clip && norms[i] > 0.0) {
      sum.add_scaled(clip / norms[i], gradients[i]);
    } else {
      sum += gradients[i];
    }
  }
  return sum / static_cast<double>(sorted.size());
}

/// Centered clipping from the coordinate-wise median pivot; tau <= 0 picks
/// the median distance to the pivot each iteration.
inline Vector cclip(std::span<const Vector> gradients, int f, double tau0 = 0.0,
                    int iterations = 3) {
  validate_gradients(gradients, f);
  Vector pivot = cwmed(gradients, f);
  for (int iter = 0; iter < iterations; ++iter) {
    double tau = tau0;
    if (tau <= 0.0) {
      std::vector<double> dists(gradients.size());
      for (std::size_t i = 0; i < gradients.size(); ++i) {
        dists[i] = linalg::distance(gradients[i], pivot);
      }
      std::sort(dists.begin(), dists.end());
      tau = sorted_median(dists);
      if (tau <= 0.0) return pivot;  // all gradients equal the pivot
    }
    Vector correction(pivot.dim());
    for (const auto& g : gradients) {
      Vector delta = g - pivot;
      const double norm = delta.norm();
      if (norm > tau) delta *= tau / norm;
      correction += delta;
    }
    pivot.add_scaled(1.0 / static_cast<double>(gradients.size()), correction);
  }
  return pivot;
}

/// Caps every gradient's norm at the median norm, then runs `inner`.
inline Vector clipped_input(const Rule& inner, std::span<const Vector> gradients, int f) {
  validate_gradients(gradients, f);
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const double cap = sorted_median(sorted);
  std::vector<Vector> capped(gradients.begin(), gradients.end());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    if (norms[i] > cap && norms[i] > 0.0) capped[i] *= cap / norms[i];
  }
  return inner(capped, f);
}

/// The reference for a registry rule name, with the registry's default
/// parameters (agg::make_aggregator).
inline Rule rule(std::string_view name) {
  if (name == "average") return average;
  if (name == "cge") return cge;
  if (name == "cwtm") return cwtm;
  if (name == "cwmed") return cwmed;
  if (name == "krum") return krum;
  if (name == "multikrum") return [](std::span<const Vector> g, int f) { return multikrum(g, f); };
  if (name == "geomed") return geomed;
  if (name == "gmom") return [](std::span<const Vector> g, int f) { return gmom(g, f); };
  if (name == "bulyan") return bulyan;
  if (name == "normclip") return normclip;
  if (name == "cclip") return [](std::span<const Vector> g, int f) { return cclip(g, f); };
  ABFT_REQUIRE(false, "no reference rule named " + std::string(name));
}

}  // namespace abft::reference
