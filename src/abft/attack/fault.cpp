#include "abft/attack/fault.hpp"

#include <algorithm>
#include <cmath>

namespace abft::attack {

namespace {

/// Coordinates per block of the column statistics.
constexpr std::size_t kStatBlock = 128;

/// sum[k] = sum over honest rows i, in row order, of row_i[k0 + k] for k <
/// len: the rows stream contiguously, one block of columns at a time.
void column_sums(const HonestRowsView& honest, std::size_t k0, std::size_t len, double* sum) {
  for (std::size_t k = 0; k < len; ++k) sum[k] = 0.0;
  for (int i = 0; i < honest.count(); ++i) {
    const double* row = honest.row(i).data() + k0;
    for (std::size_t k = 0; k < len; ++k) sum[k] += row[k];
  }
}

/// Vector::norm() over a raw row: sequential sum of squares, then sqrt.
double row_norm(std::span<const double> row) {
  double sum = 0.0;
  for (double v : row) sum += v * v;
  return std::sqrt(sum);
}

/// Runs compute() once until `ready` is cleared: the first caller computes
/// under the lock, and a concurrent caller waits on the lock and then sees
/// `ready` set.
template <typename Compute>
void compute_once(std::mutex& mutex, std::atomic<bool>& ready, Compute&& compute) {
  if (ready.load()) return;
  const std::lock_guard<std::mutex> lock(mutex);
  if (ready.load()) return;
  compute();
  ready.store(true);
}

}  // namespace

void HonestMoments::ensure_columns(const HonestRowsView& honest) {
  compute_once(mutex_, columns_ready_, [&] { compute_columns(honest); });
}

void HonestMoments::ensure_smallest(const HonestRowsView& honest) {
  compute_once(mutex_, smallest_ready_, [&] {
    int best = 0;
    double best_norm = row_norm(honest.row(0));
    for (int i = 1; i < honest.count(); ++i) {
      const double norm = row_norm(honest.row(i));
      if (norm < best_norm) {
        best_norm = norm;
        best = i;
      }
    }
    smallest_ = best;
  });
}

void HonestMoments::compute_columns(const HonestRowsView& honest) {
  // Per coordinate: the mean accumulates in row order and scales by the
  // reciprocal, matching linalg::mean exactly; the stddev is the population
  // one.  Coordinates go in blocks of kStatBlock so each pass streams the
  // honest rows contiguously (a coordinate-outer walk reads every row at a
  // d-stride per coordinate); each coordinate still sums its rows in the
  // same order.
  const auto dim = static_cast<std::size_t>(honest.dim());
  mean_.resize(dim);
  stddev_.resize(dim);
  const int rows = honest.count();
  const auto count = static_cast<double>(rows);
  const double inv_count = 1.0 / count;
  for (std::size_t k0 = 0; k0 < dim; k0 += kStatBlock) {
    const std::size_t len = std::min(kStatBlock, dim - k0);
    double mu[kStatBlock];
    double sigma[kStatBlock];
    double square[kStatBlock];
    column_sums(honest, k0, len, mu);
    for (std::size_t k = 0; k < len; ++k) {
      mu[k] *= inv_count;
      sigma[k] = 0.0;
    }
    for (int i = 0; i < rows; ++i) {
      // Each square is stored before it is added, so the product and the
      // sum round separately on every target; written `sigma += diff *
      // diff`, this loop may be contracted into FMAs.
      const double* row = honest.row(i).data() + k0;
      for (std::size_t k = 0; k < len; ++k) {
        const double diff = row[k] - mu[k];
        square[k] = diff * diff;
      }
      for (std::size_t k = 0; k < len; ++k) sigma[k] += square[k];
    }
    for (std::size_t k = 0; k < len; ++k) {
      mean_[k0 + k] = mu[k];
      stddev_[k0 + k] = std::sqrt(sigma[k] / count);
    }
  }
}

}  // namespace abft::attack
