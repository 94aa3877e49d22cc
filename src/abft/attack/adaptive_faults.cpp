#include "abft/attack/adaptive_faults.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::attack {

namespace {

/// Coordinates per block of the omniscient faults' column statistics.
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

}  // namespace

LittleIsEnoughFault::LittleIsEnoughFault(double z) : z_(z) {
  ABFT_REQUIRE(z >= 0.0, "little-is-enough z must be non-negative");
}

bool LittleIsEnoughFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                    util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k];
    return true;
  }
  // Per coordinate: mean(honest) - z * population-stddev(honest).  The mean
  // accumulates in row order and scales by the reciprocal, matching
  // linalg::mean exactly.  Coordinates go in blocks of kStatBlock so each
  // pass streams the honest rows contiguously (a coordinate-outer walk
  // reads every row at a d-stride per coordinate); each coordinate still
  // sums its rows in the same order, so the result is unchanged.
  const int rows = honest.count();
  const auto count = static_cast<double>(rows);
  const double inv_count = 1.0 / count;
  for (std::size_t k0 = 0; k0 < out.size(); k0 += kStatBlock) {
    const std::size_t len = std::min(kStatBlock, out.size() - k0);
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
      // sum round separately on every target, as they always have; written
      // `sigma += diff * diff`, this loop may be contracted into FMAs.
      const double* row = honest.row(i).data() + k0;
      for (std::size_t k = 0; k < len; ++k) {
        const double diff = row[k] - mu[k];
        square[k] = diff * diff;
      }
      for (std::size_t k = 0; k < len; ++k) sigma[k] += square[k];
    }
    for (std::size_t k = 0; k < len; ++k) out[k0 + k] = mu[k] - z_ * std::sqrt(sigma[k] / count);
  }
  return true;
}

MeanReverseFault::MeanReverseFault(double scale) : scale_(scale) {
  ABFT_REQUIRE(scale > 0.0, "mean-reverse scale must be positive");
}

bool MeanReverseFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                 util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  const double scale = -scale_;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k] * scale;
    return true;
  }
  const double inv_count = 1.0 / static_cast<double>(honest.count());
  for (std::size_t k0 = 0; k0 < out.size(); k0 += kStatBlock) {
    const std::size_t len = std::min(kStatBlock, out.size() - k0);
    double mu[kStatBlock];
    column_sums(honest, k0, len, mu);
    for (std::size_t k = 0; k < len; ++k) out[k0 + k] = (mu[k] * inv_count) * scale;
  }
  return true;
}

bool MimicSmallestFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                   util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k];
    return true;
  }
  int best = 0;
  double best_norm = row_norm(honest.row(0));
  for (int i = 1; i < honest.count(); ++i) {
    const double norm = row_norm(honest.row(i));
    if (norm < best_norm) {
      best_norm = norm;
      best = i;
    }
  }
  const auto src = honest.row(best);
  std::copy(src.begin(), src.end(), out.begin());
  return true;
}

}  // namespace abft::attack
