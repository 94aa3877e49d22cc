#include "abft/attack/adaptive_faults.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::attack {

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
  // linalg::mean exactly.
  const auto count = static_cast<double>(honest.count());
  const double inv_count = 1.0 / count;
  for (std::size_t k = 0; k < out.size(); ++k) {
    double mu = 0.0;
    for (int i = 0; i < honest.count(); ++i) mu += honest.row(i)[k];
    mu *= inv_count;
    double sigma = 0.0;
    for (int i = 0; i < honest.count(); ++i) {
      const double diff = honest.row(i)[k] - mu;
      sigma += diff * diff;
    }
    out[k] = mu - z_ * std::sqrt(sigma / count);
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
  for (std::size_t k = 0; k < out.size(); ++k) {
    double mu = 0.0;
    for (int i = 0; i < honest.count(); ++i) mu += honest.row(i)[k];
    out[k] = (mu * inv_count) * scale;
  }
  return true;
}

namespace {

/// Vector::norm() over a raw row: sequential sum of squares, then sqrt.
double row_norm(std::span<const double> row) {
  double sum = 0.0;
  for (double v : row) sum += v * v;
  return std::sqrt(sum);
}

}  // namespace

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
