#include "abft/attack/adaptive_faults.hpp"

#include <algorithm>

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
  // Per coordinate: mean(honest) - z * population-stddev(honest), from the
  // round's shared moments (one pass over the honest rows per round).
  const auto mean = honest.column_mean();
  const auto stddev = honest.column_stddev();
  ABFT_REQUIRE(mean.size() == out.size(), "honest rows and output differ in dimension");
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = mean[k] - z_ * stddev[k];
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
  const auto mean = honest.column_mean();
  ABFT_REQUIRE(mean.size() == out.size(), "honest rows and output differ in dimension");
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = mean[k] * scale;
  return true;
}

bool MimicSmallestFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                   util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k];
    return true;
  }
  const auto src = honest.row(honest.smallest_norm_row());
  std::copy(src.begin(), src.end(), out.begin());
  return true;
}

}  // namespace abft::attack
