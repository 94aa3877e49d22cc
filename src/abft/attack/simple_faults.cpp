#include "abft/attack/simple_faults.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

// Every emit_into below honors the out-may-alias-true_gradient contract by
// writing each index at most once, after its last read; the attack-parity
// tests check aliased and separate output rows bitwise.

namespace abft::attack {

bool GradientReverseFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                     util::Rng& /*rng*/) const {
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k] * -1.0;
  return true;
}

RandomGaussianFault::RandomGaussianFault(double stddev) : stddev_(stddev) {
  ABFT_REQUIRE(stddev >= 0.0, "gaussian fault stddev must be non-negative");
}

bool RandomGaussianFault::emit_into(std::span<double> out, const RowAttackContext& /*context*/,
                                    util::Rng& rng) const {
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = rng.normal(0.0, stddev_);
  return true;
}

bool ZeroFault::emit_into(std::span<double> out, const RowAttackContext& /*context*/,
                          util::Rng& /*rng*/) const {
  std::fill(out.begin(), out.end(), 0.0);
  return true;
}

SignFlipScaleFault::SignFlipScaleFault(double kappa) : kappa_(kappa) {
  ABFT_REQUIRE(kappa > 0.0, "sign-flip scale must be positive");
}

bool SignFlipScaleFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                   util::Rng& /*rng*/) const {
  const double scale = -kappa_;
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k] * scale;
  return true;
}

ConstantFault::ConstantFault(Vector payload) : payload_(std::move(payload)) {
  ABFT_REQUIRE(payload_.dim() > 0, "constant fault payload must be non-empty");
}

bool ConstantFault::emit_into(std::span<double> out, const RowAttackContext& /*context*/,
                              util::Rng& /*rng*/) const {
  ABFT_REQUIRE(payload_.dim() == static_cast<int>(out.size()),
               "constant fault payload dimension mismatch");
  const auto src = payload_.coefficients();
  std::copy(src.begin(), src.end(), out.begin());
  return true;
}

RotatingFault::RotatingFault(double magnitude, double omega)
    : magnitude_(magnitude), omega_(omega) {
  ABFT_REQUIRE(magnitude > 0.0, "rotating fault magnitude must be positive");
}

bool RotatingFault::emit_into(std::span<double> out, const RowAttackContext& context,
                              util::Rng& /*rng*/) const {
  std::fill(out.begin(), out.end(), 0.0);
  const double angle = omega_ * static_cast<double>(context.round);
  out[0] = magnitude_ * std::cos(angle);
  if (out.size() > 1) out[1] = magnitude_ * std::sin(angle);
  return true;
}

bool SilentFault::emit_into(std::span<double> /*out*/, const RowAttackContext& /*context*/,
                            util::Rng& /*rng*/) const {
  return false;
}

}  // namespace abft::attack
