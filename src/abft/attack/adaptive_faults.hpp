// Omniscient fault behaviours: adversaries that observe the honest agents'
// gradients before choosing their own message.  These are the strongest
// adversaries admitted by the Byzantine model and stress the filters far
// harder than the paper's two static behaviours.
#pragma once

#include "abft/attack/fault.hpp"

namespace abft::attack {

/// "A Little Is Enough"-style attack (Baruch et al., 2019): sends
/// mean(honest) - z * stddev(honest), coordinate-wise.  With small z the
/// perturbation hides inside the honest spread and evades norm/trim filters.
class LittleIsEnoughFault final : public FaultModel {
 public:
  explicit LittleIsEnoughFault(double z);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "little-is-enough"; }

 private:
  double z_;
};

/// Sends -scale * mean(honest gradients): the steepest adversarial direction
/// against plain averaging.
class MeanReverseFault final : public FaultModel {
 public:
  explicit MeanReverseFault(double scale);
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "mean-reverse"; }

 private:
  double scale_;
};

/// Mimics the honest gradient with the smallest norm — indistinguishable to
/// CGE, bounding what any norm-based rule can do.
class MimicSmallestFault final : public FaultModel {
 public:
  [[nodiscard]] bool emit_into(std::span<double> out, const RowAttackContext& context,
                               util::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "mimic-smallest"; }
};

}  // namespace abft::attack
