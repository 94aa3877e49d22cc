// Coordinate-Wise Trimmed Mean (CWTM) — paper eq. (24).  Per coordinate,
// drops the f largest and f smallest entries and averages the remaining
// n - 2f.  Requires n > 2f.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class CwtmAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "cwtm"; }
  /// n > 2f.
  [[nodiscard]] int max_usable_f(int n) const noexcept override { return (n - 1) / 2; }
};

}  // namespace abft::agg
