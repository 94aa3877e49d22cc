// Bulyan (El Mhamdi et al., ICML 2018) — a two-stage filter cited in
// Section 2.2: repeatedly select via Krum to build a selection set of
// theta = n - 2f gradients, then output the coordinate-wise average of the
// beta = theta - 2f entries closest to the coordinate-wise median.
// Requires n >= 4f + 3.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class BulyanAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "bulyan"; }
  /// n >= 4f + 3 with f >= 1 (the selection schedule's final round needs a
  /// pool of at least two, which f = 0 never leaves), so n < 7 cannot run
  /// at all (-1).
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 7 ? -1 : (n - 3) / 4;
  }
  [[nodiscard]] int min_usable_f() const noexcept override { return 1; }
};

}  // namespace abft::agg
