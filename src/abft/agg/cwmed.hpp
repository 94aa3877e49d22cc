// Coordinate-wise median — the f-independent limit of CWTM; a standard
// robust-aggregation baseline (see the paper's Section 2.2 survey).
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class CwmedAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "cwmed"; }
};

}  // namespace abft::agg
