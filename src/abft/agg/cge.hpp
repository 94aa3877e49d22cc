// Comparative Gradient Elimination (CGE) — paper eq. (23).  Sorts gradients
// by Euclidean norm and returns the SUM of the n-f smallest-norm gradients
// (note: a sum, not an average — this matches the paper exactly, and the
// Theorem 4/5 constants are stated for the sum).
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class CgeAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "cge"; }
};

}  // namespace abft::agg
