#include "abft/agg/aggregator.hpp"

namespace abft::agg {

Vector GradientAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  GradientBatch batch;
  batch.pack(gradients);
  AggregatorWorkspace workspace;
  return aggregate_batched(batch, f, workspace);
}

Vector GradientAggregator::aggregate_batched(const GradientBatch& batch, int f,
                                             AggregatorWorkspace& workspace) const {
  Vector out;
  aggregate_into(out, batch, f, workspace);
  return out;
}

}  // namespace abft::agg
