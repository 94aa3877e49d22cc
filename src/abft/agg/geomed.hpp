// Geometric median (Weiszfeld's algorithm) and geometric median-of-means
// (GMoM, Chen-Su-Xu 2017) — cited in the paper's Section 2.2 survey.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

/// Computes the geometric median of the given points to the given relative
/// tolerance via damped Weiszfeld iterations.  Deterministic.
Vector geometric_median(std::span<const Vector> points, double tolerance = 1e-10,
                        int max_iterations = 200);

/// Batched geometric median over the rows of `batch`, written into `out`.
/// Draws the Weiszfeld numerator from workspace.f64.vecbuf — no allocation in
/// the iteration loop.  Same damping, tolerance and iteration schedule as
/// the span overload.
void geometric_median_into(Vector& out, const GradientBatch& batch,
                           AggregatorWorkspace& workspace, double tolerance = 1e-10,
                           int max_iterations = 200);

class GeometricMedianAggregator final : public GradientAggregator {
 public:
  [[nodiscard]] Vector aggregate(std::span<const Vector> gradients, int f) const override;
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "geomed"; }
};

/// Partitions the n gradients into k buckets (k = 2f + 1 by default, capped
/// at n), averages each bucket, then takes the geometric median of the
/// bucket means.
class GmomAggregator final : public GradientAggregator {
 public:
  explicit GmomAggregator(int num_buckets = 0);

  [[nodiscard]] Vector aggregate(std::span<const Vector> gradients, int f) const override;
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "gmom"; }

 private:
  int num_buckets_;
};

}  // namespace abft::agg
