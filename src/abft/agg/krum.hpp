// Krum and Multi-Krum (Blanchard et al., NeurIPS 2017) — the best-known
// distance-score gradient filters; the paper cites them as related work
// (Section 2.2), and we include them as comparison baselines.
//
// Krum score of gradient i: the sum of squared Euclidean distances from g_i
// to its n - f - 2 nearest other gradients.  Krum outputs the gradient with
// the lowest score; Multi-Krum averages the m lowest-score gradients.
// Both require n > 2f + 2.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class KrumAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "krum"; }
  /// n > 2f + 2; below n = 3 the rule cannot run at all (-1).
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 3 ? -1 : (n - 3) / 2;
  }

  /// Batched Krum scores, written into workspace.scores.  Fills the shared
  /// pairwise squared-distance matrix (a workspace lane's pairdist) via the
  /// Gram identity; Krum and Multi-Krum both score from it (Bulyan runs its
  /// own active-set scoring loop over the same fill_pairwise_sqdist matrix).
  static void batched_scores(const GradientBatch& batch, int f,
                             AggregatorWorkspace& workspace);
};

class MultiKrumAggregator final : public GradientAggregator {
 public:
  /// Averages the `m` lowest-score gradients; m = 0 means the canonical
  /// choice m = n - f computed per call.
  explicit MultiKrumAggregator(int m = 0);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "multikrum"; }
  /// n > 2f + 2 (same scoring precondition as Krum); -1 below n = 3.
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 3 ? -1 : (n - 3) / 2;
  }

 private:
  int m_;
};

}  // namespace abft::agg
