// Unit and property tests for the gradient-filter library.  Each rule gets
// exact small-case checks; a parameterized suite then asserts the shared
// robustness contract across every robust rule: permutation invariance and
// bounded output under f arbitrarily-large outliers.  The batched kernels
// are checked against the naive reference rules in reference_rules.hpp, and
// every rule's f range against its min_usable_f / max_usable_f contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "abft/agg/average.hpp"
#include "abft/agg/bulyan.hpp"
#include "abft/agg/cclip.hpp"
#include "abft/agg/cge.hpp"
#include "abft/agg/cwmed.hpp"
#include "abft/agg/cwtm.hpp"
#include "abft/agg/geomed.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/krum.hpp"
#include "abft/agg/normclip.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"
#include "reference_rules.hpp"

namespace {

using namespace abft;
using agg::Vector;

std::vector<Vector> make_gradients(std::initializer_list<Vector> list) { return {list}; }

TEST(Validate, SharedPreconditions) {
  // The span adapter and the reference rules reject the same families.
  const agg::AverageAggregator rule;
  const auto grads = make_gradients({Vector{1.0, 0.0}, Vector{0.0, 1.0}});
  const auto ragged = make_gradients({Vector{1.0}, Vector{1.0, 2.0}});
  const auto empty_rows = make_gradients({Vector{}, Vector{}});
  EXPECT_EQ(rule.aggregate(grads, 0).dim(), 2);
  EXPECT_EQ(reference::validate_gradients(grads, 0), 2);
  const std::pair<std::vector<Vector>, int> rejected[] = {
      {{}, 0}, {grads, -1}, {grads, 2}, {ragged, 0}, {empty_rows, 0}};
  for (const auto& [family, f] : rejected) {
    EXPECT_THROW((void)rule.aggregate(family, f), std::invalid_argument);
    EXPECT_THROW(reference::validate_gradients(family, f), std::invalid_argument);
  }
}

TEST(Average, IsTheMean) {
  const agg::AverageAggregator rule;
  const auto grads = make_gradients({Vector{2.0, 0.0}, Vector{0.0, 2.0}});
  EXPECT_EQ(rule.aggregate(grads, 0), (Vector{1.0, 1.0}));
}

TEST(Cge, SumsSmallestNormGradients) {
  const agg::CgeAggregator rule;
  // Norms: 1, 2, 10 -> with f = 1, keep the two smallest.
  const auto grads = make_gradients({Vector{1.0, 0.0}, Vector{0.0, 2.0}, Vector{10.0, 0.0}});
  EXPECT_EQ(rule.aggregate(grads, 1), (Vector{1.0, 2.0}));
}

TEST(Cge, KeepsEverythingWhenFZero) {
  const agg::CgeAggregator rule;
  const auto grads = make_gradients({Vector{1.0}, Vector{2.0}, Vector{3.0}});
  EXPECT_EQ(rule.aggregate(grads, 0), (Vector{6.0}));
}

TEST(Cge, KeptIndicesSortedByNorm) {
  const auto grads = make_gradients({Vector{3.0}, Vector{1.0}, Vector{2.0}});
  const auto kept = reference::cge_kept_indices(grads, 1);
  EXPECT_EQ(kept, (std::vector<int>{1, 2}));
  EXPECT_EQ(agg::CgeAggregator{}.aggregate(grads, 1), (Vector{3.0}));
}

TEST(Cge, TieBreakIsStableByIndex) {
  const auto grads = make_gradients({Vector{1.0, 0.0}, Vector{0.0, 1.0}, Vector{-1.0, 0.0}});
  const auto kept = reference::cge_kept_indices(grads, 1);
  EXPECT_EQ(kept, (std::vector<int>{0, 1}));  // equal norms: earlier index first
  EXPECT_EQ(agg::CgeAggregator{}.aggregate(grads, 1), (Vector{1.0, 1.0}));
}

TEST(Cwtm, TrimsPerCoordinate) {
  const agg::CwtmAggregator rule;
  // Coordinate 0 sorted: 0, 1, 2, 100 -> trim 0 and 100, mean(1, 2) = 1.5.
  const auto grads = make_gradients(
      {Vector{0.0, 5.0}, Vector{1.0, 6.0}, Vector{2.0, 7.0}, Vector{100.0, 8.0}});
  const Vector out = rule.aggregate(grads, 1);
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_DOUBLE_EQ(out[1], 6.5);
}

TEST(Cwtm, FZeroIsPlainMean) {
  const agg::CwtmAggregator rule;
  const auto grads = make_gradients({Vector{2.0}, Vector{4.0}});
  EXPECT_EQ(rule.aggregate(grads, 0), (Vector{3.0}));
}

TEST(Cwtm, RequiresMoreThanTwoFGradients) {
  const agg::CwtmAggregator rule;
  const auto grads = make_gradients({Vector{1.0}, Vector{2.0}});
  EXPECT_THROW(rule.aggregate(grads, 1), std::invalid_argument);
}

TEST(Cwtm, OutputInsideHonestHullPerCoordinate) {
  // With at most f corrupt entries per coordinate, the trimmed mean stays
  // within [min honest, max honest] per coordinate (paper, eq. 119-120).
  util::Rng rng(3);
  const agg::CwtmAggregator rule;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vector> grads;
    const int honest = 5;
    for (int i = 0; i < honest; ++i) {
      grads.push_back(Vector{rng.normal(), rng.normal()});
    }
    double lo0 = 1e300, hi0 = -1e300, lo1 = 1e300, hi1 = -1e300;
    for (const auto& g : grads) {
      lo0 = std::min(lo0, g[0]);
      hi0 = std::max(hi0, g[0]);
      lo1 = std::min(lo1, g[1]);
      hi1 = std::max(hi1, g[1]);
    }
    grads.push_back(Vector{1e9, -1e9});  // one Byzantine outlier, f = 1
    const Vector out = rule.aggregate(grads, 1);
    EXPECT_GE(out[0], lo0 - 1e-12);
    EXPECT_LE(out[0], hi0 + 1e-12);
    EXPECT_GE(out[1], lo1 - 1e-12);
    EXPECT_LE(out[1], hi1 + 1e-12);
  }
}

TEST(Cwmed, OddAndEvenCounts) {
  const agg::CwmedAggregator rule;
  const auto odd = make_gradients({Vector{1.0}, Vector{5.0}, Vector{3.0}});
  EXPECT_EQ(rule.aggregate(odd, 0), (Vector{3.0}));
  const auto even = make_gradients({Vector{1.0}, Vector{5.0}, Vector{3.0}, Vector{4.0}});
  EXPECT_EQ(rule.aggregate(even, 0), (Vector{3.5}));
}

TEST(Krum, SelectsFromTheHonestCluster) {
  const agg::KrumAggregator rule;
  // Five clustered gradients + one far outlier; Krum must return a cluster
  // member (n = 6 > 2f + 2 with f = 1).
  auto grads = make_gradients({Vector{1.0, 1.0}, Vector{1.1, 1.0}, Vector{0.9, 1.0},
                               Vector{1.0, 1.1}, Vector{1.0, 0.9}, Vector{50.0, 50.0}});
  const Vector out = rule.aggregate(grads, 1);
  EXPECT_LT(linalg::distance(out, Vector{1.0, 1.0}), 0.5);
  // Krum returns one of its inputs verbatim.
  EXPECT_NE(std::find(grads.begin(), grads.end(), out), grads.end());
}

TEST(Krum, RequiresNGreaterThanTwoFPlusTwo) {
  const agg::KrumAggregator rule;
  const auto grads = make_gradients({Vector{1.0}, Vector{2.0}, Vector{3.0}, Vector{4.0}});
  EXPECT_THROW(rule.aggregate(grads, 1), std::invalid_argument);  // 4 <= 2*1+2
}

TEST(MultiKrum, AveragesLowScoreGradients) {
  const agg::MultiKrumAggregator rule(2);
  const auto grads = make_gradients({Vector{1.0, 0.0}, Vector{1.2, 0.0}, Vector{0.8, 0.0},
                                     Vector{1.1, 0.0}, Vector{0.9, 0.0}, Vector{99.0, 0.0}});
  const Vector out = rule.aggregate(grads, 1);
  EXPECT_NEAR(out[0], 1.0, 0.3);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

/// Batched geometric median of a point family.
Vector geometric_median(std::span<const Vector> points, double tolerance = 1e-10,
                        int max_iterations = 200) {
  agg::GradientBatch batch;
  batch.pack(points);
  agg::AggregatorWorkspace ws;
  Vector out;
  agg::geometric_median_into(out, batch, ws, tolerance, max_iterations);
  return out;
}

TEST(GeometricMedian, MatchesMedianInOneDimension) {
  const auto points = make_gradients({Vector{1.0}, Vector{2.0}, Vector{100.0}});
  const Vector med = geometric_median(points);
  EXPECT_NEAR(med[0], 2.0, 1e-6);
}

TEST(GeometricMedian, FirstOrderOptimality) {
  // At the geometric median the sum of unit vectors toward the points
  // (sub)vanishes.
  util::Rng rng(9);
  std::vector<Vector> points;
  for (int i = 0; i < 7; ++i) points.push_back(Vector{rng.normal(), rng.normal()});
  const Vector med = geometric_median(points, 1e-12, 500);
  Vector subgradient(2);
  for (const auto& p : points) {
    const double dist = linalg::distance(med, p);
    ASSERT_GT(dist, 1e-9);
    subgradient.add_scaled(1.0 / dist, med - p);
  }
  EXPECT_LT(subgradient.norm(), 1e-4);
}

TEST(Gmom, SingleBucketIsGeometricMedianOfMean) {
  const agg::GmomAggregator rule(1);
  const auto grads = make_gradients({Vector{0.0}, Vector{2.0}});
  EXPECT_NEAR(rule.aggregate(grads, 0)[0], 1.0, 1e-9);
}

TEST(Gmom, DefaultBucketCountResistsOutlier) {
  const agg::GmomAggregator rule;  // 2f + 1 = 3 buckets
  const auto grads = make_gradients({Vector{1.0}, Vector{1.1}, Vector{0.9}, Vector{1.05},
                                     Vector{0.95}, Vector{1e6}});
  EXPECT_LT(std::abs(rule.aggregate(grads, 1)[0] - 1.0), 0.6);
}

TEST(Bulyan, RequiresFourFPlusThree) {
  const agg::BulyanAggregator rule;
  const auto grads = make_gradients({Vector{1.0}, Vector{2.0}, Vector{3.0}, Vector{4.0},
                                     Vector{5.0}, Vector{6.0}});
  EXPECT_THROW(rule.aggregate(grads, 1), std::invalid_argument);  // 6 < 4*1+3
}

TEST(Bulyan, StaysInsideHonestCluster) {
  const agg::BulyanAggregator rule;
  std::vector<Vector> grads;
  util::Rng rng(12);
  for (int i = 0; i < 6; ++i) grads.push_back(Vector{1.0 + 0.01 * rng.normal()});
  grads.push_back(Vector{-1e7});  // f = 1, n = 7 >= 4f + 3
  const Vector out = rule.aggregate(grads, 1);
  EXPECT_NEAR(out[0], 1.0, 0.1);
}

TEST(NormClip, BoundsOutlierInfluence) {
  const agg::NormClipAggregator rule;
  const auto grads = make_gradients({Vector{1.0}, Vector{1.0}, Vector{1e9}});
  // Median norm = 1, so the outlier is scaled to norm 1: mean = 1.
  EXPECT_NEAR(rule.aggregate(grads, 1)[0], 1.0, 1e-9);
}

TEST(CenteredClip, PassesCleanGradientsThrough) {
  // When every gradient sits within the clip radius of the pivot, centered
  // clipping converges to the plain mean.
  const agg::CenteredClipAggregator rule(10.0, 5);
  const auto grads = make_gradients({Vector{1.0, 0.0}, Vector{3.0, 0.0}});
  EXPECT_NEAR(rule.aggregate(grads, 0)[0], 2.0, 1e-9);
}

TEST(CenteredClip, OutlierInfluenceBoundedByTau) {
  const agg::CenteredClipAggregator rule(1.0, 1);
  const auto grads = make_gradients({Vector{0.0}, Vector{0.0}, Vector{1e9}});
  // Pivot = median = 0; the outlier contributes at most tau/n = 1/3.
  EXPECT_NEAR(rule.aggregate(grads, 1)[0], 1.0 / 3.0, 1e-9);
}

TEST(CenteredClip, AdaptiveRadiusResistsOutliers) {
  const agg::CenteredClipAggregator rule;  // adaptive tau, 3 iterations
  util::Rng rng(55);
  std::vector<Vector> grads;
  for (int i = 0; i < 8; ++i) grads.push_back(Vector{1.0 + 0.05 * rng.normal()});
  grads.push_back(Vector{1e7});
  EXPECT_NEAR(rule.aggregate(grads, 1)[0], 1.0, 0.3);
}

TEST(CenteredClip, IdenticalGradientsShortCircuit) {
  const agg::CenteredClipAggregator rule;
  const auto grads = make_gradients({Vector{2.0, -1.0}, Vector{2.0, -1.0}, Vector{2.0, -1.0}});
  EXPECT_EQ(rule.aggregate(grads, 1), (Vector{2.0, -1.0}));
}

TEST(ClippedInput, CapsNormsBeforeInnerRule) {
  const agg::AverageAggregator inner;
  const agg::ClippedInputAggregator rule(inner);
  const auto grads = make_gradients({Vector{1.0}, Vector{1.0}, Vector{1e9}});
  // Median norm 1 caps the outlier: mean = 1.
  EXPECT_NEAR(rule.aggregate(grads, 1)[0], 1.0, 1e-9);
}

// Structural property of CGE across an (n, f) grid: the output is exactly
// the sum of some n - f of the inputs, all with norms no larger than every
// dropped input's norm.
struct CgeGridParam {
  int n;
  int f;
};

class CgeStructure : public ::testing::TestWithParam<CgeGridParam> {};

TEST_P(CgeStructure, OutputIsSumOfSmallestNormSubset) {
  const auto [n, f] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 10 + f));
  std::vector<Vector> grads;
  for (int i = 0; i < n; ++i) {
    grads.push_back(Vector{rng.normal(), rng.normal(), rng.normal()});
  }
  const agg::CgeAggregator rule;
  const Vector out = rule.aggregate(grads, f);
  const auto kept = reference::cge_kept_indices(grads, f);
  ASSERT_EQ(kept.size(), static_cast<std::size_t>(n - f));
  Vector expected(3);
  double max_kept_norm = 0.0;
  for (int idx : kept) {
    expected += grads[static_cast<std::size_t>(idx)];
    max_kept_norm = std::max(max_kept_norm, grads[static_cast<std::size_t>(idx)].norm());
  }
  EXPECT_TRUE(linalg::approx_equal(out, expected, 1e-12));
  // Every dropped gradient has norm >= every kept one.
  std::vector<bool> is_kept(grads.size(), false);
  for (int idx : kept) is_kept[static_cast<std::size_t>(idx)] = true;
  for (std::size_t i = 0; i < grads.size(); ++i) {
    if (!is_kept[i]) {
      EXPECT_GE(grads[i].norm() + 1e-12, max_kept_norm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CgeStructure,
                         ::testing::Values(CgeGridParam{3, 0}, CgeGridParam{5, 1},
                                           CgeGridParam{6, 2}, CgeGridParam{9, 3},
                                           CgeGridParam{12, 5}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.f);
                         });

TEST(Registry, ConstructsEveryKnownRule) {
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->name(), name);
  }
  EXPECT_THROW(agg::make_aggregator("nope"), std::invalid_argument);
}

TEST(Registry, UsableFContractIsExact) {
  // Engines clamp the declared f into [min_usable_f(), max_usable_f(n)], so
  // every f in that range must run, and every f outside it must be rejected
  // with invalid_argument — in every mode and lane.
  struct Lane {
    agg::AggMode mode;
    agg::Precision precision;
    const char* label;
  };
  const Lane lanes[] = {{agg::AggMode::exact, agg::Precision::f64, "exact"},
                        {agg::AggMode::fast, agg::Precision::f64, "fast/f64"},
                        {agg::AggMode::fast, agg::Precision::f32, "fast/f32"}};
  util::Rng rng(1301);
  agg::GradientBatch batch;
  Vector out;
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    for (const auto& lane : lanes) {
      agg::AggregatorWorkspace ws;
      ws.mode = lane.mode;
      ws.precision = lane.precision;
      for (const int d : {3, 600}) {
        for (int n = 1; n <= 20; ++n) {
          batch.reshape(n, d);
          for (int i = 0; i < n; ++i) {
            for (double& x : batch.row(i)) x = rng.normal();
          }
          for (int f = 0; f < n; ++f) {
            const bool usable = f >= rule->min_usable_f() && f <= rule->max_usable_f(n);
            bool threw = false;
            try {
              rule->aggregate_into(out, batch, f, ws);
            } catch (const std::invalid_argument&) {
              threw = true;
            }
            EXPECT_EQ(threw, !usable) << name << " " << lane.label << " n=" << n << " f=" << f
                                      << " d=" << d;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared robustness contract, parameterized across robust rules.
// n = 11, f = 2 satisfies every rule's precondition (n > 2f+2, n >= 4f+3).
// ---------------------------------------------------------------------------

class RobustRuleTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr int kN = 11;
  static constexpr int kF = 2;

  static std::vector<Vector> honest_cluster(util::Rng& rng, int count, double spread) {
    std::vector<Vector> grads;
    for (int i = 0; i < count; ++i) {
      grads.push_back(Vector{1.0 + spread * rng.normal(), -2.0 + spread * rng.normal(),
                             0.5 + spread * rng.normal()});
    }
    return grads;
  }
};

TEST_P(RobustRuleTest, OutputBoundedUnderHugeOutliers) {
  const auto rule = agg::make_aggregator(GetParam());
  util::Rng rng(101);
  auto grads = honest_cluster(rng, kN - kF, 0.05);
  double honest_norm_cap = 0.0;
  for (const auto& g : grads) honest_norm_cap = std::max(honest_norm_cap, g.norm());
  for (int i = 0; i < kF; ++i) grads.push_back(Vector{1e8, -1e8, 1e8});
  const Vector out = rule->aggregate(grads, kF);
  // A robust rule's output is bounded by a constant multiple of the honest
  // norms (for CGE, the sum of n - f of them), never by the outlier scale.
  EXPECT_LE(out.norm(), static_cast<double>(kN) * honest_norm_cap + 1e-9)
      << "rule " << GetParam() << " was dragged by outliers";
}

TEST_P(RobustRuleTest, PermutationInvariant) {
  if (GetParam() == "gmom") {
    GTEST_SKIP() << "gmom buckets by index; permutation invariance does not apply";
  }
  const auto rule = agg::make_aggregator(GetParam());
  util::Rng rng(202);
  auto grads = honest_cluster(rng, kN - kF, 0.2);
  for (int i = 0; i < kF; ++i) {
    grads.push_back(Vector{10.0 + rng.normal(), 10.0, -10.0});
  }
  const Vector base = rule->aggregate(grads, kF);
  auto shuffled = grads;
  const auto perm = rng.permutation(static_cast<int>(shuffled.size()));
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    shuffled[i] = grads[static_cast<std::size_t>(perm[i])];
  }
  const Vector permuted = rule->aggregate(shuffled, kF);
  EXPECT_TRUE(linalg::approx_equal(base, permuted, 1e-9))
      << "rule " << GetParam() << " depends on input order";
}

TEST_P(RobustRuleTest, IdenticalGradientsAreAFixedPoint) {
  // When every agent reports the same vector g, any sensible rule returns g
  // itself — except CGE, which by definition returns the SUM of n - f
  // copies.
  const auto rule = agg::make_aggregator(GetParam());
  const Vector g{0.7, -1.3, 2.1};
  const std::vector<Vector> grads(kN, g);
  const Vector out = rule->aggregate(grads, kF);
  const Vector expected = GetParam() == "cge" ? static_cast<double>(kN - kF) * g : g;
  EXPECT_TRUE(linalg::approx_equal(out, expected, 1e-9)) << GetParam();
}

TEST_P(RobustRuleTest, CleanInputStaysNearHonestMean) {
  const auto rule = agg::make_aggregator(GetParam());
  util::Rng rng(303);
  const auto grads = honest_cluster(rng, kN, 0.01);
  Vector out = rule->aggregate(grads, kF);
  if (GetParam() == "cge") out /= static_cast<double>(kN - kF);  // CGE returns a sum
  EXPECT_LT(linalg::distance(out, Vector{1.0, -2.0, 0.5}), 0.1);
}

INSTANTIATE_TEST_SUITE_P(AllRobustRules, RobustRuleTest,
                         ::testing::Values("cge", "cwtm", "cwmed", "krum", "multikrum",
                                           "geomed", "gmom", "bulyan", "normclip", "cclip"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// GradientBatch / AggregatorWorkspace and the batched aggregate_into path.
// ---------------------------------------------------------------------------

TEST(GradientBatch, PackRoundTrips) {
  const auto grads = make_gradients({Vector{1.0, 2.0}, Vector{3.0, 4.0}, Vector{5.0, 6.0}});
  agg::GradientBatch batch;
  batch.pack(grads);
  EXPECT_EQ(batch.rows(), 3);
  EXPECT_EQ(batch.cols(), 2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(batch.unpack_row(i), grads[static_cast<std::size_t>(i)]);
}

TEST(GradientBatch, ReshapeReusesStorageAndSetRowWrites) {
  agg::GradientBatch batch(4, 8);
  batch.reshape(2, 3);
  EXPECT_EQ(batch.rows(), 2);
  EXPECT_EQ(batch.cols(), 3);
  batch.set_row(0, Vector{1.0, 2.0, 3.0});
  batch.set_row(1, Vector{4.0, 5.0, 6.0});
  EXPECT_EQ(batch.unpack_row(1), (Vector{4.0, 5.0, 6.0}));
  EXPECT_THROW(batch.set_row(0, Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(batch.set_row(2, Vector{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(GradientBatch, PackRejectsBadInput) {
  agg::GradientBatch batch;
  EXPECT_THROW(batch.pack({}), std::invalid_argument);
  const auto ragged = make_gradients({Vector{1.0}, Vector{1.0, 2.0}});
  EXPECT_THROW(batch.pack(ragged), std::invalid_argument);
}

namespace parity {

std::vector<Vector> random_gradients(util::Rng& rng, int n, int d, double scale = 1.0) {
  std::vector<Vector> grads;
  grads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vector g(d);
    for (int k = 0; k < d; ++k) g[k] = scale * rng.normal();
    grads.push_back(std::move(g));
  }
  return grads;
}

/// Asserts the batched kernel agrees with the reference rule to 1e-12
/// (relative to the output's own magnitude), or that both reject the shape.
void expect_parity(const reference::Rule& oracle, const agg::GradientAggregator& rule,
                   std::span<const Vector> grads, int f, agg::AggregatorWorkspace& ws,
                   const std::string& label) {
  agg::GradientBatch batch;
  batch.pack(grads);
  Vector expected;
  bool expected_threw = false;
  try {
    expected = oracle(grads, f);
  } catch (const std::invalid_argument&) {
    expected_threw = true;
  }
  Vector batched;
  bool batched_threw = false;
  try {
    rule.aggregate_into(batched, batch, f, ws);
  } catch (const std::invalid_argument&) {
    batched_threw = true;
  }
  ASSERT_EQ(expected_threw, batched_threw)
      << label << ": only one of oracle and kernel rejected the shape";
  if (expected_threw) return;
  ASSERT_EQ(expected.dim(), batched.dim()) << label;
  const double tol = 1e-12 * std::max(1.0, expected.norm_inf());
  for (int k = 0; k < expected.dim(); ++k) {
    ASSERT_NEAR(expected[k], batched[k], tol) << label << " coordinate " << k;
  }
}

}  // namespace parity

TEST(BatchedParity, AllRegistryRulesAcrossShapes) {
  struct Shape {
    int n, d, f;
  };
  // Includes the edge shapes n = 2f + 1 and d = 1, plus f = 0.
  const Shape shapes[] = {{3, 1, 1},  {5, 3, 1},   {7, 16, 1},  {11, 4, 2},
                          {12, 8, 0}, {15, 9, 3},  {25, 33, 4}, {50, 17, 10},
                          {9, 1, 2},  {20, 257, 3}};
  util::Rng rng(7777);
  agg::AggregatorWorkspace ws;  // shared across every rule and shape on purpose
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    for (const auto& s : shapes) {
      const auto grads = parity::random_gradients(rng, s.n, s.d);
      parity::expect_parity(reference::rule(name), *rule, grads, s.f, ws,
                            std::string(name) + " n=" + std::to_string(s.n) +
                                " d=" + std::to_string(s.d) + " f=" + std::to_string(s.f));
    }
  }
}

TEST(BatchedParity, DuplicateHeavyColumns) {
  // Quantized gradients produce exact ties in every coordinate, driving the
  // coordinate-wise rank kernels into their duplicate-detection fallback.
  util::Rng rng(31337);
  agg::AggregatorWorkspace ws;
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    std::vector<Vector> grads;
    const int n = 13, d = 24, f = 2;
    for (int i = 0; i < n; ++i) {
      Vector g(d);
      for (int k = 0; k < d; ++k) {
        g[k] = 0.5 * std::round(2.0 * rng.normal());  // heavy ties, incl. +-0
      }
      grads.push_back(std::move(g));
    }
    parity::expect_parity(reference::rule(name), *rule, grads, f, ws,
                          std::string(name) + " duplicates");
  }
}

TEST(BatchedParity, LargeNSelectionFallback) {
  // n above the rank-kernel cutoff exercises the nth_element column path.
  util::Rng rng(909);
  agg::AggregatorWorkspace ws;
  const auto grads = parity::random_gradients(rng, 300, 3, 2.0);
  for (const auto name : {"cwtm", "cwmed", "normclip", "cge"}) {
    const auto rule = agg::make_aggregator(name);
    parity::expect_parity(reference::rule(name), *rule, grads, 60, ws,
                          std::string(name) + " n=300");
  }
}

TEST(BatchedParity, ParallelThreadsMatchSingleThread) {
  util::Rng rng(4242);
  const auto grads = parity::random_gradients(rng, 20, 103, 1.0);
  agg::GradientBatch batch;
  batch.pack(grads);
  agg::ThreadPool pool(4);
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    agg::AggregatorWorkspace serial_ws;
    agg::AggregatorWorkspace parallel_ws;
    parallel_ws.pool = &pool;
    const Vector serial = rule->aggregate_batched(batch, 3, serial_ws);
    const Vector parallel = rule->aggregate_batched(batch, 3, parallel_ws);
    EXPECT_EQ(serial, parallel) << name << ": parallel partition changed the result";
  }
}

TEST(BatchedParity, WorkspaceReuseAcrossCallsIsStable) {
  // The same workspace reused across rules, shapes and repeated calls must
  // keep producing identical outputs (buffers are recomputed, never stale).
  util::Rng rng(555);
  agg::AggregatorWorkspace ws;
  const auto big = parity::random_gradients(rng, 30, 40, 1.0);
  const auto small = parity::random_gradients(rng, 7, 5, 1.0);
  agg::GradientBatch batch;
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    batch.pack(big);
    const Vector first = rule->aggregate_batched(batch, 5, ws);
    batch.pack(small);
    (void)rule->aggregate_batched(batch, 1, ws);
    batch.pack(big);
    const Vector again = rule->aggregate_batched(batch, 5, ws);
    EXPECT_EQ(first, again) << name << ": workspace reuse changed the result";
  }
}

TEST(BatchedParity, GramCancellationGuard) {
  // Gradients sharing a huge common component while differing by tiny
  // deltas: the naive Gram identity loses all digits of the pairwise
  // distances here, so this locks in the guarded recompute.  The batched
  // Krum family must still rank the outlier-adjacent scores like the
  // reference rules' direct distances do.
  util::Rng rng(86);
  const int n = 9, d = 6, f = 1;
  std::vector<Vector> grads;
  for (int i = 0; i < n; ++i) {
    Vector g(d);
    for (int k = 0; k < d; ++k) g[k] = 1e8 + 1e-2 * rng.normal();
    grads.push_back(std::move(g));
  }
  agg::AggregatorWorkspace ws;
  for (const auto name : {"krum", "multikrum", "bulyan", "geomed", "cclip"}) {
    const auto rule = agg::make_aggregator(name);
    parity::expect_parity(reference::rule(name), *rule, grads, f, ws,
                          std::string(name) + " gram-cancellation");
  }
}

TEST(BatchedParity, ClippedInputAdapterMatches) {
  util::Rng rng(2024);
  const auto grads = parity::random_gradients(rng, 12, 19, 3.0);
  const agg::CwtmAggregator inner;
  const agg::ClippedInputAggregator rule(inner);
  agg::AggregatorWorkspace ws;
  const auto oracle = [](std::span<const Vector> g, int f) {
    return reference::clipped_input(reference::cwtm, g, f);
  };
  parity::expect_parity(oracle, rule, grads, 2, ws, "clipped-input");
}

// ------------------------------- Gram fill -----------------------------------
//
// The Gram fill (fill_pairwise_sqdist) runs register tiles of several row
// pairs; every pair must still see the pair-at-a-time arithmetic restated
// here: 1024-wide chunks of kLanes<T> lane sums (the fast four-accumulator
// kernel's chunks in fast mode on AVX-512 builds), then the partial chunk,
// remainder first, then its lanes in order, each chunk's dot added to the
// cell in turn.
namespace gram {

constexpr int kChunk = 1024;

/// c + a * b with the product rounded first (volatile keeps the compiler
/// from contracting the two into an FMA).
template <typename T>
T unfused(T a, T b, T c) {
  volatile T product = a * b;
  return c + product;
}

template <typename T>
T fused(T a, T b, T c) {
  return std::fma(a, b, c);
}

/// The multiply-add of the portable kernels: fused where the target has a
/// fast FMA.
template <typename T>
T madd(T a, T b, T c) {
#if defined(FP_FAST_FMA) && defined(FP_FAST_FMAF)
  return fused(a, b, c);
#else
  return unfused(a, b, c);
#endif
}

/// Exact-order dot of one segment of len elements.
template <typename T>
T laned_dot(const T* a, const T* b, int len) {
  constexpr int kL = agg::detail::kLanes<T>;
  const int steps = len / kL;
  T lanes[kL] = {};
  T dot = 0;
#if defined(ABFT_AVX512)
  // AVX-512 builds: fused, except the float lanes' leading 16-step blocks
  // and the first half-vector of a remainder of at least half a vector.
  const int rounded_steps = std::is_same_v<T, float> && steps > 0 ? (steps - 1) / 16 * 16 : 0;
  for (int s = 0; s < steps; ++s) {
    for (int l = 0; l < kL; ++l) {
      const T x = a[s * kL + l];
      const T y = b[s * kL + l];
      lanes[l] = s < rounded_steps ? unfused(x, y, lanes[l]) : fused(x, y, lanes[l]);
    }
  }
  const int rem = len - steps * kL;
  const int rounded_rem = rem >= kL / 2 ? kL / 2 : 0;
  for (int t = 0; t < rem; ++t) {
    const T x = a[steps * kL + t];
    const T y = b[steps * kL + t];
    dot = t < rounded_rem ? unfused(x, y, dot) : fused(x, y, dot);
  }
#else
  for (int s = 0; s < steps; ++s) {
    for (int l = 0; l < kL; ++l) lanes[l] = madd(a[s * kL + l], b[s * kL + l], lanes[l]);
  }
  for (int k = steps * kL; k < len; ++k) dot = madd(a[k], b[k], dot);
#endif
  for (int l = 0; l < kL; ++l) dot += lanes[l];
  return dot;
}

#if defined(ABFT_AVX512)
/// Fast-mode full chunk: four fused accumulator vectors, tree-reduced.
template <typename T>
T fast_chunk_dot(const T* a, const T* b) {
  using Z = agg::detail::Zmm<T>;
  constexpr int kL = agg::detail::kLanes<T>;
  T acc[4][kL] = {};
  for (int k = 0; k < kChunk; k += 4 * kL) {
    for (int q = 0; q < 4; ++q) {
      for (int l = 0; l < kL; ++l) {
        acc[q][l] = fused(a[k + q * kL + l], b[k + q * kL + l], acc[q][l]);
      }
    }
  }
  const auto sum = Z::add(Z::add(Z::load(acc[0]), Z::load(acc[1])),
                          Z::add(Z::load(acc[2]), Z::load(acc[3])));
  return Z::reduce(sum);
}
#endif

template <typename T>
T pair_dot(const T* a, const T* b, int d, bool fast_chunks) {
  (void)fast_chunks;
  T cell = 0;
  int k0 = 0;
  for (; k0 + kChunk <= d; k0 += kChunk) {
#if defined(ABFT_AVX512)
    if (fast_chunks) {
      cell += fast_chunk_dot(a + k0, b + k0);
      continue;
    }
#endif
    cell += laned_dot(a + k0, b + k0, kChunk);
  }
  if (k0 < d) cell += laned_dot(a + k0, b + k0, d - k0);
  return cell;
}

/// Expected packed triangle of the lane the fill ran on; cells whose
/// distance trips the cancellation guard (recomputed by direct differences)
/// are NaN and skipped by the comparison.
template <typename T>
std::vector<T> expected_triangle(const agg::AggregatorWorkspace& ws, const T* rows,
                                 const std::vector<T>& sqnorms, int n, int d) {
  const bool fast_chunks = ws.mode == agg::AggMode::fast && agg::detail::avx512_available();
  const double guard = std::is_same_v<T, float> ? 1e-3 : 1e-6;
  std::vector<T> cells;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const T dot = pair_dot(rows + static_cast<std::size_t>(i) * d,
                             rows + static_cast<std::size_t>(j) * d, d, fast_chunks);
      const double scale = static_cast<double>(sqnorms[i]) + static_cast<double>(sqnorms[j]);
      const double d2 = std::max(0.0, scale - 2.0 * static_cast<double>(dot));
      cells.push_back(d2 < guard * scale ? std::numeric_limits<T>::quiet_NaN() : static_cast<T>(d2));
    }
  }
  return cells;
}

struct FillLane {
  const char* label;
  agg::AggMode mode;
  agg::Precision precision;
};

constexpr FillLane kFillLanes[] = {{"exact", agg::AggMode::exact, agg::Precision::f64},
                           {"fast/f64", agg::AggMode::fast, agg::Precision::f64},
                           {"fast/f32", agg::AggMode::fast, agg::Precision::f32}};

/// Fills the Gram triangle of `batch` in one lane at one pool width and
/// returns its raw bit patterns, widened so both lanes compare alike.
std::vector<std::uint64_t> fill_bits(const agg::GradientBatch& batch, const FillLane& lane,
                                     agg::ThreadPool* pool, agg::AggregatorWorkspace& ws) {
  ws.mode = lane.mode;
  ws.precision = lane.precision;
  ws.pool = pool;
  const bool f32 = ws.fill_pairwise_sqdist(batch);
  EXPECT_EQ(f32, lane.precision == agg::Precision::f32) << lane.label;
  std::vector<std::uint64_t> bits;
  if (f32) {
    for (float v : ws.f32.pairdist) bits.push_back(std::bit_cast<std::uint32_t>(v));
  } else {
    for (double v : ws.f64.pairdist) bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

}  // namespace gram

TEST(GramFill, TiledMatchesPairOrder) {
  util::Rng rng(2718);
  agg::ThreadPool pool3(3);
  for (const int n : {1, 2, 3, 4, 5, 7, 9, 200}) {
    for (const int d : {1, 7, 8, 9, 64, 1023, 1024, 1025, 2000}) {
      agg::GradientBatch batch(n, d);
      for (int i = 0; i < n; ++i) {
        auto row = batch.row(i);
        for (auto& v : row) v = 0.1 * i + rng.normal();
      }
      for (const auto& lane : gram::kFillLanes) {
        const std::string label =
            std::string(lane.label) + " n=" + std::to_string(n) + " d=" + std::to_string(d);
        for (agg::ThreadPool* pool : {static_cast<agg::ThreadPool*>(nullptr), &pool3}) {
          agg::AggregatorWorkspace ws;
          const auto bits = gram::fill_bits(batch, lane, pool, ws);
          std::vector<std::uint64_t> want;
          if (lane.precision == agg::Precision::f32) {
            for (float v : gram::expected_triangle(ws, ws.f32.rows.data(), ws.f32.sqnorms, n, d)) {
              want.push_back(std::isnan(v) ? ~0ull : std::bit_cast<std::uint32_t>(v));
            }
          } else {
            for (double v : gram::expected_triangle(ws, batch.data(), ws.f64.sqnorms, n, d)) {
              want.push_back(std::isnan(v) ? ~0ull : std::bit_cast<std::uint64_t>(v));
            }
          }
          ASSERT_EQ(bits.size(), want.size()) << label;
          int checked = 0;
          for (std::size_t c = 0; c < bits.size(); ++c) {
            if (want[c] == ~0ull) continue;  // cancellation-guard cell
            ++checked;
            ASSERT_EQ(bits[c], want[c]) << label << " cell " << c
                                        << (pool != nullptr ? " (3 threads)" : "");
          }
          EXPECT_GE(2 * checked, static_cast<int>(bits.size())) << label;
        }
      }
    }
  }
}

TEST(GramFill, FastModePoolWidthInvariant) {
  // Pool partitions split the row range mid-tile; a pair's cell must not
  // depend on which rows shared its tile.
  util::Rng rng(1618);
  agg::ThreadPool pool3(3);
  agg::ThreadPool pool4(4);
  agg::ThreadPool pool16(16);
  for (const int n : {5, 9, 37, 200}) {
    for (const int d : {9, 1025, 2000}) {
      agg::GradientBatch batch(n, d);
      for (double& v : std::span<double>(batch.data(), static_cast<std::size_t>(n) * d)) {
        v = rng.normal();
      }
      for (const auto& lane : gram::kFillLanes) {
        if (lane.mode != agg::AggMode::fast) continue;
        agg::AggregatorWorkspace ws;
        const auto serial = gram::fill_bits(batch, lane, nullptr, ws);
        for (agg::ThreadPool* pool : {&pool3, &pool4, &pool16}) {
          EXPECT_EQ(gram::fill_bits(batch, lane, pool, ws), serial)
              << lane.label << " n=" << n << " d=" << d << " width=" << pool->width();
        }
      }
    }
  }
}

TEST(GramFamily, NonFiniteRowsNeverSelected) {
  // Byzantine rows carrying one NaN or +-Inf coordinate sit at +inf
  // distance from every row (a NaN distance would otherwise clamp to 0 and
  // win Krum's selection), so the Gram-based rules select only finite rows.
  const int n = 40;
  const int d = 600;
  const int f = 3;  // within the 4-shard tree's tolerated bound
  const int bad_rows[] = {1, 22};  // distinct shards of the 4-shard tree
  agg::HierarchyConfig hier;
  hier.shards = 4;
  hier.leaf_rule = "krum";
  hier.root_rule = "krum";
  struct Rule {
    std::string label;
    std::unique_ptr<agg::GradientAggregator> agg;
  };
  std::vector<Rule> rules;
  for (const char* name : {"krum", "multikrum", "bulyan"}) {
    rules.push_back({name, agg::make_aggregator(name)});
  }
  rules.push_back({"hier4-krum", std::make_unique<agg::HierarchicalAggregator>(hier)});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    util::Rng rng(99);
    agg::GradientBatch batch(n, d);
    for (int i = 0; i < n; ++i) {
      auto row = batch.row(i);
      for (auto& v : row) v = 1.0 + rng.normal();
    }
    for (const int i : bad_rows) batch.row(i)[static_cast<std::size_t>(i * 7 % d)] = bad;
    for (const auto& lane : gram::kFillLanes) {
      for (const auto& rule : rules) {
        const std::string label = rule.label + " " + lane.label + " bad=" + std::to_string(bad);
        agg::AggregatorWorkspace ws;
        ws.mode = lane.mode;
        ws.precision = lane.precision;
        Vector out;
        rule.agg->aggregate_into(out, batch, f, ws);
        ASSERT_EQ(out.dim(), d) << label;
        for (int k = 0; k < d; ++k) ASSERT_TRUE(std::isfinite(out[k])) << label << " k=" << k;
        for (const int i : bad_rows) {
          const auto row = batch.row(i);
          EXPECT_FALSE(std::equal(row.begin(), row.end(), out.coefficients().begin()))
              << label << " selected bad row " << i;
        }
      }
    }
  }
}

}  // namespace
