// Coreset pre-reduction (agg/coreset.hpp): delegation bit-parity when the
// shape cannot shrink, the integer-weight invariants of the construction
// pass, outlier capture as weight-1 singletons, bit-determinism across
// thread counts, replicated-multiset exactness of every weighted kernel
// against a hand-materialized replicated batch, and the seeded per-rule
// drift bounds against the exact flat rules promised in coreset.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/coreset.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using agg::CoresetConfig;
using agg::CoresetReducer;
using agg::GradientBatch;
using agg::Vector;

GradientBatch random_batch(int n, int d, std::uint64_t seed) {
  util::Rng rng(seed);
  GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) batch.row(i)[j] = rng.normal(0.0, 1.0);
  }
  return batch;
}

Vector aggregate_batched(const agg::GradientAggregator& rule, const GradientBatch& batch,
                         int f, agg::ThreadPool* pool = nullptr) {
  agg::AggregatorWorkspace ws;
  ws.pool = pool;
  Vector out;
  rule.aggregate_into(out, batch, f, ws);
  return out;
}

double linf_diff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.dim(), b.dim());
  double worst = 0.0;
  for (int k = 0; k < a.dim(); ++k) worst = std::max(worst, std::abs(a[k] - b[k]));
  return worst;
}

TEST(Coreset, LabelIsStable) {
  EXPECT_EQ(agg::coreset_label({64}, "krum"), "coreset-64-krum");
  EXPECT_EQ(agg::coreset_label({0}, "cwtm"), "coreset-auto-cwtm");
  EXPECT_EQ(agg::coreset_label({CoresetConfig::kAdaptiveSize}, "cwtm"),
            "coreset-adaptive-cwtm");
  EXPECT_EQ(agg::coreset_label({32, CoresetConfig::Kind::sample, 4}, "krum"),
            "sample-32-krum");
  EXPECT_EQ(agg::coreset_label({0, CoresetConfig::Kind::sample, 0}, "cwtm"),
            "sample-auto-cwtm");
}

TEST(Coreset, ConstructorRejectsBadConfig) {
  EXPECT_THROW(CoresetReducer("nope", {16}), std::invalid_argument);
  EXPECT_THROW(CoresetReducer("cwtm", {-2}), std::invalid_argument);
  EXPECT_NO_THROW(CoresetReducer("cwtm", {CoresetConfig::kAdaptiveSize}));
  // adaptive is k-center only; strata is sample only.
  EXPECT_THROW(CoresetReducer("cwtm", CoresetConfig{CoresetConfig::kAdaptiveSize,
                                                    CoresetConfig::Kind::sample, 0}),
               std::invalid_argument);
  EXPECT_THROW(
      CoresetReducer("cwtm", CoresetConfig{16, CoresetConfig::Kind::kcenter, 4}),
      std::invalid_argument);
  EXPECT_THROW(
      CoresetReducer("cwtm", CoresetConfig{16, CoresetConfig::Kind::sample, -1}),
      std::invalid_argument);
  EXPECT_NO_THROW(CoresetReducer("cwtm", CoresetConfig{16, CoresetConfig::Kind::sample, 4}));
}

TEST(Coreset, ShapePredicateAndDerivedSize) {
  const CoresetReducer fixed("cwtm", {12});
  EXPECT_EQ(fixed.centers_for(1000, 5), 12);
  EXPECT_TRUE(fixed.would_reduce(1000, 5));
  EXPECT_FALSE(fixed.would_reduce(17, 5));  // 12 + 5 >= 17
  EXPECT_FALSE(fixed.would_reduce(0, 0));
  const CoresetReducer autosized("cwtm", {});
  EXPECT_EQ(autosized.centers_for(100, 5), 15);  // 5 + ceil(sqrt(100))
  EXPECT_EQ(autosized.centers_for(101, 5), 16);  // ceil rounds up
  // Forwarded inner-rule bounds speak about the replicated multiset (size n).
  const auto flat = agg::make_aggregator("cwtm");
  EXPECT_EQ(autosized.max_usable_f(100), flat->max_usable_f(100));
  EXPECT_EQ(autosized.min_usable_f(), flat->min_usable_f());
}

TEST(Coreset, ReduceRejectsNonReducingShapes) {
  const CoresetReducer reducer("cwtm", {30});
  const auto batch = random_batch(20, 4, 1);
  agg::AggregatorWorkspace ws;
  EXPECT_THROW(reducer.reduce(batch, 2, ws), std::invalid_argument);
}

// The headline delegation criterion: coreset_size >= n cannot shrink the
// batch, so every rule must pass through bit-identically — batched and span
// API alike.
TEST(Coreset, DelegatesBitIdenticallyWhenReductionCannotShrink) {
  const int n = 23, d = 7, f = 3;  // n >= 4f + 3, so even bulyan can run
  const auto batch = random_batch(n, d, 42);
  std::vector<Vector> grads;
  grads.reserve(n);
  for (int i = 0; i < n; ++i) grads.push_back(batch.unpack_row(i));
  for (const auto name : agg::aggregator_names()) {
    SCOPED_TRACE(std::string(name));
    const auto flat = agg::make_aggregator(name);
    const CoresetReducer reducer(name, {n});
    ASSERT_FALSE(reducer.would_reduce(n, f));
    const auto flat_batched = aggregate_batched(*flat, batch, f);
    EXPECT_EQ(aggregate_batched(reducer, batch, f), flat_batched);
    EXPECT_EQ(reducer.aggregate(grads, f), flat_batched);
  }
}

// Construction invariants over a grid of shapes: unique in-range row ids,
// strictly positive integer multiplicity weights summing to exactly n, and
// coreset rows that are verbatim copies of the selected batch rows.
TEST(Coreset, WeightsArePositiveIntegersSummingToN) {
  const CoresetReducer reducer("cwtm", {});
  struct Shape {
    int n, d, f;
    std::uint64_t seed;
  };
  for (const auto& [n, d, f, seed] :
       std::vector<Shape>{{40, 3, 2, 1}, {150, 8, 5, 2}, {400, 2, 0, 3}, {64, 16, 7, 4}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " f=" + std::to_string(f));
    const auto batch = random_batch(n, d, seed);
    agg::AggregatorWorkspace ws;
    const int m = reducer.reduce(batch, f, ws);
    EXPECT_EQ(m, reducer.centers_for(n, f) + f);
    ASSERT_EQ(static_cast<int>(ws.coreset_ids.size()), m);
    ASSERT_EQ(static_cast<int>(ws.coreset_weights.size()), m);
    EXPECT_EQ(ws.coreset_batch.rows(), m);
    EXPECT_EQ(ws.coreset_batch.cols(), d);
    std::set<int> distinct;
    double total = 0.0;
    for (int s = 0; s < m; ++s) {
      const int id = ws.coreset_ids[static_cast<std::size_t>(s)];
      ASSERT_GE(id, 0);
      ASSERT_LT(id, n);
      distinct.insert(id);
      const double w = ws.coreset_weights[static_cast<std::size_t>(s)];
      EXPECT_GE(w, 1.0);
      EXPECT_EQ(w, std::floor(w)) << "weight must be an integer multiplicity";
      total += w;
      const auto original = batch.row(id);
      const auto copy = ws.coreset_batch.row(s);
      EXPECT_TRUE(std::equal(original.begin(), original.end(), copy.begin()));
    }
    EXPECT_EQ(static_cast<int>(distinct.size()), m) << "selected rows must be distinct";
    EXPECT_EQ(total, static_cast<double>(n)) << "multiplicities must sum to n exactly";
  }
}

// The outlier budget: f planted attack rows, each far from the honest
// cluster, must ride along as weight-1 singletons — never folded into a
// center's multiplicity where they would shift its weight.
TEST(Coreset, PlantedOutliersSurviveAsWeightOneSingletons) {
  const int n = 200, d = 8, f = 5;
  auto batch = random_batch(n, d, 7);
  std::vector<int> planted;
  for (int a = 0; a < f; ++a) {
    const int id = 13 + 31 * a;  // scattered through the batch
    planted.push_back(id);
    const double magnitude = 1e6 * (1.0 + 0.01 * a) * (a % 2 == 0 ? 1.0 : -1.0);
    for (int j = 0; j < d; ++j) batch.row(id)[j] = magnitude;
  }
  const CoresetReducer reducer("cwtm", {});
  agg::AggregatorWorkspace ws;
  const int m = reducer.reduce(batch, f, ws);
  for (const int id : planted) {
    const auto it = std::find(ws.coreset_ids.begin(), ws.coreset_ids.end(), id);
    ASSERT_NE(it, ws.coreset_ids.end()) << "planted row " << id << " missing from coreset";
    const auto slot = static_cast<std::size_t>(it - ws.coreset_ids.begin());
    EXPECT_EQ(ws.coreset_weights[slot], 1.0) << "planted row " << id << " gained weight";
  }
  // No center was dragged to the attack: every other coreset row is honest.
  for (int s = 0; s < m; ++s) {
    const int id = ws.coreset_ids[static_cast<std::size_t>(s)];
    if (std::find(planted.begin(), planted.end(), id) != planted.end()) continue;
    EXPECT_LT(std::abs(ws.coreset_batch.row(s)[0]), 100.0);
  }
  // And the reduced robust aggregate still masks the attack.
  Vector out;
  reducer.aggregate_into(out, batch, f, ws);
  EXPECT_LT(out.norm(), 1.0);
}

// Determinism: construction (including the blocked parallel distance pass)
// and every weighted kernel are pure functions of (batch, f, config, mode) —
// bit-identical across thread counts and repeated calls on a reused
// workspace.  gmom and bulyan ride along now that they run weighted-native.
TEST(Coreset, BitIdenticalAcrossThreadCountsAndRepeatedCalls) {
  const auto batch = random_batch(120, 16, 9);
  agg::ThreadPool pool(4);
  agg::ThreadPool pool3(3);
  for (const char* rule : {"krum", "gmom", "bulyan"}) {
    SCOPED_TRACE(rule);
    const CoresetReducer reducer(rule, {});
    const auto serial = aggregate_batched(reducer, batch, 5);
    EXPECT_EQ(aggregate_batched(reducer, batch, 5, &pool), serial);
    EXPECT_EQ(aggregate_batched(reducer, batch, 5, &pool3), serial);
    agg::AggregatorWorkspace ws;
    ws.pool = &pool;
    Vector out;
    reducer.aggregate_into(out, batch, 5, ws);
    reducer.aggregate_into(out, batch, 5, ws);
    EXPECT_EQ(out, serial);
  }
}

// The same parity at a shape large enough for the block decomposition to be
// non-trivial (n = 4096, z + 1 = 6 -> 1024-row blocks, 4 block queues
// merging every round), plus the sample reducer (serial by construction,
// but its ids/weights must be workspace-independent too).
TEST(Coreset, ParallelConstructionBitIdenticalAtMultiBlockShapes) {
  const int n = 4096, d = 16, f = 5;
  const auto batch = random_batch(n, d, 33);
  agg::ThreadPool pool(4);
  for (const char* rule : {"cwtm", "krum"}) {
    SCOPED_TRACE(rule);
    const CoresetReducer reducer(rule, {});
    agg::AggregatorWorkspace serial_ws;
    const int serial_m = reducer.reduce(batch, f, serial_ws);
    const auto serial_ids = serial_ws.coreset_ids;
    const auto serial_weights = serial_ws.coreset_weights;
    for (const int threads : {2, 4, 16}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      agg::ThreadPool width_pool(threads);
      agg::AggregatorWorkspace ws;
      ws.pool = &width_pool;
      EXPECT_EQ(reducer.reduce(batch, f, ws), serial_m);
      EXPECT_EQ(ws.coreset_ids, serial_ids);
      EXPECT_EQ(ws.coreset_weights, serial_weights);
    }
    const auto serial_out = aggregate_batched(reducer, batch, f);
    EXPECT_EQ(aggregate_batched(reducer, batch, f, &pool), serial_out);
  }
  const CoresetReducer sampler("cwtm", {0, CoresetConfig::Kind::sample, 0});
  agg::AggregatorWorkspace sm_a, sm_b;
  sm_b.pool = &pool;
  EXPECT_EQ(sampler.reduce(batch, f, sm_a), sampler.reduce(batch, f, sm_b));
  EXPECT_EQ(sm_a.coreset_ids, sm_b.coreset_ids);
  EXPECT_EQ(sm_a.coreset_weights, sm_b.coreset_weights);
}

// The replicated-multiset contract: for every registry rule, the reducer's
// output must match the flat rule run on the hand-materialized virtual
// batch where coreset row i appears weight_i times (centers in selection
// order, then the singletons).  Every rule — gmom's weighted bucket means
// and bulyan's slot-simulated selection included — is weighted-native and
// exact up to floating-point summation order.
TEST(Coreset, WeightedKernelsMatchTheMaterializedReplicatedBatch) {
  const int n = 60, d = 7, f = 4;
  const auto batch = random_batch(n, d, 21);
  for (const auto name : agg::aggregator_names()) {
    SCOPED_TRACE(std::string(name));
    const CoresetReducer reducer(name, {12});
    ASSERT_TRUE(reducer.would_reduce(n, f));
    agg::AggregatorWorkspace ws;
    const int m = reducer.reduce(batch, f, ws);
    GradientBatch replicated(n, d);
    int r = 0;
    for (int s = 0; s < m; ++s) {
      const auto copies =
          static_cast<long long>(ws.coreset_weights[static_cast<std::size_t>(s)]);
      for (long long c = 0; c < copies; ++c) {
        replicated.set_row(r++, ws.coreset_batch.row(s));
      }
    }
    ASSERT_EQ(r, n);
    const auto flat = agg::make_aggregator(name);
    const auto expected = aggregate_batched(*flat, replicated, f);
    const auto reduced = aggregate_batched(reducer, batch, f);
    EXPECT_LE(linf_diff(reduced, expected), 1e-8);
  }
}

// The adaptive size policy: k grows from f + 1 by doubling checkpoints
// until the covering radius stops improving by the fixed factor, so the
// realized k must land in [f + 1, n - f - 1] — seeded, and bit-identical
// across thread counts like every construction path.
TEST(Coreset, AdaptiveSizeLandsBetweenFloorAndCap) {
  const int n = 300, d = 6, f = 9;
  const auto batch = random_batch(n, d, 11);
  const CoresetReducer reducer("cwtm", {CoresetConfig::kAdaptiveSize});
  EXPECT_EQ(reducer.name(), "coreset-adaptive-cwtm");
  EXPECT_TRUE(reducer.would_reduce(n, f));
  EXPECT_EQ(reducer.centers_for(n, f), n - f - 1);  // the documented upper bound
  agg::AggregatorWorkspace ws;
  const int m = reducer.reduce(batch, f, ws);
  const int k = m - f;
  EXPECT_GE(k, f + 1);
  EXPECT_LE(k, n - f - 1);
  double total = 0.0;
  for (const double w : ws.coreset_weights) total += w;
  EXPECT_EQ(total, static_cast<double>(n));
  agg::ThreadPool pool(4);
  agg::AggregatorWorkspace pws;
  pws.pool = &pool;
  EXPECT_EQ(reducer.reduce(batch, f, pws), m);
  EXPECT_EQ(pws.coreset_ids, ws.coreset_ids);
  EXPECT_EQ(pws.coreset_weights, ws.coreset_weights);
  // Duplicates-only data cannot grow past the distinct-row count.
  GradientBatch constant(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) constant.row(i)[j] = 1.0;
  }
  agg::AggregatorWorkspace cws;
  EXPECT_LE(reducer.reduce(constant, f, cws), 1 + f);
}

// Sample-reducer construction invariants, mirroring the k-center suite:
// distinct in-range ids, verbatim rows, integer weights summing to n, and
// the f largest-norm rows carried as weight-1 singletons.
TEST(Coreset, SampleReducerInvariantsAndSingletons) {
  const int n = 200, d = 8, f = 5;
  auto batch = random_batch(n, d, 13);
  std::vector<int> planted;
  for (int a = 0; a < f; ++a) {
    const int id = 11 + 29 * a;
    planted.push_back(id);
    const double magnitude = 1e5 * (1.0 + 0.1 * a) * (a % 2 == 0 ? 1.0 : -1.0);
    for (int j = 0; j < d; ++j) batch.row(id)[j] = magnitude;
  }
  const CoresetReducer reducer("cwtm", {32, CoresetConfig::Kind::sample, 4});
  EXPECT_EQ(reducer.name(), "sample-32-cwtm");
  ASSERT_TRUE(reducer.would_reduce(n, f));
  agg::AggregatorWorkspace ws;
  const int m = reducer.reduce(batch, f, ws);
  EXPECT_EQ(m, 32 + f);
  std::set<int> distinct;
  double total = 0.0;
  for (int s = 0; s < m; ++s) {
    const int id = ws.coreset_ids[static_cast<std::size_t>(s)];
    ASSERT_GE(id, 0);
    ASSERT_LT(id, n);
    distinct.insert(id);
    const double w = ws.coreset_weights[static_cast<std::size_t>(s)];
    EXPECT_GE(w, 1.0);
    EXPECT_EQ(w, std::floor(w));
    total += w;
    const auto original = batch.row(id);
    const auto copy = ws.coreset_batch.row(s);
    EXPECT_TRUE(std::equal(original.begin(), original.end(), copy.begin()));
  }
  EXPECT_EQ(static_cast<int>(distinct.size()), m);
  EXPECT_EQ(total, static_cast<double>(n));
  for (const int id : planted) {
    const auto it = std::find(ws.coreset_ids.begin(), ws.coreset_ids.end(), id);
    ASSERT_NE(it, ws.coreset_ids.end()) << "planted row " << id << " missing";
    const auto slot = static_cast<std::size_t>(it - ws.coreset_ids.begin());
    EXPECT_EQ(ws.coreset_weights[slot], 1.0) << "planted row " << id << " gained weight";
  }
  // And the reduced robust aggregate still masks the attack.
  Vector out;
  reducer.aggregate_into(out, batch, f, ws);
  EXPECT_LT(out.norm(), 1.0);
}

// The lossy half of the contract, under the paper's attack presets: on
// clustered data with f attack rows shaped by each preset, both reducer
// kinds' aggregates drift from the exact flat rule by no more than the
// documented per-rule relative tolerance (drift / (1 + |exact|)).  The
// bound reflects each rule's sensitivity to the reduction radius: point
// selectors (krum) may step to a neighboring honest row, mean-like and
// coordinate-wise rules track within the cluster noise.
TEST(Coreset, DriftFromTheExactFlatRuleIsBounded) {
  const std::map<std::string, double> relative_tolerance = {
      {"average", 0.10}, {"cge", 0.10},  {"cwtm", 0.10},     {"cwmed", 0.10},
      {"krum", 0.50},    {"multikrum", 0.10}, {"geomed", 0.10},
      {"gmom", 0.25},    {"bulyan", 0.25},    {"normclip", 0.10}, {"cclip", 0.10}};
  struct AttackPreset {
    const char* name;
    // Overwrites attack row `id` (index a of f) given the honest center.
    void (*apply)(GradientBatch&, int id, int a, const Vector& center);
  };
  const AttackPreset presets[] = {
      {"large-norm",
       [](GradientBatch& b, int id, int a, const Vector&) {
         const double magnitude = 1e6 * (1.0 + 0.01 * a) * (a % 2 == 0 ? 1.0 : -1.0);
         for (int j = 0; j < b.cols(); ++j) b.row(id)[j] = magnitude;
       }},
      {"sign-flip",
       [](GradientBatch& b, int id, int, const Vector& center) {
         for (int j = 0; j < b.cols(); ++j) b.row(id)[j] = -3.0 * center[j];
       }},
      {"coordinate-wise",
       [](GradientBatch& b, int id, int a, const Vector& center) {
         for (int j = 0; j < b.cols(); ++j) b.row(id)[j] = center[j];
         b.row(id)[a % b.cols()] = (a % 2 == 0 ? 1.0 : -1.0) * 1e6;
       }},
  };
  const int n = 400, d = 8, f = 8;
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      util::Rng rng(500 + trial);
      Vector center(d);
      for (int j = 0; j < d; ++j) center[j] = rng.uniform(-5.0, 5.0);
      GradientBatch batch(n, d);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) batch.row(i)[j] = center[j] + rng.normal(0.0, 0.1);
      }
      for (int a = 0; a < f; ++a) preset.apply(batch, a * 37 + 3, a, center);
      for (const auto name : agg::aggregator_names()) {
        SCOPED_TRACE(std::string(name));
        const double tolerance = relative_tolerance.at(std::string(name));
        const auto exact = aggregate_batched(*agg::make_aggregator(name), batch, f);
        const CoresetReducer reducer(name, {});
        ASSERT_TRUE(reducer.would_reduce(n, f));
        const auto reduced = aggregate_batched(reducer, batch, f);
        EXPECT_LE(linf_diff(reduced, exact) / (1.0 + exact.norm()), tolerance);
        const CoresetReducer sampler(name, {0, CoresetConfig::Kind::sample, 0});
        ASSERT_TRUE(sampler.would_reduce(n, f));
        const auto sampled = aggregate_batched(sampler, batch, f);
        EXPECT_LE(linf_diff(sampled, exact) / (1.0 + exact.norm()), tolerance);
      }
    }
  }
}

}  // namespace
