// Routing tests for the rank-kernel cutoff (rank_kernel.hpp).
//
// Two defects pinned here (both present before effective_rank_cutoff
// existed): the ABFT_RANK_KERNEL_CUTOFF override was read once inside the
// calibration path and baked into the per-process cache — so flipping it
// after the first aggregate call was silently ignored — and exact mode
// never consulted the override at all, so the documented "force the rank
// kernel off" escape hatch (=0) only worked under fast mode.  The contract
// now: the env var wins in BOTH modes, is parsed per call, clamps to
// [0, kRankKernelCapacity], and 0 disables the rank kernel outright;
// without it both modes route by the constant kRankKernelCutoff (fast mode
// used to race the two kernels once per process, so its route — and CWTM's
// summation order — could differ between two runs of the same binary).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/registry.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using agg::Vector;

/// Scoped override of ABFT_RANK_KERNEL_CUTOFF, restored on destruction so
/// the suite cannot leak routing state into other tests.
class ScopedCutoffEnv {
 public:
  explicit ScopedCutoffEnv(const char* value) {
    const char* old = std::getenv("ABFT_RANK_KERNEL_CUTOFF");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv("ABFT_RANK_KERNEL_CUTOFF", value, 1);
    } else {
      ::unsetenv("ABFT_RANK_KERNEL_CUTOFF");
    }
  }
  ~ScopedCutoffEnv() {
    if (had_old_) {
      ::setenv("ABFT_RANK_KERNEL_CUTOFF", old_.c_str(), 1);
    } else {
      ::unsetenv("ABFT_RANK_KERNEL_CUTOFF");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(RankKernelCutoff, DefaultsWithoutOverride) {
  ScopedCutoffEnv env(nullptr);
  // Both modes route by the same constant: no timing decides a route.
  EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::exact),
            agg::detail::kRankKernelCutoff);
  EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::fast),
            agg::detail::kRankKernelCutoff);
  EXPECT_EQ(agg::detail::kRankKernelCutoff, 256);
}

TEST(RankKernelCutoff, ZeroForcesRankKernelOffInBothModes) {
  ScopedCutoffEnv env("0");
  EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::exact), 0);
  EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::fast), 0);
}

TEST(RankKernelCutoff, OverrideWinsInBothModesAndClamps) {
  {
    ScopedCutoffEnv env("100");
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::exact), 100);
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::fast), 100);
  }
  {
    ScopedCutoffEnv env("999999");  // above capacity: clamps down
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::exact),
              agg::detail::kRankKernelCapacity);
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::fast),
              agg::detail::kRankKernelCapacity);
  }
  {
    ScopedCutoffEnv env("-7");  // negative: clamps to "off"
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::exact), 0);
    EXPECT_EQ(agg::detail::effective_rank_cutoff(agg::AggMode::fast), 0);
  }
}

TEST(RankKernelCutoff, ParsedPerCallNotBakedIntoTheCache) {
  // Route once with no override in scope, then flip the env var back and
  // forth: the effective cutoff must follow on every call, in both modes.
  // (An earlier version read the env var once and froze it for the process
  // lifetime.)
  for (const auto mode : {agg::AggMode::fast, agg::AggMode::exact}) {
    {
      ScopedCutoffEnv env(nullptr);
      EXPECT_EQ(agg::detail::effective_rank_cutoff(mode), agg::detail::kRankKernelCutoff);
    }
    {
      ScopedCutoffEnv env("0");
      EXPECT_EQ(agg::detail::effective_rank_cutoff(mode), 0);
    }
    {
      ScopedCutoffEnv env(nullptr);
      EXPECT_EQ(agg::detail::effective_rank_cutoff(mode), agg::detail::kRankKernelCutoff);
    }
  }
}

TEST(RankKernelCutoff, CwmedOutputInvariantUnderRouting) {
  // The rank-classified median selects the same element(s) as nth_element,
  // so forcing the rank kernel off must not change cwmed's exact-mode
  // output at all — routing is a performance decision, never a semantic
  // one.
  util::Rng rng(20260802);
  const int n = 21, d = 64;
  agg::GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    auto row = batch.row(i);
    for (int k = 0; k < d; ++k) row[static_cast<std::size_t>(k)] = rng.normal();
  }
  const auto rule = agg::make_aggregator("cwmed");
  Vector with_kernel;
  Vector without_kernel;
  {
    ScopedCutoffEnv env(nullptr);
    agg::AggregatorWorkspace ws;
    rule->aggregate_into(with_kernel, batch, 3, ws);
  }
  {
    ScopedCutoffEnv env("0");
    agg::AggregatorWorkspace ws;
    rule->aggregate_into(without_kernel, batch, 3, ws);
  }
  EXPECT_EQ(with_kernel, without_kernel);
}

TEST(RankKernelCutoff, F32RankCountsMatchPortable) {
  // The 16-wide f32 rank kernel must agree with the scalar definition
  // lt[j] = #{i : col[i] < col[j]} on duplicate-free and duplicate-heavy
  // columns alike.
  util::Rng rng(778899);
  for (const int n : {1, 7, 16, 17, 33, 512}) {
    std::vector<float> col(static_cast<std::size_t>(n));
    for (auto& v : col) v = static_cast<float>(rng.normal());
    if (n >= 16) col[5] = col[11];  // plant a duplicate
    std::vector<std::int32_t> lt(static_cast<std::size_t>(n));
    agg::detail::rank_counts(col.data(), n, lt.data());
    for (int j = 0; j < n; ++j) {
      std::int32_t expected = 0;
      for (int i = 0; i < n; ++i) expected += col[static_cast<std::size_t>(i)] <
                                              col[static_cast<std::size_t>(j)];
      EXPECT_EQ(lt[static_cast<std::size_t>(j)], expected) << "n=" << n << " j=" << j;
    }
  }
}

}  // namespace
