#include "abft/agg/hierarchy.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "abft/agg/registry.hpp"
#include "abft/util/check.hpp"
#include "abft/util/rng.hpp"

namespace abft::agg {

namespace {

/// Balanced contiguous split: shard s holds rows [boundary(s), boundary(s+1))
/// of the assignment permutation, sizes n/S or n/S + 1.
int shard_boundary(int n, int num_shards, int shard) {
  return static_cast<int>(static_cast<long long>(n) * shard / num_shards);
}

}  // namespace

namespace {

/// Leaf factory: the plain registry rule, or the coreset-wrapped rule when
/// per-shard reduction is configured.  CoresetReducer forwards
/// max_usable_f/min_usable_f to the inner rule, so every piece of the
/// (n_s, f_s) bookkeeping above is untouched by the wrapping.
std::unique_ptr<GradientAggregator> make_leaf(const HierarchyConfig& config) {
  if (config.coreset.has_value()) {
    return std::make_unique<CoresetReducer>(config.leaf_rule, *config.coreset);
  }
  return make_aggregator(config.leaf_rule);
}

}  // namespace

std::string hierarchy_label(const HierarchyConfig& config) {
  std::string label =
      "hier-" + std::to_string(config.shards) + "-" + config.leaf_rule + "-" + config.root_rule;
  if (config.f_leaf >= 0) label += "-fl" + std::to_string(config.f_leaf);
  if (config.coreset.has_value()) {
    label += config.coreset->kind == CoresetConfig::Kind::sample ? "-sm" : "-cs";
    if (config.coreset->size == CoresetConfig::kAdaptiveSize) {
      label += "adaptive";
    } else {
      label += config.coreset->size > 0 ? std::to_string(config.coreset->size)
                                        : std::string("auto");
    }
  }
  return label;
}

std::string hierarchy_label(const HierarchyConfig& config, int n) {
  HierarchyConfig effective = config;
  effective.shards = std::min(config.shards, std::max(n, 1));
  return hierarchy_label(effective);
}

HierarchicalAggregator::HierarchicalAggregator(HierarchyConfig config)
    : config_(std::move(config)),
      leaf_(make_leaf(config_)),
      root_(make_aggregator(config_.root_rule)),
      label_(hierarchy_label(config_)) {
  ABFT_REQUIRE(config_.shards >= 1, "hierarchy: shards must be >= 1");
  ABFT_REQUIRE(config_.f_leaf >= -1, "hierarchy: f_leaf must be >= 0, or -1 for auto");
}

HierarchyBounds HierarchicalAggregator::bounds(int n, int f) const {
  ABFT_REQUIRE(n >= 1, "hierarchy bounds need n >= 1");
  ABFT_REQUIRE(0 <= f && f < n, "hierarchy bounds need 0 <= f < n");
  HierarchyBounds b;
  b.n = n;
  b.shards = std::min(config_.shards, n);
  b.shard_rows_min = n / b.shards;
  b.shard_rows_max = n / b.shards + (n % b.shards != 0 ? 1 : 0);
  const auto unusable = [&b]() {
    b.f_leaf = b.f_root = b.tolerated_f = -1;
    b.resilience_margin = 0.0;
    return b;
  };
  if (b.shards <= 1) {
    // Flat delegation: one level, the leaf rule's own precondition governs.
    // An explicit f_leaf pins the executed budget here exactly as in the
    // tree case — aggregate_into runs the leaf with b.f_leaf, never raw f.
    const int cap = leaf_->max_usable_f(n);
    if (cap < leaf_->min_usable_f()) return unusable();
    const int requested = config_.f_leaf >= 0 ? config_.f_leaf : f;
    b.f_leaf = std::clamp(requested, leaf_->min_usable_f(), cap);
    b.f_root = 0;
    b.tolerated_f = b.f_leaf;
  } else {
    // max_usable_f is non-decreasing in n for every registry rule, so the
    // smallest shard is the binding one.
    const int leaf_cap = leaf_->max_usable_f(b.shard_rows_min);
    if (leaf_cap < leaf_->min_usable_f()) return unusable();
    const int requested = config_.f_leaf >= 0 ? config_.f_leaf : f;
    b.f_leaf = std::clamp(requested, leaf_->min_usable_f(), leaf_cap);
    const int root_cap = root_->max_usable_f(b.shards);
    if (root_cap < root_->min_usable_f()) return unusable();
    // floor(f / (f_leaf+1)) shards can be fully corrupted by f total faults;
    // that is the budget the root must absorb.
    b.f_root = std::clamp(f / (b.f_leaf + 1), root_->min_usable_f(), root_cap);
    b.tolerated_f = std::min(n - 1, (b.f_leaf + 1) * (b.f_root + 1) - 1);
  }
  b.resilience_margin = 2.0 * static_cast<double>(b.tolerated_f) / static_cast<double>(n);
  return b;
}

int HierarchicalAggregator::max_usable_f(int n) const noexcept {
  if (n < 1) return -1;
  const int num_shards = std::min(config_.shards, n);
  if (num_shards <= 1) {
    const int cap = leaf_->max_usable_f(n);
    if (cap < leaf_->min_usable_f()) return -1;
    return config_.f_leaf >= 0 ? std::clamp(config_.f_leaf, leaf_->min_usable_f(), cap) : cap;
  }
  const int rows_min = n / num_shards;
  const int leaf_cap = leaf_->max_usable_f(rows_min);
  if (leaf_cap < leaf_->min_usable_f()) return -1;
  // Explicit f_leaf pins the per-shard budget (clamped into the leaf's
  // usable range); auto mode can raise it as far as the leaf cap.
  const int leaf_budget =
      config_.f_leaf >= 0 ? std::clamp(config_.f_leaf, leaf_->min_usable_f(), leaf_cap)
                          : leaf_cap;
  const int root_cap = root_->max_usable_f(num_shards);
  if (root_cap < root_->min_usable_f()) return -1;
  return std::min(n - 1, (leaf_budget + 1) * (root_cap + 1) - 1);
}

int HierarchicalAggregator::min_usable_f() const noexcept {
  // Any declared f >= 0 is absorbable at every shard count: bounds() clamps
  // the executed per-level budgets UP to the leaf/root rules' own floors, so
  // a leaf with a positive minimum (bulyan) still runs with f_leaf at its
  // floor.  The S = 1 flat delegation follows the same contract — it executes
  // the clamped b.f_leaf, never raw f — so it no longer inherits the leaf's
  // floor.  Keeping this at 0 also keeps the cap consistent with
  // aggregate_into's delegation decision when a thin round shrinks the
  // delivered row count to 1 (num_shards = min(shards, n)).
  return 0;
}

void HierarchicalAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  const int num_shards = std::min(config_.shards, n);
  if (num_shards <= 1) {
    // Execute exactly the budget bounds() reports: clamped into the leaf's
    // usable range and pinned by an explicit f_leaf.  Raw f would desync the
    // executed filter from the reported bounds (and a leaf with a positive
    // floor, e.g. bulyan, would throw mid-run on an engine-approved f = 0).
    const HierarchyBounds flat = bounds(n, f);
    ABFT_REQUIRE(flat.tolerated_f >= 0,
                 "hierarchy: the leaf rule cannot run on this row count at all");
    ABFT_REQUIRE(f <= flat.tolerated_f,
                 "hierarchy: declared f exceeds the flat-delegation budget — lower f or drop "
                 "the explicit f_leaf");
    leaf_->aggregate_into(out, batch, flat.f_leaf, ws);
    return;
  }
  const HierarchyBounds b = bounds(n, f);
  ABFT_REQUIRE(b.tolerated_f >= 0,
               "hierarchy: the leaf/root rules cannot run on this shape — fewer shards or a "
               "different rule");
  ABFT_REQUIRE(f <= b.tolerated_f,
               "hierarchy: declared f exceeds the tree's tolerated bound "
               "(f_leaf+1)(f_root+1)-1 — lower f or raise f_leaf/shards");

  // Seeded deterministic shard assignment, regenerated per call because the
  // row count may change round to round (elimination, churn, stragglers).
  ws.hier_perm.resize(static_cast<std::size_t>(n));
  std::iota(ws.hier_perm.begin(), ws.hier_perm.end(), 0);
  if (config_.assignment_seed != 0) {
    util::Rng rng(config_.assignment_seed);
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(i) + 1));
      std::swap(ws.hier_perm[static_cast<std::size_t>(i)],
                ws.hier_perm[static_cast<std::size_t>(j)]);
    }
  }

  ws.hier_root.reshape(num_shards, d);
  // Shards are partitioned over up to ws.width() worker groups; each
  // group reuses ONE sub-workspace/gather-batch across its shards, so the
  // scratch footprint is width * O((n/S)^2), never S * O((n/S)^2).  Shard
  // results do not depend on the grouping (kernels recompute all derived
  // state per call), so the output is bit-identical at every width.
  const int width = std::max(1, std::min(ws.width(), num_shards));
  while (static_cast<int>(ws.hier_groups.size()) < width) {
    ws.hier_groups.push_back(std::make_unique<AggregatorWorkspace>());
  }
  if (static_cast<int>(ws.hier_gather.size()) < width) {
    ws.hier_gather.resize(static_cast<std::size_t>(width));
  }
  if (static_cast<int>(ws.hier_out.size()) < width) {
    ws.hier_out.resize(static_cast<std::size_t>(width));
  }
  ws.run_parallel(0, width, [&](int group_begin, int group_end) {
    for (int g = group_begin; g < group_end; ++g) {
      AggregatorWorkspace& sub = *ws.hier_groups[static_cast<std::size_t>(g)];
      sub.mode = ws.mode;
      sub.precision = ws.precision;
      sub.pool = nullptr;  // the group IS the parallel unit
      GradientBatch& gather = ws.hier_gather[static_cast<std::size_t>(g)];
      Vector& shard_out = ws.hier_out[static_cast<std::size_t>(g)];
      const int shards_begin = shard_boundary(num_shards, width, g);
      const int shards_end = shard_boundary(num_shards, width, g + 1);
      for (int s = shards_begin; s < shards_end; ++s) {
        const int row_begin = shard_boundary(n, num_shards, s);
        const int rows = shard_boundary(n, num_shards, s + 1) - row_begin;
        gather.reshape(rows, d);
        for (int r = 0; r < rows; ++r) {
          gather.set_row(r, batch.row(ws.hier_perm[static_cast<std::size_t>(row_begin + r)]));
        }
        // This shard may hold one row more than shard_rows_min; never hand
        // the leaf a weaker budget than the tree accounted for, only a
        // stronger one where the extra row allows it.
        const int shard_f = std::max(std::min(b.f_leaf, leaf_->max_usable_f(rows)),
                                     leaf_->min_usable_f());
        leaf_->aggregate_into(shard_out, gather, shard_f, sub);
        const auto coeffs = shard_out.coefficients();
        ws.hier_root.set_row(s, std::span<const double>(coeffs.data(), coeffs.size()));
      }
    }
  });
  // The root draws scratch from the caller's workspace; kernels never touch
  // the hier_* members, so ws.hier_root is stable input for the duration.
  root_->aggregate_into(out, ws.hier_root, b.f_root, ws);
}

}  // namespace abft::agg
