// Sharded hierarchical aggregation: the aggregate-of-aggregates tree that
// takes the Gram-based rules from O(n^2 d) to O((n^2 / S) d).  The n
// received gradients are partitioned into S shards, a registry rule runs
// per shard (shards dispatched in parallel over the workspace's ThreadPool),
// and a (possibly different) top-level rule robustly combines the S shard
// outputs.
//
// Fault-budget composition — the per-level (n_s, f_s) bookkeeping: every
// leaf runs with a per-shard budget f_leaf, so corrupting one shard output
// costs the adversary f_leaf + 1 faults; the root runs with a budget of
// f_root corrupted shard outputs.  The tree therefore masks any total fault
// count F with floor(F / (f_leaf + 1)) <= f_root, i.e.
//
//   tolerated_f = (f_leaf + 1) * (f_root + 1) - 1      (capped at n - 1)
//
// even when the faults are packed into the fewest possible shards.
// HierarchyBounds exposes those numbers plus the paper-facing resilience
// margin 2 * tolerated_f / n, directly comparable against the paper's
// 2f/n < 1 - mu/lambda approximation condition.
//
// Determinism: shard assignment is a seeded Fisher-Yates permutation of the
// row ids (assignment_seed = 0 keeps the identity order), each shard's rows
// are gathered contiguously, and per-shard outputs land in fixed root-batch
// rows — so the result is a pure function of (batch, f, config), bit
// identical at every thread count.  An S = 1 tree delegates to the leaf
// rule with the same clamped f_leaf budget bounds() reports — bit-identical
// to flat aggregation whenever the declared f is already in the leaf's
// usable range, and still runnable (budget clamped up to the leaf's floor)
// when it is not.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/coreset.hpp"

namespace abft::agg {

struct HierarchyConfig {
  /// Number of shards S (>= 1); clamped to the row count per call so a
  /// shrinking roster degrades to fewer shards instead of failing.
  int shards = 1;
  /// Registry rule run on each shard's rows.
  std::string leaf_rule = "cwtm";
  /// Registry rule combining the S shard outputs.
  std::string root_rule = "cwtm";
  /// Per-shard declared fault budget.  -1 (the default) derives it per call
  /// as min(f, leaf max_usable_f(smallest shard)); an explicit value is
  /// clamped into the leaf rule's usable range, like the engine's own
  /// usable_fault_bound clamp.  Honoured at every effective shard count,
  /// including the S = 1 flat delegation (where it pins the executed leaf
  /// budget and max_usable_f accordingly).
  int f_leaf = -1;
  /// Seed of the deterministic row-to-shard assignment permutation; 0 keeps
  /// the identity order (row i lands in shard floor(i * S / n)'s slice).
  std::uint64_t assignment_seed = 0;
  /// Optional per-shard coreset pre-reduction (agg/coreset.hpp): each leaf
  /// runs the leaf rule on a weighted coreset of its shard's rows instead of
  /// the rows themselves.  The shard fault budget doubles as the coreset's
  /// outlier budget; shards too small to reduce delegate bit-identically.
  std::optional<CoresetConfig> coreset;
};

/// Per-level bookkeeping of one (n, f) aggregation through the tree.
struct HierarchyBounds {
  int n = 0;
  int shards = 1;        ///< effective S = min(config shards, n)
  int shard_rows_min = 0;
  int shard_rows_max = 0;
  int f_leaf = 0;        ///< budget every leaf runs with
  int f_root = 0;        ///< corrupted-shard budget the root runs with
  /// End-to-end guaranteed total-fault bound (f_leaf+1)(f_root+1)-1, capped
  /// at n - 1; -1 when the leaf/root rules cannot run on this shape at all.
  int tolerated_f = 0;
  /// 2 * tolerated_f / n — the paper's resilience margin (Theorem 2 needs
  /// 2f/n < 1 - mu/lambda, so this is the number to compare against it).
  double resilience_margin = 0.0;
};

/// Stable label, e.g. "hier-16-krum-cwtm" (+ "-fl2" when f_leaf is
/// explicit, + "-cs64" with a per-shard coreset).  Doubles as the
/// spec-layer aggregator spelling; uses only run-id/CSV-safe characters.
std::string hierarchy_label(const HierarchyConfig& config);

/// Label variant for a known row count n: reports the *effective* shard
/// count min(config.shards, n) — the tree a roster of n agents actually
/// runs, which can differ from the requested S when n < S.
std::string hierarchy_label(const HierarchyConfig& config, int n);

class HierarchicalAggregator final : public GradientAggregator {
 public:
  /// Throws std::invalid_argument on shards < 1, f_leaf < -1, or an unknown
  /// leaf/root registry rule name.
  explicit HierarchicalAggregator(HierarchyConfig config);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return label_; }
  /// The composed bound (f_leaf_max+1)(f_root_max+1)-1 under the per-level
  /// caps, so engines clamp the declared f to what the tree can honour (and
  /// hold position when a shrunk roster leaves the leaves unable to run).
  [[nodiscard]] int max_usable_f(int n) const noexcept override;
  [[nodiscard]] int min_usable_f() const noexcept override;

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }

  /// The per-level bookkeeping an (n, f) call runs with — exposed so
  /// results/tests can audit the end-to-end bound.
  [[nodiscard]] HierarchyBounds bounds(int n, int f) const;

 private:
  HierarchyConfig config_;  // before leaf_/root_: ctor init order relies on it
  std::unique_ptr<GradientAggregator> leaf_;
  std::unique_ptr<GradientAggregator> root_;
  std::string label_;
};

}  // namespace abft::agg
