// Sweep orchestration: the paper's headline results (Fig. 2-5, Table 1) are
// grids — one (2f, eps)-redundancy experiment repeated over rules, attacks,
// fault bounds and seeds.  A SweepSpec makes that grid declarative: a "sweep"
// block of list-valued axes over a "base" ScenarioSpec, expanded into the
// cartesian product with deterministic run ids, executed in parallel across
// an agg::ThreadPool, and emitted as one CSV / JSON result set.  The
// bench_fig2/3/4/5, bench_table1 and bench_epsilon_sweep binaries are thin
// wrappers over committed specs/sweep_*.json through this layer, and
// `abft_run --sweep` executes any of them from the command line.
//
// Sweep spec schema:
//   name        free-form label ("")
//   threads     number of runs executed concurrently (1); per-run kernel
//               threading (base "threads") degenerates to serial inside a
//               pool worker, so sweep- and run-level parallelism compose
//               safely but not multiplicatively
//   base        a full ScenarioSpec object (scenario.hpp schema)
//   sweep       list-valued axes, all optional, at least one required.  One
//               table in sweep.cpp places every axis:
//
//     axis                   writes at (base spec path)          entries
//     aggregator             aggregator                          registry rule names
//     mode                   mode                                "exact" | "fast"
//     precision              precision                           "f64" | "f32"
//     f                      f                                   integers >= 0
//     shards                 aggregator.hierarchy.shards         integers >= 1
//     coreset_size           aggregator.reduction.coreset.size   integers >= 0 (0 = auto)
//     reduction_kind         aggregator.reduction (re-keyed)     "coreset" | "sample"
//     quorum                 async.quorum                        integers >= 0
//     staleness_cap          async.staleness_cap                 integers >= 0
//     seed                   seed                                [1, 2] or {"from": s, "count": n}
//     drop_probability       drop_probability                    reals
//     participation          axes.participation                  reals
//     straggler_probability  axes.straggler_probability          reals
//     faults                 faults                              [{"label": l, "faults": [...]}]
//     variants               top-level keys (patch)              [{"label": l, "patch": {...}}]
//
// Writes create missing objects on the way down: an absent "async" block
// becomes the default quorum-or-deadline config, an absent aggregator a
// default-rule hierarchy or reduction.  reduction_kind re-keys the reduction
// object to {<kind>: {inner config}}, carrying over the config a coreset_size
// axis wrote first, so the two compose (as shards and coreset_size compose
// into per-shard coresets).  A fault preset replaces the base "faults" array
// wholesale; a variant patch replaces top-level keys, for grid rows that are
// not a single-key change (e.g. fig2's "fault-free" = average + honest subset
// + f=0).
//
// parse_sweep rejects unknown or duplicate keys, empty lists, duplicate
// labels (compared after run-id sanitization), an axis whose path the base
// already sets (the spec would contradict itself; variants are exempt — a
// patch exists to override), a base member that is not an object where an
// axis path descends through it, and an axis that sets a value at a strict
// prefix of another swept axis's path (an aggregator axis would clobber the
// object shards / coreset_size / reduction_kind write into).  Contradictions
// between the merged keys (f32 with exact mode, a "rule" beside a
// "hierarchy") are parse_scenario's to reject, at expansion, naming the run.
//
// Expansion contract: the grid is the cartesian product of the axes in the
// canonical order above (aggregator outermost, variants innermost /
// fastest-varying).  Each run starts from "base", applies one value per
// axis in canonical order — variants last, so a variant patch overrides
// both base keys and earlier axes (that is its purpose) — and is then
// parsed/validated exactly like a standalone scenario spec.  Run ids are
// deterministic: a zero-padded grid index followed by axis=value tokens,
// e.g. "003_aggregator=cge_faults=random".  Axis cells keep the author's
// raw label (the CSV layer RFC-4180-quotes commas and quotes); only the
// run-id token is sanitized.  Integer and seed cells print as integers,
// real cells at 12 significant digits.
//
// Determinism: expansion is a pure function of the spec, each expanded run
// is bit-deterministic given its ScenarioSpec, and results land in
// grid-index order — so a threads=N sweep is row-for-row identical to
// threads=1, which is in turn identical to calling run_scenario on each
// expanded spec by hand (wall_ms excepted).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "abft/scenario/scenario.hpp"
#include "abft/util/json.hpp"

namespace abft::sweep {

/// One entry of a swept axis: the JSON it writes into the base spec and its
/// raw label (the CSV cell; sanitized, the run-id token).
struct AxisValue {
  std::string label;
  util::JsonValue value;
};

/// One swept axis: its schema name and its entries in grid order.
struct SweptAxis {
  std::string name;
  std::vector<AxisValue> values;
};

struct SweepSpec {
  std::string name;
  /// Number of runs executed concurrently (>= 1).
  int threads = 1;
  /// The base ScenarioSpec as JSON (axes merge into it textually, then the
  /// merged object goes through parse_scenario's full validation).
  util::JsonValue base;
  /// The swept axes in canonical application order.
  std::vector<SweptAxis> axes;

  /// The swept axis called `name`, or nullptr when the grid does not sweep
  /// it (how the figure benches filter or read one axis).
  [[nodiscard]] const SweptAxis* find_axis(std::string_view name) const;
  [[nodiscard]] SweptAxis* find_axis(std::string_view name);
};

/// Parses a sweep document ({"name", "threads", "base", "sweep"}).  Throws
/// std::invalid_argument naming unknown keys, duplicate keys, empty or
/// base-conflicting axes, and malformed axis entries.
SweepSpec parse_sweep(const util::JsonValue& json);
SweepSpec load_sweep_file(const std::string& path);

/// True when the document carries a "sweep" block (abft_run uses this to
/// dispatch between scenario and sweep execution).
bool is_sweep_json(const util::JsonValue& json);

/// Replaces (or adds) one key in the sweep's base spec — how the figure
/// benches apply --mode=fast or a truncated iteration count onto a
/// committed grid instead of forking the spec file.
void set_base_member(SweepSpec* spec, std::string_view key, util::JsonValue value);

/// One cell of a run's grid coordinates: axis name + human-readable value
/// token (the CSV axis columns and the run-id tokens).
struct AxisCell {
  std::string axis;
  std::string value;
};

struct ExpandedRun {
  std::string run_id;
  std::vector<AxisCell> axes;
  scenario::ScenarioSpec spec;
};

/// Expands the cartesian grid in canonical order.  Every expanded spec has
/// been through parse_scenario; a run whose merged spec fails validation
/// throws with the run id in the message.
std::vector<ExpandedRun> expand_sweep(const SweepSpec& spec);

struct SweepRunResult {
  std::string run_id;
  std::vector<AxisCell> axes;
  scenario::ScenarioResult result;
  double wall_ms = 0.0;

  /// The value this run takes on the named sweep axis ("" when not swept) —
  /// how the figure/table renderers group a grid's rows.
  [[nodiscard]] std::string axis_value(std::string_view axis) const;
};

struct SweepOutcome {
  std::string name;
  /// In grid-index order, independent of the thread count.
  std::vector<SweepRunResult> runs;
};

/// Expands and executes the sweep, `threads_override` > 0 replacing the
/// spec's runner width.  Runs execute concurrently across an
/// agg::ThreadPool; results are ordered by grid index either way.
SweepOutcome run_sweep(const SweepSpec& spec, int threads_override = 0);

/// Aggregated result CSV, one row per run:
///   run_id, <one column per swept axis>, final_dist, final_loss,
///   eliminated, [eff_shards, tolerated_f, resilience_margin,]
///   [quorum_fires, deadline_fires, stale_dropped, late_rows,] wall_ms
/// final_dist is "nan" when the run has no closed-form reference (dsgd);
/// the hierarchy columns appear only when the grid runs a hierarchical
/// aggregator (eff_shards is the clamped shard count the tree actually
/// ran, which can differ from a swept "shards" axis cell when n < S);
/// the async counter columns appear only when the grid runs the async
/// engine mode.
void write_sweep_csv(const SweepOutcome& outcome, std::ostream& os);

/// Machine-readable result set: {"name", "runs": [{run_id, axes, summary
/// fields, wall_ms}, ...]} with the same stable keys as write_result_json.
void write_sweep_json(const SweepOutcome& outcome, std::ostream& os);

/// Human-readable summary table.
void print_sweep(const SweepOutcome& outcome, std::ostream& os);

}  // namespace abft::sweep
