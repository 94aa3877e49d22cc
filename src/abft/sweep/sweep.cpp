#include "abft/sweep/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/check.hpp"
#include "abft/util/csv.hpp"
#include "abft/util/table.hpp"

namespace abft::sweep {

namespace {

using util::JsonValue;
using Members = std::vector<std::pair<std::string, JsonValue>>;

// ------------------------------ axis table ----------------------------------

/// What one entry of an axis list looks like.
enum class ValueKind {
  string,        // a name; AxisRow::check validates enum axes up front
  integer,       // an integer >= AxisRow::min, cell printed as an integer
  seed,          // a seed in [0, 2^53], or the whole list a {"from", "count"} range
  real,          // any number, cell at 12 significant digits
  fault_preset,  // {"label", "faults": [fault objects]}
  patch,         // {"label", "patch": {scenario keys}}
};

/// How an entry lands at the axis path.
enum class Write {
  set,    // replace the member at the path
  rekey,  // replace the object at the path by {<entry>: <its first member's value>}
  merge,  // set each member of the entry object (a shallow patch)
};

struct AxisRow {
  std::string_view name;
  std::array<std::string_view, 4> path;  // unused trailing slots stay empty
  ValueKind kind;
  int min = 0;
  void (*check)(std::string_view) = nullptr;
  Write write = Write::set;
};

void check_mode(std::string_view mode) { agg::agg_mode_from_string(mode); }
void check_precision(std::string_view precision) { agg::precision_from_string(precision); }
void check_reduction_kind(std::string_view kind) {
  ABFT_REQUIRE(kind == "coreset" || kind == "sample",
               "reduction_kind axis entries must be \"coreset\" or \"sample\"");
}

/// Every named axis, in canonical application order (the grid's row-major
/// order: aggregator outermost, variants innermost and applied last).
constexpr AxisRow kAxisTable[] = {
    {"aggregator", {"aggregator"}, ValueKind::string},
    {"mode", {"mode"}, ValueKind::string, 0, check_mode},
    {"precision", {"precision"}, ValueKind::string, 0, check_precision},
    {"f", {"f"}, ValueKind::integer, 0},
    {"shards", {"aggregator", "hierarchy", "shards"}, ValueKind::integer, 1},
    {"coreset_size", {"aggregator", "reduction", "coreset", "size"}, ValueKind::integer, 0},
    {"reduction_kind", {"aggregator", "reduction"}, ValueKind::string, 0, check_reduction_kind,
     Write::rekey},
    {"quorum", {"async", "quorum"}, ValueKind::integer, 0},
    {"staleness_cap", {"async", "staleness_cap"}, ValueKind::integer, 0},
    {"seed", {"seed"}, ValueKind::seed},
    {"drop_probability", {"drop_probability"}, ValueKind::real},
    {"participation", {"axes", "participation"}, ValueKind::real},
    {"straggler_probability", {"axes", "straggler_probability"}, ValueKind::real},
    {"faults", {"faults"}, ValueKind::fault_preset},
    {"variants", {}, ValueKind::patch, 0, nullptr, Write::merge},
};

const AxisRow& row_of(std::string_view name) {
  for (const auto& row : kAxisTable) {
    if (row.name == name) return row;
  }
  throw std::invalid_argument("sweep: unknown axis \"" + std::string(name) + "\"");
}

std::span<const std::string_view> path_of(const AxisRow& row) {
  return {row.path.begin(), std::find(row.path.begin(), row.path.end(), std::string_view{})};
}

// ------------------------------- parsing ------------------------------------

/// The JSON reader resolves duplicate keys last-wins; a sweep block where
/// the same axis appears twice is a spec contradicting itself, so it must
/// fail loudly instead of silently dropping the first list.
void reject_duplicate_keys(const JsonValue& object, std::string_view where) {
  auto keys = object.keys();
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    std::ostringstream os;
    os << "sweep: duplicate key \"" << *dup << "\" in " << where;
    throw std::invalid_argument(os.str());
  }
}

/// Run-id / CSV token: labels are free-form, ids must stay shell- and
/// csv-friendly.
std::string sanitize_token(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out.push_back(keep ? c : '-');
  }
  return out.empty() ? std::string("-") : out;
}

/// Labels are compared after run-id/CSV sanitization: two labels that only
/// differ in characters the tokens drop (e.g. "a b" vs "a-b") would emit
/// indistinguishable axis cells and run ids, so they are duplicates too.
void reject_duplicate_labels(const std::vector<AxisValue>& values, std::string_view axis) {
  std::vector<std::string> sorted;
  sorted.reserve(values.size());
  for (const auto& value : values) sorted.push_back(sanitize_token(value.label));
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    std::ostringstream os;
    os << "sweep: duplicate label \"" << *dup << "\" in the " << axis
       << " axis (labels are compared after run-id sanitization)";
    throw std::invalid_argument(os.str());
  }
}

std::uint64_t checked_seed(double value) {
  ABFT_REQUIRE(value >= 0.0 && value <= 9007199254740992.0 && value == std::floor(value),
               "sweep seeds must be integers in [0, 2^53]");
  return static_cast<std::uint64_t>(value);
}

/// Seed cells print the integer itself: format_json_number's 12 significant
/// digits would turn 9007199254740990 into 9.00719925474e+15.
AxisValue seed_value(std::uint64_t seed) {
  return {std::to_string(seed), JsonValue::make_number(static_cast<double>(seed))};
}

/// Parses and validates one entry of an axis list.
AxisValue parse_entry(const AxisRow& row, const JsonValue& entry) {
  switch (row.kind) {
    case ValueKind::string:
      if (row.check != nullptr) row.check(entry.as_string());
      return {entry.as_string(), entry};
    case ValueKind::integer: {
      const double value = entry.as_number();
      if (!(value >= row.min && value <= INT_MAX && value == std::floor(value))) {
        throw std::invalid_argument("sweep: " + std::string(row.name) +
                                    " axis entries must be integers >= " +
                                    std::to_string(row.min));
      }
      return {std::to_string(static_cast<int>(value)), entry};
    }
    case ValueKind::seed:
      return seed_value(checked_seed(entry.as_number()));
    case ValueKind::real:
      return {util::format_json_number(entry.as_number()), entry};
    case ValueKind::fault_preset:
    case ValueKind::patch:
      break;
  }
  const bool preset = row.kind == ValueKind::fault_preset;
  const std::string_view member = preset ? "faults" : "patch";
  util::require_known_keys(entry, "sweep", preset ? "fault preset" : "variant",
                           {"label", member});
  AxisValue value{entry.at("label").as_string(), entry.at(member)};
  ABFT_REQUIRE(preset ? value.value.is_array() : value.value.is_object(),
               "a fault preset's faults must be an array, a variant's patch an object");
  if (!preset) reject_duplicate_keys(value.value, "variant patch \"" + value.label + "\"");
  return value;
}

/// Parses one axis list (a seed axis also takes a contiguous range
/// {"from": s, "count": n}) up front, so a malformed grid fails before any
/// run starts.
std::vector<AxisValue> parse_values(const AxisRow& row, const JsonValue& list) {
  std::vector<AxisValue> out;
  if (row.kind == ValueKind::seed && list.is_object()) {
    util::require_known_keys(list, "sweep", "seed range", {"from", "count"});
    const std::uint64_t from = checked_seed(list.at("from").as_number());
    const double count = list.at("count").as_number();
    ABFT_REQUIRE(count >= 1.0 && count == std::floor(count) && count <= 1e6,
                 "seed range count must be an integer in [1, 1e6]");
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(count); ++i) {
      out.push_back(seed_value(from + i));
    }
  } else {
    for (const auto& entry : list.as_array()) out.push_back(parse_entry(row, entry));
  }
  if (out.empty()) {
    throw std::invalid_argument("sweep: the " + std::string(row.name) + " axis list is empty");
  }
  reject_duplicate_labels(out, row.name);
  return out;
}

/// An axis re-specifying a key the base already sets would make the spec
/// contradict itself (which value did the author mean?) — reject, as well as
/// a base member the axis path must descend through that is not an object.
/// Variants are exempt: a patch exists to override, and applies last.
void reject_base_conflict(const JsonValue& base, const AxisRow& row) {
  if (row.write == Write::merge) return;
  const JsonValue* node = &base;
  std::string_view parent = "base";
  for (const std::string_view key : path_of(row)) {
    if (!node->is_object()) {
      throw std::invalid_argument("sweep: the " + std::string(row.name) +
                                  " axis writes inside base \"" + std::string(parent) +
                                  "\", which is not an object");
    }
    node = node->find(key);
    if (node == nullptr) return;
    parent = key;
  }
  throw std::invalid_argument("sweep: axis \"" + std::string(row.name) +
                              "\" is also set in the base spec — remove one");
}

/// An axis that sets a value at a strict prefix of another swept axis's path
/// would replace the object the other one writes into (an aggregator string
/// vs the shards / coreset_size / reduction_kind objects) — reject; such
/// rows are variants.  The re-keying reduction_kind write keeps the inner
/// object, so it composes with coreset_size.
void reject_clobbering(const std::vector<SweptAxis>& axes) {
  for (const auto& outer : axes) {
    const AxisRow& row = row_of(outer.name);
    if (row.write != Write::set) continue;
    const auto prefix = path_of(row);
    for (const auto& inner : axes) {
      const auto path = path_of(row_of(inner.name));
      if (path.size() > prefix.size() && std::equal(prefix.begin(), prefix.end(), path.begin())) {
        throw std::invalid_argument("sweep: the " + outer.name +
                                    " axis would clobber the object the " + inner.name +
                                    " axis writes into — use variants instead");
      }
    }
  }
}

// ------------------------------ expansion -----------------------------------

void set_member(Members& members, std::string_view key, JsonValue value) {
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members.emplace_back(std::string(key), std::move(value));
}

/// Returns `node` (nullptr = absent) with `value` written at `path`, creating
/// missing objects on the way down.
JsonValue write_at(const JsonValue* node, std::span<const std::string_view> path, Write write,
                   const JsonValue& value) {
  if (path.empty() && write == Write::set) return value;
  Members members = node != nullptr ? node->as_object() : Members{};
  if (!path.empty()) {
    set_member(members, path.front(),
               write_at(node != nullptr ? node->find(path.front()) : nullptr, path.subspan(1),
                        write, value));
  } else if (write == Write::rekey) {
    JsonValue inner = members.empty() ? JsonValue::make_object({}) : members.front().second;
    members = {{value.as_string(), std::move(inner)}};
  } else {
    for (const auto& [key, member] : value.as_object()) set_member(members, key, member);
  }
  return JsonValue::make_object(std::move(members));
}

std::string number_token(double value) { return util::format_json_number(value); }

std::string pad_index(std::size_t index, std::size_t total) {
  std::string digits = std::to_string(total == 0 ? 0 : total - 1);
  std::string out = std::to_string(index);
  const std::size_t width = std::max<std::size_t>(3, digits.size());
  while (out.size() < width) out.insert(out.begin(), '0');
  return out;
}

// ------------------------------ output --------------------------------------

using util::write_json_string;

std::string format_wall_ms(double wall_ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", wall_ms);
  return buffer;
}

std::string final_dist_cell(const scenario::ScenarioResult& result) {
  return result.distance_to_reference ? number_token(*result.distance_to_reference)
                                      : std::string("nan");
}

/// The async counter columns appear only when the grid ran the async engine
/// (every run of a grid shares the base driver config, so the front run
/// decides for the whole table).
bool has_async_columns(const SweepOutcome& outcome) {
  return !outcome.runs.empty() && outcome.runs.front().result.async_stats.has_value();
}

/// The hierarchy bookkeeping columns appear only when the grid ran a
/// hierarchical aggregator.  eff_shards is the EFFECTIVE shard count the
/// tree ran with — on a roster of n < S agents it clamps to n, so it can
/// legitimately differ from the swept "shards" axis cell.
bool has_hierarchy_columns(const SweepOutcome& outcome) {
  return !outcome.runs.empty() && outcome.runs.front().result.hierarchy_bounds.has_value();
}

/// Which optional column groups a table carries.
struct RowShape {
  bool hierarchy = false;
  bool async_stats = false;
};

RowShape row_shape(const SweepOutcome& outcome) {
  return RowShape{has_hierarchy_columns(outcome), has_async_columns(outcome)};
}

/// One header/row shape shared by the CSV writer and the summary table.
std::vector<std::string> result_header(const SweepOutcome& outcome) {
  std::vector<std::string> header{"run_id"};
  if (!outcome.runs.empty()) {
    for (const auto& cell : outcome.runs.front().axes) header.push_back(cell.axis);
  }
  header.insert(header.end(), {"final_dist", "final_loss", "eliminated"});
  const RowShape shape = row_shape(outcome);
  if (shape.hierarchy) {
    header.insert(header.end(), {"eff_shards", "tolerated_f", "resilience_margin"});
  }
  if (shape.async_stats) {
    header.insert(header.end(),
                  {"quorum_fires", "deadline_fires", "stale_dropped", "late_rows"});
  }
  header.push_back("wall_ms");
  return header;
}

std::vector<std::string> result_row(const SweepRunResult& run, RowShape shape) {
  std::vector<std::string> row{run.run_id};
  for (const auto& cell : run.axes) row.push_back(cell.value);
  row.push_back(final_dist_cell(run.result));
  row.push_back(number_token(run.result.final_cost));
  row.push_back(std::to_string(run.result.eliminated_agents));
  if (shape.hierarchy) {
    const auto bounds = run.result.hierarchy_bounds.value_or(agg::HierarchyBounds{});
    row.push_back(std::to_string(bounds.shards));
    row.push_back(std::to_string(bounds.tolerated_f));
    row.push_back(number_token(bounds.resilience_margin));
  }
  if (shape.async_stats) {
    const auto stats = run.result.async_stats.value_or(engine::AsyncStats{});
    row.push_back(std::to_string(stats.quorum_fires));
    row.push_back(std::to_string(stats.deadline_fires));
    row.push_back(std::to_string(stats.stale_dropped));
    row.push_back(std::to_string(stats.late_rows));
  }
  row.push_back(format_wall_ms(run.wall_ms));
  return row;
}

}  // namespace

bool is_sweep_json(const JsonValue& json) { return json.find("sweep") != nullptr; }

std::string SweepRunResult::axis_value(std::string_view axis) const {
  for (const auto& cell : axes) {
    if (cell.axis == axis) return cell.value;
  }
  return "";
}

const SweptAxis* SweepSpec::find_axis(std::string_view axis) const {
  for (const auto& swept : axes) {
    if (swept.name == axis) return &swept;
  }
  return nullptr;
}

SweptAxis* SweepSpec::find_axis(std::string_view axis) {
  return const_cast<SweptAxis*>(std::as_const(*this).find_axis(axis));
}

void set_base_member(SweepSpec* spec, std::string_view key, JsonValue value) {
  ABFT_REQUIRE(spec->base.is_object(), "sweep base must be a scenario object");
  Members members = spec->base.as_object();
  set_member(members, key, std::move(value));
  spec->base = JsonValue::make_object(std::move(members));
}

SweepSpec parse_sweep(const JsonValue& json) {
  util::require_known_keys(json, "sweep", "sweep document", {"name", "threads", "base", "sweep"});
  reject_duplicate_keys(json, "sweep document");
  SweepSpec spec;
  spec.name = json.string_or("name", "");
  const double threads = json.number_or("threads", 1);
  ABFT_REQUIRE(threads >= 1.0 && threads == std::floor(threads),
               "sweep threads must be an integer >= 1");
  spec.threads = static_cast<int>(threads);
  spec.base = json.at("base");
  ABFT_REQUIRE(spec.base.is_object(), "sweep base must be a scenario object");
  reject_duplicate_keys(spec.base, "base");

  const JsonValue& sw = json.at("sweep");
  ABFT_REQUIRE(sw.is_object(), "the sweep block must be an object of axes");
  reject_duplicate_keys(sw, "sweep block");
  for (const auto& key : sw.keys()) row_of(key);  // rejects unknown axes
  for (const auto& row : kAxisTable) {
    if (const auto* list = sw.find(row.name)) {
      reject_base_conflict(spec.base, row);
      spec.axes.push_back({std::string(row.name), parse_values(row, *list)});
    }
  }
  ABFT_REQUIRE(!spec.axes.empty(), "the sweep block must sweep at least one axis");
  reject_clobbering(spec.axes);
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  return parse_sweep(util::parse_json_file(path));
}

std::vector<ExpandedRun> expand_sweep(const SweepSpec& spec) {
  ABFT_REQUIRE(spec.base.is_object(), "sweep base must be a scenario object");
  ABFT_REQUIRE(!spec.axes.empty(), "the sweep block must sweep at least one axis");
  std::vector<const AxisRow*> rows;
  std::size_t total = 1;
  for (const auto& axis : spec.axes) {
    rows.push_back(&row_of(axis.name));
    const std::size_t size = axis.values.size();
    ABFT_REQUIRE(size > 0, "sweep axis lists must be non-empty");
    ABFT_REQUIRE(total <= 1000000 / size, "sweep grid exceeds 1e6 runs — split the spec");
    total *= size;
  }

  std::vector<ExpandedRun> runs;
  runs.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    // Row-major decomposition: the LAST axis varies fastest.
    std::vector<std::size_t> position(spec.axes.size());
    std::size_t remainder = index;
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      position[a] = remainder % spec.axes[a].values.size();
      remainder /= spec.axes[a].values.size();
    }

    ExpandedRun run;
    JsonValue merged = spec.base;
    run.run_id = pad_index(index, total);
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      // The cell keeps the raw label (the CSV layer quotes commas and
      // quotes per RFC 4180); only the run-id token is sanitized.
      const AxisValue& value = spec.axes[a].values[position[a]];
      merged = write_at(&merged, path_of(*rows[a]), rows[a]->write, value.value);
      run.run_id += '_' + spec.axes[a].name + '=' + sanitize_token(value.label);
      run.axes.push_back(AxisCell{spec.axes[a].name, value.label});
    }
    try {
      run.spec = scenario::parse_scenario(merged);
    } catch (const std::exception& error) {
      throw std::invalid_argument("sweep run " + run.run_id + ": " + error.what());
    }
    if (run.spec.name.empty()) run.spec.name = run.run_id;
    runs.push_back(std::move(run));
  }
  return runs;
}

SweepOutcome run_sweep(const SweepSpec& spec, int threads_override) {
  const int threads = threads_override > 0 ? threads_override : spec.threads;
  ABFT_REQUIRE(threads >= 1, "sweep threads must be >= 1");
  std::vector<ExpandedRun> runs = expand_sweep(spec);

  SweepOutcome outcome;
  outcome.name = spec.name;
  outcome.runs.resize(runs.size());
  // Independent engines per run: results land in their grid slot, so the
  // outcome is row-for-row identical at every thread count (and identical
  // to run-by-run run_scenario).  Inside a pool worker the per-run engines'
  // own parallel_for degenerates to serial (nested-dispatch rule), so a
  // parallel sweep never oversubscribes.
  agg::ThreadPool pool(std::min(threads, static_cast<int>(std::max<std::size_t>(
                                             runs.size(), 1))));
  // Dynamic scheduling: run costs are heterogeneous (and grid order
  // correlates cost with position — e.g. a mode axis groups all the slow
  // exact runs together), so workers drain a shared cursor instead of
  // taking parallel_for's static chunks.  Each run still lands in its own
  // grid slot, so the outcome stays row-for-row identical.
  std::atomic<int> cursor{0};
  const int total_runs = static_cast<int>(runs.size());
  pool.parallel_for(0, total_runs, threads, [&](int, int) {
    for (int i = cursor.fetch_add(1); i < total_runs; i = cursor.fetch_add(1)) {
      auto& slot = outcome.runs[static_cast<std::size_t>(i)];
      auto& run = runs[static_cast<std::size_t>(i)];
      const auto start = std::chrono::steady_clock::now();
      try {
        slot.result = scenario::run_scenario(run.spec);
      } catch (const std::exception& error) {
        // Re-anchor the failure to its grid cell; parallel_for rethrows the
        // first failing chunk's exception to the caller.
        throw std::invalid_argument("sweep run " + run.run_id + ": " + error.what());
      }
      const auto stop = std::chrono::steady_clock::now();
      slot.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
      slot.run_id = std::move(run.run_id);
      slot.axes = std::move(run.axes);
    }
  });
  return outcome;
}

void write_sweep_csv(const SweepOutcome& outcome, std::ostream& os) {
  util::CsvWriter csv(os, result_header(outcome));
  const RowShape shape = row_shape(outcome);
  for (const auto& run : outcome.runs) csv.add_row(result_row(run, shape));
}

void write_sweep_json(const SweepOutcome& outcome, std::ostream& os) {
  os << "{\n  \"name\": ";
  write_json_string(os, outcome.name);
  os << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const auto& run = outcome.runs[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"run_id\": ";
    write_json_string(os, run.run_id);
    os << ", \"axes\": {";
    for (std::size_t c = 0; c < run.axes.size(); ++c) {
      if (c > 0) os << ", ";
      write_json_string(os, run.axes[c].axis);
      os << ": ";
      write_json_string(os, run.axes[c].value);
    }
    os << "}, \"driver\": ";
    write_json_string(os, run.result.spec.driver);
    os << ", \"aggregator\": ";
    write_json_string(os, run.result.spec.aggregator);
    os << ", \"mode\": \"" << agg::to_string(run.result.spec.mode) << "\"";
    os << ", \"precision\": \"" << agg::to_string(run.result.spec.precision) << "\"";
    // A diverged run's final_cost/distance can be nan or inf, which have no
    // JSON spelling; write_json_number emits null instead of an unparseable
    // bare token.
    os << ", \"final_cost\": ";
    util::write_json_number(os, run.result.final_cost);
    if (run.result.distance_to_reference) {
      os << ", \"distance_to_reference\": ";
      util::write_json_number(os, *run.result.distance_to_reference);
    }
    os << ", \"eliminated_agents\": " << run.result.eliminated_agents;
    os << ", \"departed_agents\": " << run.result.departed_agents;
    if (run.result.hierarchy_bounds) {
      const auto& b = *run.result.hierarchy_bounds;
      os << ", \"hierarchy\": {\"shards\": " << b.shards
         << ", \"requested_shards\": " << run.result.spec.hierarchy->shards
         << ", \"f_leaf\": " << b.f_leaf << ", \"f_root\": " << b.f_root
         << ", \"tolerated_f\": " << b.tolerated_f
         << ", \"resilience_margin\": " << number_token(b.resilience_margin) << "}";
    }
    if (run.result.async_stats) {
      const auto& a = *run.result.async_stats;
      os << ", \"async\": {\"quorum_fires\": " << a.quorum_fires
         << ", \"deadline_fires\": " << a.deadline_fires
         << ", \"stale_dropped\": " << a.stale_dropped
         << ", \"late_rows\": " << a.late_rows << "}";
    }
    os << ", \"wall_ms\": " << format_wall_ms(run.wall_ms) << "}";
  }
  os << "\n  ]\n}\n";
}

void print_sweep(const SweepOutcome& outcome, std::ostream& os) {
  os << "sweep: " << (outcome.name.empty() ? "(unnamed)" : outcome.name) << " — "
     << outcome.runs.size() << " runs\n";
  util::Table table(result_header(outcome));
  const RowShape shape = row_shape(outcome);
  for (const auto& run : outcome.runs) table.add_row(result_row(run, shape));
  table.print(os);
}

}  // namespace abft::sweep
