// The async quorum-or-deadline engine as an experiment: how the trigger
// quorum and the staleness cap trade convergence against waiting, on the
// committed grid specs/sweep_async.json (quorum x staleness_cap x seeds,
// dgd quadratic with a gradient-reverse fault, heavy-tailed exponential
// arrivals).  Each cell is averaged over the seed axis and printed next to
// its trigger/staleness counters; a synchronous-engine run of the same base
// (async block stripped) anchors the comparison.
//
// `abft_run --sweep specs/sweep_async.json` emits the same grid as CSV.
//
// Flags: --mode=exact|fast (relaxed-parity fast kernels).
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "abft/scenario/scenario.hpp"
#include "fig_common.hpp"

namespace {

using namespace abft;

struct Cell {
  std::string quorum;
  std::string staleness_cap;
  double dist = 0.0;
  double quorum_fires = 0.0;
  double deadline_fires = 0.0;
  double stale_dropped = 0.0;
  double late_rows = 0.0;
  int runs = 0;
};

/// Per-run counter means are small integers-and-a-fraction: fixed one-digit
/// notation reads better than format_double's significant-digit rounding.
std::string counter_mean(double total, double runs) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", total / runs);
  return buffer;
}

/// The committed base with the async block stripped: the synchronous engine
/// on the identical workload, averaged over the same seed axis.
double sync_reference(const sweep::SweepSpec& spec) {
  std::vector<std::pair<std::string, util::JsonValue>> members;
  for (const auto& [key, value] : spec.base.as_object()) {
    if (key != "async") members.emplace_back(key, value);
  }
  const auto& seeds = spec.find_axis("seed")->values;
  double total = 0.0;
  for (const auto& seed : seeds) {
    auto run_members = members;
    run_members.emplace_back("seed", seed.value);
    const auto result = scenario::run_scenario(
        scenario::parse_scenario(util::JsonValue::make_object(std::move(run_members))));
    ABFT_REQUIRE(result.distance_to_reference.has_value(),
                 "the async grid's base problem must have a closed-form reference");
    total += *result.distance_to_reference;
  }
  return total / static_cast<double>(seeds.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = fig::parse_bench_options(argc, argv);
  auto spec = fig::load_sweep_spec("sweep_async.json");
  sweep::set_base_member(&spec, "mode",
                         util::JsonValue::make_string(std::string(agg::to_string(options.mode))));
  const sweep::SweptAxis* seeds = spec.find_axis("seed");
  ABFT_REQUIRE(seeds != nullptr, "sweep_async.json must sweep a seed axis");

  std::cout << "Async quorum-or-deadline engine — " << spec.name << "\n"
            << "mode: " << agg::to_string(options.mode) << ", " << seeds->values.size()
            << " seeds per cell; dist = ||x_T - x_H|| averaged over seeds\n\n";

  const auto outcome = sweep::run_sweep(spec);
  std::vector<Cell> cells;
  for (const auto& run : outcome.runs) {
    const std::string quorum = run.axis_value("quorum");
    const std::string cap = run.axis_value("staleness_cap");
    Cell* cell = nullptr;
    for (auto& existing : cells) {
      if (existing.quorum == quorum && existing.staleness_cap == cap) cell = &existing;
    }
    if (cell == nullptr) {
      cells.push_back(Cell{quorum, cap});
      cell = &cells.back();
    }
    ABFT_REQUIRE(run.result.distance_to_reference.has_value() &&
                     run.result.async_stats.has_value(),
                 "async grid runs must carry a reference distance and the async counters");
    cell->dist += *run.result.distance_to_reference;
    cell->quorum_fires += static_cast<double>(run.result.async_stats->quorum_fires);
    cell->deadline_fires += static_cast<double>(run.result.async_stats->deadline_fires);
    cell->stale_dropped += static_cast<double>(run.result.async_stats->stale_dropped);
    cell->late_rows += static_cast<double>(run.result.async_stats->late_rows);
    cell->runs += 1;
  }

  util::Table table({"quorum", "staleness_cap", "dist", "quorum_fires", "deadline_fires",
                     "stale_dropped", "late_rows"});
  for (const auto& cell : cells) {
    const double n = static_cast<double>(cell.runs);
    table.add_row({cell.quorum == "0" ? "full" : cell.quorum, cell.staleness_cap,
                   util::format_double(cell.dist / n, 4), counter_mean(cell.quorum_fires, n),
                   counter_mean(cell.deadline_fires, n), counter_mean(cell.stale_dropped, n),
                   counter_mean(cell.late_rows, n)});
  }
  table.print(std::cout);
  std::cout << "\nsync engine reference (same base, async stripped): dist = "
            << util::format_double(sync_reference(spec), 4) << "\n";
  return 0;
}
