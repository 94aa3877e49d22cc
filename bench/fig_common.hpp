// Shared harness for the Figure-2/3 family: the paper's distributed
// linear-regression scenario (Appendix J; n = 6, f = 1, agent 0 faulty)
// under each attack for each of the four plotted algorithms — fault-free
// DGD (faulty agent omitted, plain averaging), DGD+CWTM, DGD+CGE, and plain
// DGD with the faulty agent included.
//
// The whole grid is ONE committed sweep spec (specs/sweep_fig2.json: a
// faults axis x a variants axis over the Appendix-J base), executed through
// the sweep runner — the same grid `abft_run --sweep specs/sweep_fig2.json`
// emits as CSV.  The benches only patch the committed base (--mode=fast,
// fig3's truncated horizon) and render the per-iteration series.
#pragma once

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sweep/sweep.hpp"
#include "abft/util/check.hpp"
#include "abft/util/csv.hpp"
#include "abft/util/table.hpp"

namespace fig {

using namespace abft;
using linalg::Vector;

struct Series {
  std::string label;
  std::vector<double> loss;
  std::vector<double> distance;
};

struct FigureData {
  std::string attack;
  std::vector<Series> series;
  Vector x_h;
};

/// Command-line switches shared by the fig/table benches.
struct BenchOptions {
  agg::AggMode mode = agg::AggMode::exact;
  bool csv = false;
  bool csv_random = false;
};

/// `allow_csv` = whether the calling binary implements the CSV exports;
/// binaries that do not must reject the flags rather than silently print
/// their table format.
inline BenchOptions parse_bench_options(int argc, char** argv, bool allow_csv = false) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--mode=fast") {
      options.mode = agg::AggMode::fast;
    } else if (arg == "--mode=exact") {
      options.mode = agg::AggMode::exact;
    } else if (allow_csv && arg == "--csv") {
      options.csv = true;
    } else if (allow_csv && arg == "--csv-random") {
      options.csv = true;
      options.csv_random = true;
    } else {
      std::cerr << "unknown option " << arg << " (known: --mode=exact|fast"
                << (allow_csv ? ", --csv, --csv-random" : "") << ")\n";
      std::exit(2);
    }
  }
  return options;
}

/// Loads a committed sweep grid from specs/.
inline sweep::SweepSpec load_sweep_spec(const std::string& filename) {
  return sweep::load_sweep_file(std::string(ABFT_SPEC_DIR "/") + filename);
}

/// Runs the committed Figure-2 grid at the given horizon/mode and renders
/// the per-iteration series, one FigureData per attack in grid order.  A
/// non-empty `attack_filter` restricts the faults axis to that preset (the
/// --csv paths render one panel and need not run the other's sub-grid).
inline std::vector<FigureData> run_figures(int iterations, agg::AggMode mode,
                                           std::string_view attack_filter = "") {
  auto spec = load_sweep_spec("sweep_fig2.json");
  sweep::set_base_member(&spec, "iterations", util::JsonValue::make_number(iterations));
  sweep::set_base_member(&spec, "mode",
                         util::JsonValue::make_string(std::string(agg::to_string(mode))));
  sweep::SweptAxis* attacks = spec.find_axis("faults");
  ABFT_REQUIRE(attacks != nullptr, "sweep_fig2.json must sweep a faults axis");
  if (!attack_filter.empty()) {
    std::erase_if(attacks->values,
                  [&](const sweep::AxisValue& preset) { return preset.label != attack_filter; });
    // An empty axis would fail the expansion with a generic message — the
    // filter strings here and the committed preset labels must stay in
    // lockstep.
    ABFT_REQUIRE(!attacks->values.empty(),
                 "sweep_fig2.json has no fault preset with the requested label");
  }
  const auto outcome = sweep::run_sweep(spec);

  const auto problem = regress::RegressionProblem::paper_instance();
  const std::vector<int> honest{1, 2, 3, 4, 5};
  const auto honest_costs = problem.costs(honest);
  const opt::AggregateCost honest_aggregate(honest_costs);
  const Vector x_h = problem.subset_minimizer(honest);

  std::vector<FigureData> figures;
  for (const auto& run : outcome.runs) {
    const std::string attack = run.axis_value("faults");
    if (figures.empty() || figures.back().attack != attack) {
      figures.push_back(FigureData{attack, {}, x_h});
    }
    const auto& trace = run.result.traces.front();
    figures.back().series.push_back(Series{run.axis_value("variants"),
                                           trace.loss_series(honest_aggregate),
                                           trace.distance_series(x_h)});
  }
  // The attack-contiguity grouping above assumes faults x variants are the
  // only swept axes; an extra axis in the committed spec (whose cells this
  // renderer would not show) must fail loudly, not duplicate panels.
  ABFT_REQUIRE(figures.size() == attacks->values.size(),
               "sweep_fig2.json must sweep exactly the faults and variants axes");
  return figures;
}

/// Emits the full-resolution series as CSV (columns: step, then one
/// loss/distance pair per algorithm) for re-plotting.
inline void print_figure_csv(const FigureData& data, std::ostream& os) {
  std::vector<std::string> header{"step"};
  for (const auto& s : data.series) {
    header.push_back(s.label + ":loss");
    header.push_back(s.label + ":distance");
  }
  util::CsvWriter csv(os, std::move(header));
  const std::size_t length = data.series.front().loss.size();
  for (std::size_t t = 0; t < length; ++t) {
    std::vector<double> row{static_cast<double>(t)};
    for (const auto& s : data.series) {
      row.push_back(s.loss[t]);
      row.push_back(s.distance[t]);
    }
    csv.add_numeric_row(row);
  }
}

/// Emits the series, downsampled to every `stride` iterations, as aligned
/// tables (one for loss, one for distance) plus the final-error annotations
/// the paper prints on the plots.
inline void print_figure(const FigureData& data, int stride, std::ostream& os) {
  os << "=== attack: " << data.attack << " ===\n";
  for (const bool distance_table : {false, true}) {
    std::vector<std::string> header{"step"};
    for (const auto& s : data.series) header.push_back(s.label);
    util::Table table(std::move(header));
    const std::size_t length = data.series.front().loss.size();
    for (std::size_t t = 0; t < length; t += static_cast<std::size_t>(stride)) {
      std::vector<std::string> row{std::to_string(t)};
      for (const auto& s : data.series) {
        row.push_back(util::format_scientific(distance_table ? s.distance[t] : s.loss[t], 3));
      }
      table.add_row(std::move(row));
    }
    os << (distance_table ? "-- distance ||x_t - x_H||\n" : "-- loss sum_{i in H} Q_i(x_t)\n");
    table.print(os);
  }
  os << "final approximation errors ||x_T - x_H||:\n";
  for (const auto& s : data.series) {
    os << "  " << s.label << ": " << util::format_scientific(s.distance.back(), 2) << '\n';
  }
  os << '\n';
}

}  // namespace fig
