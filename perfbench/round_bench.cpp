// Round benchmark harness: runs one dgd workload through the library's own
// round loop (sim::DgdSimulation::run) and reports end-to-end metrics, or —
// with --trace 1 — replays the same rounds through the engines' public API
// with a span around every phase call and reports per-layer metrics.
//
//   perfbench_round --workload flat-krum --seed 7 --seconds 10 --trace 0
//                   [--tiny] [--spans-out FILE]
//
// Output: informational lines starting with '#', then one JSON object as the
// last line: {"correct", "attempted", "failed", "metrics"}.  See README.md
// for the workloads, the metric map and the correctness checks.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/rank_kernel.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/opt/box.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/scenario/scenario.hpp"
#include "abft/sim/agent.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/sim/network.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"

#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH "unknown"
#endif

namespace {

using namespace abft;
using Clock = std::chrono::steady_clock;
using linalg::Vector;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ----------------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------------

struct WorkloadShape {
  int n = 0;
  int d = 0;
  int f = 0;
  int iterations = 0;
  std::string fault;       // fault kind of every faulty agent
  std::string aggregator;  // JSON value of the spec's "aggregator" key
  std::string precision;
  std::string extra;  // further spec members, with a leading comma
};

std::optional<WorkloadShape> workload_shape(const std::string& name, bool tiny) {
  WorkloadShape s;
  if (name == "flat-krum" || name == "omniscient-krum" || name == "async-geomed") {
    s.n = tiny ? 20 : 200;
    s.d = tiny ? 600 : 2000;
    s.f = tiny ? 2 : 20;
    s.fault = "gradient-reverse";
    s.precision = "f64";
    s.aggregator = "\"krum\"";
    if (name == "flat-krum") {
      s.iterations = tiny ? 12 : 60;
    } else if (name == "omniscient-krum") {
      s.iterations = tiny ? 12 : 40;
      s.fault = "little-is-enough";
    } else {
      // d = 512, the f32 GeoMed lane's floor: a smaller working set than
      // d = 2000 slowed less in the shared host's slow periods.
      s.d = tiny ? 600 : 512;
      s.iterations = tiny ? 40 : 1000;
      s.aggregator = "\"geomed\"";
      s.precision = "f32";
      s.extra = std::string(", \"async\": {\"quorum\": ") + (tiny ? "15" : "150") +
                ", \"staleness_cap\": 2, \"arrival\": {\"kind\": \"exponential\", \"scale\": 0.7}}";
    }
    return s;
  }
  if (name == "hier-10k") {
    s.n = tiny ? 400 : 10000;
    s.d = tiny ? 8 : 64;
    s.f = tiny ? 20 : 500;
    s.iterations = tiny ? 12 : 40;
    s.fault = "gradient-reverse";
    s.precision = "f64";
    s.aggregator = std::string("{\"hierarchy\": {\"shards\": ") + (tiny ? "10" : "100") +
                   ", \"leaf_rule\": \"krum\", \"root_rule\": \"cwtm\"}}";
    return s;
  }
  return std::nullopt;
}

/// The scenario spec text of a workload: the only input the library sees.
/// Faulty agents sit at evenly spaced roster slots.
std::string spec_json(const std::string& name, const WorkloadShape& s, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"name\": \"" << name << "\", \"driver\": \"dgd\", \"problem\": \"quadratic\""
     << ", \"num_agents\": " << s.n << ", \"dim\": " << s.d << ", \"f\": " << s.f
     << ", \"iterations\": " << s.iterations << ", \"seed\": " << seed
     << ", \"threads\": 1, \"mode\": \"fast\", \"precision\": \"" << s.precision << "\""
     << ", \"schedule\": {\"kind\": \"harmonic\", \"scale\": 0.4}"
     << ", \"aggregator\": " << s.aggregator << ", \"faults\": [";
  const int stride = s.n / s.f;
  for (int k = 0; k < s.f; ++k) {
    os << (k ? ", " : "") << "{\"agent\": " << k * stride << ", \"kind\": \"" << s.fault << "\"}";
  }
  os << "]" << s.extra << "}";
  return os.str();
}

/// What a dgd run over the quadratic problem needs alive: the scenario
/// layer's workload assembly, rebuilt from public types (the parity check
/// against scenario::run_scenario pins the two together).
struct Workload {
  scenario::ScenarioSpec spec;
  std::vector<opt::SquaredDistanceCost> costs;
  std::vector<std::unique_ptr<attack::FaultModel>> faults;
  std::vector<sim::AgentSpec> roster;
  std::unique_ptr<agg::GradientAggregator> rule;
  std::unique_ptr<opt::StepSchedule> schedule;
};

std::unique_ptr<attack::FaultModel> make_fault(const scenario::FaultSpec& fault) {
  if (fault.kind == "gradient-reverse") return std::make_unique<attack::GradientReverseFault>();
  if (fault.kind == "little-is-enough") {
    return std::make_unique<attack::LittleIsEnoughFault>(std::isnan(fault.param) ? 1.2
                                                                                 : fault.param);
  }
  throw std::invalid_argument("perfbench: unsupported fault kind " + fault.kind);
}

void build_workload(Workload& w) {
  const auto& spec = w.spec;
  // Same center stream and draw order as the scenario layer's quadratic
  // problem.
  util::Rng center_rng(spec.seed ^ 0x9ad5eedULL);
  w.costs.reserve(static_cast<std::size_t>(spec.num_agents));
  for (int i = 0; i < spec.num_agents; ++i) {
    std::vector<double> center(static_cast<std::size_t>(spec.dim));
    for (auto& c : center) c = 3.0 * center_rng.normal();
    w.costs.emplace_back(Vector(std::move(center)));
  }
  std::vector<const opt::CostFunction*> cost_ptrs;
  cost_ptrs.reserve(w.costs.size());
  for (const auto& cost : w.costs) cost_ptrs.push_back(&cost);
  w.roster = sim::honest_roster(cost_ptrs);
  for (const auto& fault : spec.faults) {
    w.faults.push_back(make_fault(fault));
    sim::assign_fault(w.roster, fault.agent, *w.faults.back());
  }
  w.rule = scenario::make_scenario_aggregator(spec);
  w.schedule = std::make_unique<opt::HarmonicSchedule>(spec.schedule.scale);
}

sim::DgdConfig dgd_config(const Workload& w) {
  const auto& spec = w.spec;
  return sim::DgdConfig{Vector(spec.dim),
                        opt::Box::centered_cube(spec.dim, spec.box_halfwidth),
                        w.schedule.get(),
                        spec.iterations,
                        spec.f,
                        spec.seed,
                        spec.drop_probability,
                        false,
                        spec.threads,
                        spec.mode,
                        spec.precision,
                        spec.axes,
                        spec.async};
}

/// One set-up: spec parse, workload build, simulation (engine + workspace)
/// construction — the three splits are timed separately.
struct Setup {
  Workload w;
  std::unique_ptr<sim::DgdSimulation> sim;
  double parse_ms = 0.0;
  double build_ms = 0.0;
  double construct_ms = 0.0;
  [[nodiscard]] double total_s() const { return (parse_ms + build_ms + construct_ms) / 1e3; }
};

std::unique_ptr<Setup> set_up(const std::string& text) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  s->w.spec = scenario::parse_scenario(util::parse_json(text));
  const auto t1 = Clock::now();
  build_workload(s->w);
  const auto t2 = Clock::now();
  s->sim = std::make_unique<sim::DgdSimulation>(s->w.roster, dgd_config(s->w));
  const auto t3 = Clock::now();
  s->parse_ms = ms_between(t0, t1);
  s->build_ms = ms_between(t1, t2);
  s->construct_ms = ms_between(t2, t3);
  return s;
}

// ----------------------------------------------------------------------------
// Checks and statistics
// ----------------------------------------------------------------------------

bool bitwise_equal(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = a[i].coefficients();
    const auto y = b[i].coefficients();
    if (x.size() != y.size()) return false;
    if (std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) return false;
  }
  return true;
}

bool all_finite(const std::vector<Vector>& estimates) {
  for (const auto& x : estimates) {
    for (const double v : x.coefficients()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Rounds run and rounds that belong to a run whose output failed a check.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;

  void record(int rounds, bool ok, const std::string& what) {
    attempted += rounds;
    if (!ok) {
      failed += rounds;
      errors.push_back(what);
    }
  }
};

// ----------------------------------------------------------------------------
// Host facts
// ----------------------------------------------------------------------------

std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// Cores that actually run in parallel: k threads each spin as long as one
/// thread did alone; parallel = k * t1 / tk.
double parallel_cores(int k) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  auto t0 = Clock::now();
  sink += spin(kIterations, 1);
  const double t1 = ms_between(t0, Clock::now());
  std::vector<std::thread> threads;
  t0 = Clock::now();
  for (int i = 0; i < k; ++i) {
    threads.emplace_back(
        [&sink, i] { sink += spin(kIterations, static_cast<std::uint64_t>(i) + 2); });
  }
  for (auto& t : threads) t.join();
  const double tk = ms_between(t0, Clock::now());
  return sink.load() == 42 ? 0.0 : static_cast<double>(k) * t1 / tk;
}

// ----------------------------------------------------------------------------
// Metric output
// ----------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (tally.failed == 0 && tally.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ----------------------------------------------------------------------------
// Program path: set-up, reference run and the timed DgdSimulation::run loop
// ----------------------------------------------------------------------------

/// The end-to-end run is cut into windows, each a burst of set-ups followed
/// by a share of the timed loop, so the set-up median samples the whole run
/// rather than one moment of it (the host's speed drifts over seconds).
/// Repetition counts are fixed, not a time budget: the allocation history the
/// timed runs start from must not depend on how fast the host was.
constexpr int kWindows = 5;
constexpr int kSetupRepsPerWindow = 20;

struct SetupStats {
  std::unique_ptr<Setup> live;  // the last set-up; it runs the workload
  std::vector<double> total_s, parse_ms, build_ms, construct_ms;

  /// One live set-up at a time, so peak_rss_mb never holds two.
  void window(const std::string& text, int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      live.reset();
      live = set_up(text);
      total_s.push_back(live->total_s());
      parse_ms.push_back(live->parse_ms);
      build_ms.push_back(live->build_ms);
      construct_ms.push_back(live->construct_ms);
    }
  }
};

struct ProgramLoop {
  long long rounds = 0;
  double wall_s = 0.0;
  int runs = 0;
  std::vector<double> runs_per_s;  // rounds / wall time of each timed run
  std::vector<double> round_ms;    // observer-to-observer intervals
};

/// Repeats DgdSimulation::run for at least `seconds` more, adding to `loop`;
/// each run is checked bitwise against the reference trace.  Per-round
/// latency comes from the simulation's own observer hook.  False once a run
/// threw.
bool time_program(Setup& s, const sim::Trace& reference, double seconds, Tally& tally,
                  ProgramLoop& loop) {
  std::vector<Clock::time_point> stamps;
  stamps.reserve(static_cast<std::size_t>(s.w.spec.iterations));
  s.sim->set_observer(
      [&stamps](int, const Vector&, const Vector&) { stamps.push_back(Clock::now()); });
  const int rounds = s.w.spec.iterations;
  const double stop_s = loop.wall_s + seconds;
  bool ok = true;
  for (int runs = 0; runs == 0 || loop.wall_s < stop_s; ++runs) {
    stamps.clear();
    ++loop.runs;
    try {
      const auto start = Clock::now();
      const sim::Trace trace = s.sim->run(*s.w.rule);
      const auto end = Clock::now();
      const double wall_s = ms_between(start, end) / 1e3;
      loop.wall_s += wall_s;
      loop.rounds += rounds;
      loop.runs_per_s.push_back(rounds / wall_s);
      auto prev = start;
      for (const auto& stamp : stamps) {
        loop.round_ms.push_back(ms_between(prev, stamp));
        prev = stamp;
      }
      tally.record(rounds, bitwise_equal(trace.estimates, reference.estimates),
                   "timed run differs from the reference run");
    } catch (const std::exception& e) {
      tally.record(rounds, false, e.what());
      ok = false;
      break;
    }
  }
  s.sim->set_observer(nullptr);
  return ok;
}

/// An untimed run that warms a fresh set-up's workspace.  The first is the
/// reference trace; later ones must equal it bitwise.
std::optional<sim::Trace> warm_run(Setup& s, const std::optional<sim::Trace>& reference,
                                   Tally& tally) {
  const int rounds = s.w.spec.iterations;
  try {
    sim::Trace trace = s.sim->run(*s.w.rule);
    tally.record(rounds,
                 all_finite(trace.estimates) &&
                     (!reference || bitwise_equal(trace.estimates, reference->estimates)),
                 "non-finite estimate, or a warm-up run differs from the reference run");
    return trace;
  } catch (const std::exception& e) {
    tally.record(rounds, false, e.what());
    return std::nullopt;
  }
}

/// scenario::run_scenario on the same spec; its trace must equal the
/// reference bitwise.  It builds a second workload and simulation, so the
/// end-to-end run reads peak_rss_mb before it.
std::optional<scenario::ScenarioResult> scenario_parity(const Setup& s, const sim::Trace& reference,
                                                        Tally& tally) {
  const int rounds = s.w.spec.iterations;
  try {
    scenario::ScenarioResult result = scenario::run_scenario(s.w.spec);
    const bool same = result.traces.size() == 1 &&
                      bitwise_equal(result.traces.front().estimates, reference.estimates) &&
                      result.distance_to_reference.has_value();
    tally.record(rounds, same, "DgdSimulation::run differs from scenario::run_scenario");
    return result;
  } catch (const std::exception& e) {
    tally.record(rounds, false, e.what());
    return std::nullopt;
  }
}

// ----------------------------------------------------------------------------
// Traced replay through the engines' public API
// ----------------------------------------------------------------------------

enum Phase { kBegin, kProduce, kEmit, kDeliver, kCollect, kAggregate, kUpdate, kPhases };
constexpr const char* kPhaseNames[kPhases] = {"engine.begin_round", "opt.produce", "attack.emit",
                                              "sim.deliver",        "engine.collect",
                                              "agg.aggregate",      "sim.update"};

struct Span {
  int phase = -1;  // -1 = the round span
  int round = 0;
  int parent = -1;  // index of the round span
  Clock::time_point start, end;
};

/// Exact per-replay counts; two replays of one spec must agree on all.
struct Counts {
  long long rows_kept = 0;
  long long held_rounds = 0;
  long long eliminated = 0;
  long long usable_f_min = -1;  // smallest bound a filter call ran with
  engine::AsyncStats async;
  long long bytes_in = 0;      // computed: ingest rows * d * 8 per filter call
  long long gram_pairs = 0;    // computed: pairwise distances the rule needs
  long long attack_bytes = 0;  // computed: bytes the fault kernels read

  bool operator==(const Counts& o) const {
    return rows_kept == o.rows_kept && held_rounds == o.held_rounds &&
           eliminated == o.eliminated && usable_f_min == o.usable_f_min &&
           async.quorum_fires == o.async.quorum_fires &&
           async.deadline_fires == o.async.deadline_fires &&
           async.late_rows == o.async.late_rows && async.stale_dropped == o.async.stale_dropped &&
           bytes_in == o.bytes_in && gram_pairs == o.gram_pairs &&
           attack_bytes == o.attack_bytes;
  }
};

long long pairs(long long m) { return m * (m - 1) / 2; }

long long rule_pairs(const std::string& rule, long long m) {
  return rule == "krum" || rule == "multikrum" || rule == "bulyan" ? pairs(m) : 0;
}

/// Pairwise distances one filter call over `kept` rows computes (from the
/// shape; leaf and root levels of a hierarchy counted separately).
long long gram_pairs(const Workload& w, int kept, int f) {
  if (!w.spec.hierarchy) return rule_pairs(w.spec.aggregator, kept);
  const auto& h = static_cast<const agg::HierarchicalAggregator&>(*w.rule);
  const agg::HierarchyBounds b = h.bounds(kept, f);
  const long long big = b.shard_rows_max > b.shard_rows_min
                            ? kept - static_cast<long long>(b.shards) * b.shard_rows_min
                            : 0;
  const std::string& leaf = w.spec.hierarchy->leaf_rule;
  return (b.shards - big) * rule_pairs(leaf, b.shard_rows_min) +
         big * rule_pairs(leaf, b.shard_rows_max) +
         rule_pairs(w.spec.hierarchy->root_rule, b.shards);
}

/// Bytes one faulty agent's emit_into reads: the omniscient kernel makes two
/// passes over the honest rows (mean, then deviation); gradient-reverse reads
/// its own row.
long long fault_bytes(const std::string& kind, int honest_rows, int d) {
  const long long row = static_cast<long long>(d) * 8;
  return kind == "little-is-enough" ? 2LL * honest_rows * row : row;
}

struct Tracer {
  std::vector<Span> spans;

  int open_round(int round) {
    spans.push_back(Span{-1, round, -1, Clock::now(), {}});
    return static_cast<int>(spans.size()) - 1;
  }
  template <typename Fn>
  void phase(int round_span, Phase p, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    spans.push_back(Span{p, spans[static_cast<std::size_t>(round_span)].round, round_span, start,
                         Clock::now()});
  }
  void close_round(int round_span) {
    spans[static_cast<std::size_t>(round_span)].end = Clock::now();
  }
};

class Replay {
 public:
  explicit Replay(const Workload& w)
      : w_(w),
        box_(opt::Box::centered_cube(w.spec.dim, w.spec.box_halfwidth)),
        network_(w.spec.drop_probability, w.spec.seed ^ 0x5eedf00dULL),
        fault_kind_(w.spec.faults.empty() ? "" : w.spec.faults.front().kind) {
    const auto mask = sim::faulty_mask(w.roster);
    if (w.spec.async) {
      async_ = std::make_unique<engine::AsyncRoundEngine>(
          mask, w.spec.dim,
          engine::AsyncEngineConfig{w.spec.seed, w.spec.threads, w.spec.mode, w.spec.precision,
                                    *w.spec.async});
    } else {
      sync_ = std::make_unique<engine::RoundEngine>(
          mask, w.spec.dim,
          engine::RoundEngineConfig{w.spec.seed, w.spec.threads, w.spec.mode, w.spec.precision,
                                    w.spec.axes});
    }
  }

  /// One full run of spec.iterations rounds, phase by phase as
  /// DgdSimulation::run drives them; returns the estimate trace.
  std::vector<Vector> run(Tracer& tracer, Counts& counts) {
    counts = Counts{};
    if (sync_) {
      sync_->reset(w_.spec.f);
    } else {
      async_->reset(w_.spec.f);
    }
    std::vector<Vector> estimates;
    estimates.reserve(static_cast<std::size_t>(w_.spec.iterations) + 1);
    Vector x = box_.project(Vector(w_.spec.dim));
    estimates.push_back(x);
    for (int t = 0; t < w_.spec.iterations; ++t) {
      const int span = tracer.open_round(t);
      bool stepped = false;
      if (sync_) {
        stepped = sync_round(tracer, span, t, x, counts);
      } else {
        stepped = async_round(tracer, span, t, x, counts);
      }
      if (stepped) {
        tracer.phase(span, kUpdate, [&] {
          x = box_.project(x - w_.schedule->step(t) * filtered_);
        });
      } else {
        ++counts.held_rounds;
      }
      estimates.push_back(x);
      tracer.close_round(span);
    }
    if (sync_) counts.eliminated = sync_->eliminated_count();
    if (async_) counts.async = async_->stats();
    return estimates;
  }

 private:
  bool emit_fault(int agent, std::span<double> row, const attack::HonestRowsView& view,
                  const Vector& x, int t, util::Rng& rng) const {
    const auto& spec = w_.roster[static_cast<std::size_t>(agent)];
    if (spec.cost != nullptr) {
      spec.cost->gradient_into(x, row);
    } else {
      std::fill(row.begin(), row.end(), 0.0);
    }
    const attack::RowAttackContext context{x, row, view, t};
    return spec.fault->emit_into(row, context, rng);
  }

  void count_round(Counts& counts, int usable_f, int kept, int honest_rows, int faulty_rows) const {
    const int d = w_.spec.dim;
    counts.rows_kept += kept;
    counts.attack_bytes +=
        static_cast<long long>(faulty_rows) * fault_bytes(fault_kind_, honest_rows, d);
    if (usable_f < 0) return;
    counts.usable_f_min =
        counts.usable_f_min < 0 ? usable_f : std::min<long long>(counts.usable_f_min, usable_f);
    counts.bytes_in += static_cast<long long>(kept) * d * 8;
    counts.gram_pairs += gram_pairs(w_, kept, usable_f);
  }

  bool sync_round(Tracer& tracer, int span, int t, const Vector& x, Counts& counts) {
    auto& e = *sync_;
    tracer.phase(span, kBegin, [&] { e.begin_round(t); });
    tracer.phase(span, kProduce, [&] {
      e.emit_honest([&](int agent, std::span<double> out) {
        w_.roster[static_cast<std::size_t>(agent)].cost->gradient_into(x, out);
      });
    });
    tracer.phase(span, kEmit, [&] {
      e.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
        return emit_fault(agent, row, view, x, t, e.agent_rng(agent));
      });
    });
    tracer.phase(span, kDeliver, [&] {
      e.deliver([&](int agent, std::span<const double> payload, std::span<double> dst) {
        return network_.transmit_row(agent, t, payload, dst);
      });
    });
    const int usable_f =
        engine::usable_fault_bound(*w_.rule, w_.spec.f, e.current_f(), e.last_kept(),
                                   static_cast<int>(e.members().size()), e.roster_size());
    bool stepped = false;
    tracer.phase(span, kAggregate, [&] { stepped = e.aggregate(*w_.rule, filtered_); });
    count_round(counts, usable_f, e.last_kept(), static_cast<int>(e.honest_rows().size()),
                static_cast<int>(e.faulty_rows().size()));
    return stepped;
  }

  bool async_round(Tracer& tracer, int span, int t, const Vector& x, Counts& counts) {
    auto& e = *async_;
    tracer.phase(span, kBegin, [&] { e.begin_round(t); });
    tracer.phase(span, kProduce, [&] {
      e.emit_honest([&](int agent, std::span<double> out) {
        w_.roster[static_cast<std::size_t>(agent)].cost->gradient_into(x, out);
      });
    });
    tracer.phase(span, kEmit, [&] {
      e.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
        return emit_fault(agent, row, view, x, t, e.agent_rng(agent));
      });
    });
    tracer.phase(span, kCollect, [&] { e.collect(t); });
    const int n = e.roster_size();
    const int usable_f =
        engine::usable_fault_bound(*w_.rule, w_.spec.f, w_.spec.f, e.last_kept(), n, n);
    bool stepped = false;
    tracer.phase(span, kAggregate, [&] { stepped = e.aggregate(*w_.rule, filtered_); });
    count_round(counts, usable_f, e.last_kept(), static_cast<int>(e.starting_honest().size()),
                static_cast<int>(e.starting_faulty().size()));
    return stepped;
  }

  const Workload& w_;
  opt::Box box_;
  sim::SyncNetwork network_;
  std::string fault_kind_;  // every workload gives all its faulty agents one kind
  std::unique_ptr<engine::RoundEngine> sync_;
  std::unique_ptr<engine::AsyncRoundEngine> async_;
  Vector filtered_;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty() || spans.empty()) return;
  std::ofstream out(path);
  const auto origin = spans.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << (s.phase < 0 ? "round" : kPhaseNames[s.phase])
        << "\", \"round\": " << s.round << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << ns(s.start) << ", \"end_ns\": " << ns(s.end) << "}\n";
  }
}

// ----------------------------------------------------------------------------
// Runs
// ----------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::vector<Metric> end_to_end(const std::string& text, double seconds, Tally& tally,
                               std::ostream& info) {
  SetupStats setup;
  std::optional<sim::Trace> reference;
  ProgramLoop loop;
  for (int window = 0; window < kWindows; ++window) {
    setup.window(text, kSetupRepsPerWindow);
    const auto warm = warm_run(*setup.live, reference, tally);
    if (!warm) return {};
    if (!reference) reference = warm;
    if (!time_program(*setup.live, *reference, seconds / kWindows, tally, loop)) return {};
  }
  const double rss = peak_rss_mb();
  const auto result = scenario_parity(*setup.live, *reference, tally);
  if (!result) return {};
  info << "# e2e: runs=" << loop.runs << " rounds=" << loop.rounds
       << " latency_samples=" << loop.round_ms.size() << " setup_reps=" << setup.total_s.size()
       << "\n";
  return {{"rounds_per_s", median(loop.runs_per_s), "1/s"},
          {"round_ms_p50", quantile(loop.round_ms, 0.5), "ms"},
          {"round_ms_p90", quantile(loop.round_ms, 0.9), "ms"},
          {"setup_s", median(setup.total_s), "s"},
          {"peak_rss_mb", rss, "MB"},
          {"dist_to_honest_min",
           result->distance_to_reference.value_or(std::numeric_limits<double>::quiet_NaN()),
           "1"}};
}

std::vector<Metric> per_layer(const std::string& text, double seconds, Tally& tally,
                              const std::string& spans_out, std::ostream& info) {
  SetupStats setup;
  setup.window(text, kWindows * kSetupRepsPerWindow);
  Setup& s = *setup.live;
  const Workload& w = s.w;
  const int rounds = w.spec.iterations;
  const auto warm = warm_run(s, std::nullopt, tally);
  if (!warm) return {};
  const sim::Trace& reference = *warm;
  const auto result = scenario_parity(s, reference, tally);
  if (!result) return {};
  // Untraced program rounds/s over the first half, traced replay over the
  // second: their ratio is the tracing overhead.
  ProgramLoop untraced;
  if (!time_program(s, reference, seconds / 2, tally, untraced)) return {};

  Replay replay(w);
  Tracer tracer;
  Counts first;
  bool have_first = false;
  const auto check = [&](const std::vector<Vector>& estimates, const Counts& counts) {
    bool ok = bitwise_equal(estimates, reference.estimates);
    if (!have_first) {
      first = counts;
      have_first = true;
    }
    ok = ok && counts == first;
    tally.record(rounds, ok, "replay differs from the program trace");
  };
  try {  // warm-up replay, checked but not timed
    Counts counts;
    check(replay.run(tracer, counts), counts);
  } catch (const std::exception& e) {
    tally.record(rounds, false, e.what());
  }
  tracer.spans.clear();
  tracer.spans.reserve(static_cast<std::size_t>(rounds) * 64);
  double traced_wall_s = 0.0;
  long long traced_rounds = 0;
  std::vector<double> traced_runs_per_s;
  for (int runs = 0; runs == 0 || traced_wall_s < seconds / 2; ++runs) {
    try {
      Counts counts;
      const auto start = Clock::now();
      const auto estimates = replay.run(tracer, counts);
      const double wall_s = ms_between(start, Clock::now()) / 1e3;
      traced_wall_s += wall_s;
      traced_rounds += rounds;
      traced_runs_per_s.push_back(rounds / wall_s);
      check(estimates, counts);
    } catch (const std::exception& e) {
      tally.record(rounds, false, e.what());
      break;
    }
  }

  // Program-side cross-checks of the counts the replay reports.
  bool counts_ok = first.eliminated == result->eliminated_agents;
  if (result->async_stats) {
    const auto& a = *result->async_stats;
    counts_ok = counts_ok && a.quorum_fires == first.async.quorum_fires &&
                a.deadline_fires == first.async.deadline_fires &&
                a.late_rows == first.async.late_rows &&
                a.stale_dropped == first.async.stale_dropped;
  }
  agg::HierarchyBounds hb{0, 0, 0, 0, 0, 0, 0, 0.0};
  if (w.spec.hierarchy) {
    hb = static_cast<const agg::HierarchicalAggregator&>(*w.rule).bounds(w.spec.num_agents,
                                                                           w.spec.f);
    counts_ok = counts_ok && result->hierarchy_bounds &&
                result->hierarchy_bounds->tolerated_f == hb.tolerated_f &&
                result->hierarchy_bounds->f_leaf == hb.f_leaf &&
                result->hierarchy_bounds->f_root == hb.f_root;
  }
  tally.record(0, counts_ok, "replay counts differ from the program's");

  // Per-phase self times: a phase span has no children, so its self time is
  // its duration; shares are of the summed round-span time.
  std::vector<double> phase_ms[kPhases];
  double phase_total[kPhases] = {};
  double round_total = 0.0;
  for (const Span& sp : tracer.spans) {
    const double ms = ms_between(sp.start, sp.end);
    if (sp.phase < 0) {
      round_total += ms;
    } else {
      phase_ms[sp.phase].push_back(ms);
      phase_total[sp.phase] += ms;
    }
  }
  write_spans(spans_out, tracer.spans);

  const double untraced_rps = median(untraced.runs_per_s);
  const double traced_rps = median(traced_runs_per_s);
  info << "# trace: untraced_rounds=" << untraced.rounds << " traced_rounds=" << traced_rounds
       << " spans=" << tracer.spans.size() << " untraced_rps=" << untraced_rps
       << " traced_rps=" << traced_rps
       << " computed_from_shape=agg.bytes_in,agg.gram_pairs,attack.bytes_read\n";

  std::vector<Metric> m;
  for (int p = 0; p < kPhases; ++p) {
    m.push_back({std::string(kPhaseNames[p]) + ".self_ms_p50", median(phase_ms[p]), "ms"});
    m.push_back({std::string(kPhaseNames[p]) + ".share",
                 round_total > 0 ? phase_total[p] / round_total : 0.0, "ratio"});
  }
  const auto count = [](long long v) { return static_cast<double>(v); };
  m.push_back({"scenario.parse_ms", median(setup.parse_ms), "ms"});
  m.push_back({"scenario.build_ms", median(setup.build_ms), "ms"});
  m.push_back({"engine.construct_ms", median(setup.construct_ms), "ms"});
  m.push_back({"engine.rows_kept", count(first.rows_kept), "count"});
  m.push_back({"engine.usable_f", count(first.usable_f_min), "count"});
  m.push_back({"engine.held_rounds", count(first.held_rounds), "count"});
  m.push_back({"engine.eliminated", count(first.eliminated), "count"});
  m.push_back({"async.quorum_fires", count(first.async.quorum_fires), "count"});
  m.push_back({"async.deadline_fires", count(first.async.deadline_fires), "count"});
  m.push_back({"async.late_rows", count(first.async.late_rows), "count"});
  m.push_back({"async.stale_dropped", count(first.async.stale_dropped), "count"});
  m.push_back({"hier.shards", count(hb.shards), "count"});
  m.push_back({"hier.f_leaf", count(hb.f_leaf), "count"});
  m.push_back({"hier.f_root", count(hb.f_root), "count"});
  m.push_back({"hier.tolerated_f", count(hb.tolerated_f), "count"});
  m.push_back({"agg.bytes_in", count(first.bytes_in), "bytes"});
  m.push_back({"agg.gram_pairs", count(first.gram_pairs), "count"});
  m.push_back({"attack.bytes_read", count(first.attack_bytes), "bytes"});
  m.push_back({"agg.rank_cutoff", count(agg::detail::effective_rank_cutoff(agg::AggMode::fast)),
               "count"});
  m.push_back({"trace.overhead_share", 1.0 - traced_rps / untraced_rps, "ratio"});
  m.push_back({"trace.round_samples", count(traced_rounds), "count"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_round: " << e.what() << "\n";
    return 2;
  }
  const auto shape = workload_shape(args.workload, args.tiny);
  if (!shape) {
    std::cerr << "perfbench_round: unknown workload " << args.workload << "\n";
    return 2;
  }
  const std::string text = spec_json(args.workload, *shape, args.seed);

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << std::setprecision(6) << "# host: {\"nproc\": " << nproc
            << ", \"parallel_cores_spin\": " << parallel_cores(static_cast<int>(nproc))
            << ", \"march\": \"" << PERFBENCH_MARCH << "\", \"threads\": 1"
            << ", \"rank_cutoff\": " << agg::detail::effective_rank_cutoff(agg::AggMode::fast)
            << "}\n"
            << "# run: {\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
            << ", \"trace\": " << args.trace << ", \"tiny\": " << (args.tiny ? "true" : "false")
            << ", \"n\": " << shape->n << ", \"d\": " << shape->d << ", \"f\": " << shape->f
            << ", \"iterations\": " << shape->iterations << "}\n";

  Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace == 0 ? end_to_end(text, args.seconds, tally, std::cout)
                              : per_layer(text, args.seconds, tally, args.spans_out, std::cout);
  } catch (const std::exception& e) {
    tally.errors.push_back(e.what());
  }
  for (const auto& error : tally.errors) std::cout << "# error: " << error << "\n";
  if (metrics.empty()) {
    std::cerr << "perfbench_round: no measurement completed\n";
    return 1;
  }
  print_result(tally, metrics);
  return tally.failed == 0 && tally.errors.empty() ? 0 : 1;
}
