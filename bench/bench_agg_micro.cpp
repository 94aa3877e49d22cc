// Microbenchmarks of every gradient filter across (n, d) shapes, charting
// the per-round server cost — and comparing the naive reference rules the
// tests check against (tests/reference_rules.hpp) with the zero-allocation
// aggregate_into kernels in the same binary.
//
// The primary harness is built in (adaptive-iteration wall-clock timing) so
// the binary works without google-benchmark and always emits a
// machine-readable BENCH_agg.json:
//
//   {"meta": {"repeats": K},
//    "results": [{"rule", "path", "precision", "n", "d", "f", "ns_per_op",
//                 "iters"}, ...],
//    "speedups": {"<rule>/<n>x<d>": {"legacy_ns", "batched_ns", "speedup",
//                                    "fast_ns", "fast_speedup",
//                                    "f32_ns", "f32_speedup"}}}
//
// Paths: "legacy" (the reference rule), "batched" (aggregate_into, AggMode::exact),
// "fast" (aggregate_into, AggMode::fast — relaxed parity; measured at both
// precision "f64" and, for the rules with an f32 kernel, precision "f32"),
// and optionally "pooled" (see --threads).  fast_speedup is
// batched_ns / fast_ns: what the relaxed-parity mode buys over the exact
// batched kernels; f32_speedup is fast_ns / f32_ns: what demoting the
// bandwidth-bound kernels to float32 buys on top of that.
//
// Every measurement is the MINIMUM of --repeats independent adaptive
// timings (warm-up excluded from each), so the committed BENCH_agg.json
// carries stable minima for the bench_diff.py gates rather than one noisy
// sample.
//
// Flags:
//   --quick       small shapes only (CI smoke)
//   --out=FILE    JSON destination (default BENCH_agg.json)
//   --repeats=K   independent timing repetitions per cell, min-of-K
//                 reported (default 3)
//   --threads=N   additionally measure a "pooled" path: the batched kernels
//                 dispatching coordinate/pair work over a persistent
//                 N-thread ThreadPool (worthwhile on multi-core hosts only;
//                 the default 1 keeps the JSON shape diff-stable)
//   --gbench ...  delegate to google-benchmark instead (when compiled in)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"
#include "reference_rules.hpp"

#if defined(ABFT_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace abft;
using linalg::Vector;

std::vector<Vector> make_gradients(int n, int d, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vector> gradients;
  gradients.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<double> coeffs(static_cast<std::size_t>(d));
    for (auto& c : coeffs) c = rng.normal();
    gradients.emplace_back(std::move(coeffs));
  }
  return gradients;
}

struct BenchResult {
  std::string rule;
  std::string path;       // "legacy" | "batched" | "fast" | "pooled"
  std::string precision;  // "f64" | "f32" (f32 only on the fast path)
  int n = 0;
  int d = 0;
  int f = 0;
  double ns_per_op = 0.0;
  long iters = 0;
};

struct SpeedupEntry {
  double legacy_ns = 0.0;
  double batched_ns = 0.0;
  double fast_ns = 0.0;
  double f32_ns = 0.0;
};

/// Times fn() with adaptive iteration count: warm up once, then repeat until
/// both a minimum number of iterations and a minimum wall-clock budget are
/// met.  The clock is only read between mini-batches whose size doubles as
/// long as a batch stays under ~1/8 of the budget, so fast operations are
/// not inflated by per-iteration clock overhead.  Returns ns per call.
template <typename Fn>
double time_ns_per_op(Fn&& fn, long& iters_out, double min_seconds, long min_iters,
                      long max_iters) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: first-call allocations land outside the timed region
  long iters = 0;
  long batch = 1;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  double seconds = 0.0;
  do {
    const double before = seconds;
    for (long b = 0; b < batch; ++b) fn();
    iters += batch;
    seconds = elapsed();
    if (seconds - before < min_seconds / 8.0 && batch < max_iters) batch *= 2;
  } while (iters < max_iters && (iters < min_iters || seconds < min_seconds));
  iters_out = iters;
  return seconds * 1e9 / static_cast<double>(iters);
}

/// Min-of-K wrapper around time_ns_per_op: K independent adaptive timings
/// (each with its own warm-up call), reporting the fastest — the estimator
/// least contaminated by scheduler noise and frequency transitions on a
/// shared CI host.  iters_out reports the winning repetition's count.
template <typename Fn>
double min_ns_per_op(Fn&& fn, long& iters_out, double min_seconds, long min_iters,
                     long max_iters, int repeats) {
  double best = 0.0;
  long best_iters = 0;
  for (int r = 0; r < repeats; ++r) {
    long iters = 0;
    const double ns = time_ns_per_op(fn, iters, min_seconds, min_iters, max_iters);
    if (r == 0 || ns < best) {
      best = ns;
      best_iters = iters;
    }
  }
  iters_out = best_iters;
  return best;
}

struct Shape {
  int n;
  int d;
};

/// The rule's own precondition on (n, f) (krum: n > 2f + 2; bulyan:
/// n >= 4f + 3): shapes outside it are skipped.
bool runs(const agg::GradientAggregator& rule, int n, int f) {
  return f >= rule.min_usable_f() && f <= rule.max_usable_f(n);
}

int run_builtin(bool quick, const std::string& out_path, int threads, int repeats) {
  const std::vector<Shape> shapes =
      quick ? std::vector<Shape>{{10, 10}, {10, 100}, {25, 200}}
            : std::vector<Shape>{{10, 10}, {10, 1000}, {50, 100}, {100, 1000}, {50, 10000}};
  // Time budget per measurement: enough for stable numbers on the big
  // shapes without letting the O(n^2 d) rules blow up total runtime.
  const double min_seconds = quick ? 0.02 : 0.10;
  const long min_iters = 3;
  // Generous: min_seconds is the effective stop for fast operations, and
  // slow ones stop at min_iters; this only backstops a broken clock.
  const long max_iters = quick ? 1000000 : 10000000;

  std::vector<BenchResult> results;
  std::map<std::string, SpeedupEntry> speedup_pairs;

  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    const auto reference_rule = reference::rule(name);
    for (const auto shape : shapes) {
      const int n = shape.n;
      const int d = shape.d;
      const int f = std::max(1, n / 5);
      if (!runs(*rule, n, f)) continue;
      const auto gradients = make_gradients(n, d, 42);

      const std::string key =
          std::string(name) + "/" + std::to_string(n) + "x" + std::to_string(d);

      BenchResult legacy{std::string(name), "legacy", "f64", n, d, f, 0.0, 0};
      legacy.ns_per_op = min_ns_per_op(
          [&] {
            Vector out = reference_rule(gradients, f);
            // The result feeds the next model update in the real loop; fold
            // it into a sink so the call cannot be optimized away.
            volatile double sink = out[0];
            (void)sink;
          },
          legacy.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(legacy);

      agg::GradientBatch batch;
      batch.pack(gradients);
      agg::AggregatorWorkspace workspace;
      Vector out;
      BenchResult batched{std::string(name), "batched", "f64", n, d, f, 0.0, 0};
      batched.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, workspace);
            volatile double sink = out[0];
            (void)sink;
          },
          batched.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(batched);

      agg::AggregatorWorkspace fast_ws;
      fast_ws.mode = agg::AggMode::fast;
      BenchResult fast{std::string(name), "fast", "f64", n, d, f, 0.0, 0};
      fast.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, fast_ws);
            volatile double sink = out[0];
            (void)sink;
          },
          fast.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(fast);

      agg::AggregatorWorkspace f32_ws;
      f32_ws.mode = agg::AggMode::fast;
      f32_ws.precision = agg::Precision::f32;
      BenchResult f32{std::string(name), "fast", "f32", n, d, f, 0.0, 0};
      f32.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, f32_ws);
            volatile double sink = out[0];
            (void)sink;
          },
          f32.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(f32);

      speedup_pairs[key] = {legacy.ns_per_op, batched.ns_per_op, fast.ns_per_op,
                            f32.ns_per_op};
      std::cout << key << "  legacy " << static_cast<long>(legacy.ns_per_op)
                << " ns/op  batched " << static_cast<long>(batched.ns_per_op)
                << " ns/op  speedup " << legacy.ns_per_op / batched.ns_per_op << "x"
                << "  fast " << static_cast<long>(fast.ns_per_op) << " ns/op ("
                << batched.ns_per_op / fast.ns_per_op << "x vs exact)"
                << "  f32 " << static_cast<long>(f32.ns_per_op) << " ns/op ("
                << fast.ns_per_op / f32.ns_per_op << "x vs f64 fast)";
      if (threads > 1) {
        agg::ThreadPool pool(threads);
        agg::AggregatorWorkspace pooled_ws;
        pooled_ws.pool = &pool;
        BenchResult pooled{std::string(name), "pooled", "f64", n, d, f, 0.0, 0};
        pooled.ns_per_op = min_ns_per_op(
            [&] {
              rule->aggregate_into(out, batch, f, pooled_ws);
              volatile double sink = out[0];
              (void)sink;
            },
            pooled.iters, min_seconds, min_iters, max_iters, repeats);
        results.push_back(pooled);
        std::cout << "  pooled(" << threads << ") " << static_cast<long>(pooled.ns_per_op)
                  << " ns/op";
      }
      std::cout << "\n";
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"meta\": {\"repeats\": " << repeats << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"rule\": \"" << r.rule << "\", \"path\": \"" << r.path
         << "\", \"precision\": \"" << r.precision << "\", \"n\": " << r.n
         << ", \"d\": " << r.d << ", \"f\": " << r.f
         << ", \"ns_per_op\": " << r.ns_per_op << ", \"iters\": " << r.iters << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedups\": {\n";
  std::size_t written = 0;
  for (const auto& [key, entry] : speedup_pairs) {
    json << "    \"" << key << "\": {\"legacy_ns\": " << entry.legacy_ns
         << ", \"batched_ns\": " << entry.batched_ns
         << ", \"speedup\": " << entry.legacy_ns / entry.batched_ns
         << ", \"fast_ns\": " << entry.fast_ns
         << ", \"fast_speedup\": " << entry.batched_ns / entry.fast_ns
         << ", \"f32_ns\": " << entry.f32_ns
         << ", \"f32_speedup\": " << entry.fast_ns / entry.f32_ns << "}"
         << (++written < speedup_pairs.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";
  json.flush();
  if (!json) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

#if defined(ABFT_HAVE_GBENCH)
void aggregate_benchmark(benchmark::State& state, const std::string& name, bool batched) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const int f = std::max(1, n / 5);
  const auto rule = agg::make_aggregator(name);
  if (!runs(*rule, n, f)) {
    state.SkipWithError("f outside the rule's usable range");
    return;
  }
  const auto gradients = make_gradients(n, d, 42);
  if (batched) {
    agg::GradientBatch batch;
    batch.pack(gradients);
    agg::AggregatorWorkspace workspace;
    Vector out;
    for (auto _ : state) {
      rule->aggregate_into(out, batch, f, workspace);
      benchmark::DoNotOptimize(out);
    }
  } else {
    const auto reference_rule = reference::rule(name);
    for (auto _ : state) {
      benchmark::DoNotOptimize(reference_rule(gradients, f));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_all() {
  for (const auto name : agg::aggregator_names()) {
    for (const bool batched : {false, true}) {
      const std::string title =
          std::string(batched ? "batched" : "legacy") + "/" + std::string(name);
      auto* bench = benchmark::RegisterBenchmark(
          title.c_str(), [name = std::string(name), batched](benchmark::State& state) {
            aggregate_benchmark(state, name, batched);
          });
      bench->Args({10, 10})->Args({10, 1000})->Args({50, 100})->Args({100, 1000})->Args(
          {50, 10000});
    }
  }
}
#endif  // ABFT_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool use_gbench = false;
  int threads = 1;
  int repeats = 3;
  std::string out_path = "BENCH_agg.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--gbench") == 0) use_gbench = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) threads = std::atoi(argv[i] + 10);
    if (std::strncmp(argv[i], "--repeats=", 10) == 0) repeats = std::atoi(argv[i] + 10);
  }
  if (use_gbench) {
#if defined(ABFT_HAVE_GBENCH)
    register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
#else
    std::cerr << "google-benchmark not compiled in; using the built-in harness\n";
#endif
  }
  return run_builtin(quick, out_path, std::max(1, threads), std::max(1, repeats));
}
