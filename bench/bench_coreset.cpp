// Coreset pre-reduction vs the flat and hierarchical baselines at scale:
// agg::CoresetReducer against the exact flat rule and the sharded tree
// (agg/hierarchy.hpp) on n = 10^4 .. 10^6 received gradients.  The coreset
// targets the Gram-based family — flat Krum is O(n^2 d), the reduced path is
// O(n k d) construction plus O(m^2 d) on the m = k + f weighted rows — so
// Krum is the headline rule; cwtm rides along to document honestly that the
// mean-like O(n d log n) rules do NOT benefit (construction dominates).
//
// Bench policy: d = 8, f = n/100, coreset size k = ceil(sqrt(n)).  The
// outlier budget carries z = f rows verbatim, so m = k + f and the fault
// fraction directly bounds the reduced problem: 1% keeps the weighted Gram
// kernel feasible at n = 10^6 (m = 11000), where bench_hier's n/20 would
// not.  The flat Krum baseline is the same self-checked O(n)-memory
// streaming kernel as bench_hier's, and past 10^5 it is not measured at all.
//
// Emits BENCH_coreset.json:
//
//   {"results": [{"rule", "path": "flat"|"coreset"|"coreset-construct"|
//                 "coreset-kernel"|"sample"|"sample-construct"|"hier",
//                 "precision": "f64"|"f32", "n", "d", "f", "ns_per_op",
//                 "iters"}, ...],
//    "comparisons": {"<rule>/<n>x<d>": {"flat_ns", "coreset_ns",
//                 "construct_ns", "kernel_ns", "coreset_f32_ns",
//                 "construct_f32_ns", "sample_ns",
//                 "sample_construct_ns", "hier_ns", "speedup_vs_flat",
//                 "speedup_vs_hier", "f32_construct_speedup", "drift_inf",
//                 "centers", "coreset_rows"}}}
//
// The "coreset"/"coreset-construct" rows are additionally measured at
// precision "f32" (the fast-mode float32 lane): the k-center construction
// is the memory-bandwidth-bound pass the f32 lane targets, so its
// f32-vs-f64 ratio is the headline number (f32_construct_speedup).
//
// The construct/kernel split makes the cost attributable: "*-construct"
// times CoresetReducer::reduce alone (the k-center / sampling pass), and
// "coreset-kernel" is total minus construction — the weighted-native rule on
// the m reduced rows (derived, iters 0).  A flat baseline that is infeasible
// at the shape (krum past 10^5) writes null, never 0, for flat_ns and
// speedup_vs_flat, so the nan-aware bench_diff.py gate treats it as absent.
//
// "results" matches the scripts/bench_diff.py schema, so the JSON slots into
// the warn-only regression gate next to BENCH_agg.json.  drift_inf is the
// price of reduction: ||coreset - flat||_inf on the same honest batch (for
// Krum both paths return a received row, so drift is the distance between
// two near-central rows, not a numerical error).
//
// Flags:
//   --quick       n = {10^3, 10^4} only (CI smoke)
//   --out=FILE    JSON destination (default BENCH_coreset.json)
//   --threads=N   dispatch hier shards and the blocked coreset construction
//                 over a persistent N-thread pool (default 1 keeps the JSON
//                 shape diff-stable; construction is bit-identical at every
//                 width by design)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/coreset.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using agg::GradientBatch;
using linalg::Vector;

void fill_batch(GradientBatch& batch, int n, int d, std::uint64_t seed) {
  util::Rng rng(seed);
  batch.reshape(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) batch.row(i)[j] = rng.normal();
  }
}

/// Exact flat Krum in O(n) memory (same kernel as bench_hier's baseline):
/// score_i = sum of the n - f - 2 smallest squared distances to the other
/// rows, output = the arg-min row, lowest index on ties.
Vector streaming_krum(const GradientBatch& batch, int f) {
  const int n = batch.rows();
  const int d = batch.cols();
  const int neighbors = n - f - 2;
  std::vector<double> distances(static_cast<std::size_t>(n) - 1);
  double best_score = std::numeric_limits<double>::infinity();
  int best = 0;
  for (int i = 0; i < n; ++i) {
    const auto row_i = batch.row(i);
    std::size_t k = 0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto row_j = batch.row(j);
      double dist = 0.0;
      for (int c = 0; c < d; ++c) {
        const double delta = row_i[c] - row_j[c];
        dist += delta * delta;
      }
      distances[k++] = dist;
    }
    std::nth_element(distances.begin(), distances.begin() + (neighbors - 1), distances.end());
    const double score =
        std::accumulate(distances.begin(), distances.begin() + neighbors, 0.0);
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return batch.unpack_row(best);
}

struct BenchResult {
  std::string rule;
  std::string path;       // "flat" | "coreset" | "hier"
  std::string precision;  // "f64" | "f32" (f32 only on the coreset rows)
  int n = 0;
  int d = 0;
  int f = 0;
  double ns_per_op = 0.0;
  long iters = 0;
};

struct Comparison {
  // NaN = flat not measured at this shape (serialized as null).
  double flat_ns = std::numeric_limits<double>::quiet_NaN();
  double coreset_ns = 0.0;
  double construct_ns = 0.0;  // k-center construction alone
  double kernel_ns = 0.0;     // total minus construction (derived)
  double coreset_f32_ns = 0.0;
  double construct_f32_ns = 0.0;  // f32-lane k-center construction
  double sample_ns = 0.0;
  double sample_construct_ns = 0.0;
  double hier_ns = 0.0;
  double drift_inf = 0.0;
  int centers = 0;
  int coreset_rows = 0;
};

/// Adaptive-iteration timer with min_iters = 1: a multi-second flat
/// aggregation at n = 10^5 must run exactly once, not three times.
template <typename Fn>
double time_ns_per_op(Fn&& fn, long& iters_out, double min_seconds) {
  using clock = std::chrono::steady_clock;
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
    if (seconds - before < min_seconds / 8.0) batch *= 2;
  } while (seconds < min_seconds);
  iters_out = iters;
  return seconds * 1e9 / static_cast<double>(iters);
}

/// bench_hier's committed shard policy, reused for the hier baseline.
int shard_count(int n) {
  const double s = std::cbrt(static_cast<double>(n) * n / 2.0);
  return std::min(4096, std::max(4, static_cast<int>(s)));
}

int run(bool quick, const std::string& out_path, int threads) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{1000, 10000} : std::vector<int>{10000, 100000, 1000000};
  const int d = 8;
  const double min_seconds = quick ? 0.02 : 0.05;
  const int flat_krum_limit = 100000;  // O(n^2 d): seconds at 10^5, hopeless past it

  // Self-check 1: the streaming Krum baseline against the library kernel.
  {
    GradientBatch batch;
    fill_batch(batch, 500, d, 7);
    const auto library = agg::make_aggregator("krum");
    agg::AggregatorWorkspace ws;
    Vector out;
    library->aggregate_into(out, batch, 25, ws);
    if (out != streaming_krum(batch, 25)) {
      std::cerr << "error: streaming krum baseline diverged from the library kernel\n";
      return 1;
    }
    // Self-check 2: a coreset that cannot shrink delegates bit-identically.
    const agg::CoresetReducer degenerate("krum", {500});
    agg::AggregatorWorkspace dws;
    Vector dout;
    degenerate.aggregate_into(dout, batch, 25, dws);
    if (dout != out) {
      std::cerr << "error: coreset_size >= n is not bit-identical to exact\n";
      return 1;
    }
  }

  agg::ThreadPool pool(std::max(1, threads));
  std::vector<BenchResult> results;
  std::vector<std::pair<std::string, Comparison>> comparisons;

  for (const int n : sizes) {
    const int f = n / 100;
    const int k = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
    const int shards = shard_count(n);
    const int f_leaf = std::max(1, (2 * f + shards - 1) / shards);
    GradientBatch batch;
    fill_batch(batch, n, d, 42);

    for (const std::string rule : {"cwtm", "krum"}) {
      const agg::CoresetReducer reducer(rule, {k});
      if (!reducer.would_reduce(n, f)) {
        std::cerr << "error: bench shape does not reduce at " << rule << " n=" << n << "\n";
        return 1;
      }
      const agg::HierarchicalAggregator hier({shards, rule, rule, f_leaf, 1234});
      if (hier.bounds(n, f).tolerated_f < f) {
        std::cerr << "error: shard policy does not cover f at " << rule << " n=" << n << "\n";
        return 1;
      }
      const std::string key = rule + "/" + std::to_string(n) + "x" + std::to_string(d);
      Comparison cmp;
      cmp.centers = k;
      cmp.coreset_rows = k + f;

      agg::AggregatorWorkspace cs_ws;
      cs_ws.pool = &pool;
      Vector cs_out;
      reducer.aggregate_into(cs_out, batch, f, cs_ws);  // untimed: warm allocation
      BenchResult cs_result{rule, "coreset", "f64", n, d, f, 0.0, 0};
      cs_result.ns_per_op = time_ns_per_op(
          [&] {
            reducer.aggregate_into(cs_out, batch, f, cs_ws);
            volatile double sink = cs_out[0];
            (void)sink;
          },
          cs_result.iters, min_seconds);
      results.push_back(cs_result);
      cmp.coreset_ns = cs_result.ns_per_op;

      // Construction alone (the k-center pass into the warm workspace); the
      // kernel share is the remainder of the total.
      BenchResult construct_result{rule, "coreset-construct", "f64", n, d, f, 0.0, 0};
      construct_result.ns_per_op = time_ns_per_op(
          [&] {
            const int m = reducer.reduce(batch, f, cs_ws);
            volatile int sink = m;
            (void)sink;
          },
          construct_result.iters, min_seconds);
      results.push_back(construct_result);
      cmp.construct_ns = construct_result.ns_per_op;
      cmp.kernel_ns = std::max(0.0, cs_result.ns_per_op - construct_result.ns_per_op);
      BenchResult kernel_result{rule, "coreset-kernel", "f64", n, d, f, cmp.kernel_ns, 0};
      results.push_back(kernel_result);

      // The same coreset path through the fast-mode f32 lane: demoted
      // col-major distance pass, f64 selection state.  Construction is the
      // bandwidth-bound share, so its ratio is the headline f32 number.
      agg::AggregatorWorkspace f32_ws;
      f32_ws.mode = agg::AggMode::fast;
      f32_ws.precision = agg::Precision::f32;
      f32_ws.pool = &pool;
      Vector f32_out;
      reducer.aggregate_into(f32_out, batch, f, f32_ws);  // untimed: warm allocation
      BenchResult f32_result{rule, "coreset", "f32", n, d, f, 0.0, 0};
      f32_result.ns_per_op = time_ns_per_op(
          [&] {
            reducer.aggregate_into(f32_out, batch, f, f32_ws);
            volatile double sink = f32_out[0];
            (void)sink;
          },
          f32_result.iters, min_seconds);
      results.push_back(f32_result);
      cmp.coreset_f32_ns = f32_result.ns_per_op;
      BenchResult f32_construct_result{rule, "coreset-construct", "f32", n, d, f, 0.0, 0};
      f32_construct_result.ns_per_op = time_ns_per_op(
          [&] {
            const int m = reducer.reduce(batch, f, f32_ws);
            volatile int sink = m;
            (void)sink;
          },
          f32_construct_result.iters, min_seconds);
      results.push_back(f32_construct_result);
      cmp.construct_f32_ns = f32_construct_result.ns_per_op;

      // The sampling reducer at the same budget k.
      const agg::CoresetReducer sampler(
          rule, {k, agg::CoresetConfig::Kind::sample, 0});
      agg::AggregatorWorkspace sm_ws;
      Vector sm_out;
      sampler.aggregate_into(sm_out, batch, f, sm_ws);  // untimed: warm allocation
      BenchResult sm_result{rule, "sample", "f64", n, d, f, 0.0, 0};
      sm_result.ns_per_op = time_ns_per_op(
          [&] {
            sampler.aggregate_into(sm_out, batch, f, sm_ws);
            volatile double sink = sm_out[0];
            (void)sink;
          },
          sm_result.iters, min_seconds);
      results.push_back(sm_result);
      cmp.sample_ns = sm_result.ns_per_op;
      BenchResult sm_construct_result{rule, "sample-construct", "f64", n, d, f, 0.0, 0};
      sm_construct_result.ns_per_op = time_ns_per_op(
          [&] {
            const int m = sampler.reduce(batch, f, sm_ws);
            volatile int sink = m;
            (void)sink;
          },
          sm_construct_result.iters, min_seconds);
      results.push_back(sm_construct_result);
      cmp.sample_construct_ns = sm_construct_result.ns_per_op;

      std::cout << key << "  coreset(k=" << k << ", m=" << cmp.coreset_rows << ") "
                << static_cast<long>(cs_result.ns_per_op) << " ns/op (construct "
                << static_cast<long>(cmp.construct_ns) << ")  f32 "
                << static_cast<long>(cmp.coreset_f32_ns) << " ns/op (construct "
                << static_cast<long>(cmp.construct_f32_ns) << ", "
                << cmp.construct_ns / cmp.construct_f32_ns << "x)  sample "
                << static_cast<long>(sm_result.ns_per_op) << " ns/op";

      agg::AggregatorWorkspace hier_ws;
      hier_ws.pool = &pool;
      Vector hier_out;
      hier.aggregate_into(hier_out, batch, f, hier_ws);
      BenchResult hier_result{rule, "hier", "f64", n, d, f, 0.0, 0};
      hier_result.ns_per_op = time_ns_per_op(
          [&] {
            hier.aggregate_into(hier_out, batch, f, hier_ws);
            volatile double sink = hier_out[0];
            (void)sink;
          },
          hier_result.iters, min_seconds);
      results.push_back(hier_result);
      cmp.hier_ns = hier_result.ns_per_op;
      std::cout << "  hier(S=" << shards << ") " << static_cast<long>(hier_result.ns_per_op)
                << " ns/op";

      Vector flat_out;
      bool have_flat = true;
      BenchResult flat_result{rule, "flat", "f64", n, d, f, 0.0, 0};
      if (rule == "krum" && n > flat_krum_limit) {
        have_flat = false;
      } else if (rule == "krum") {
        flat_out = streaming_krum(batch, f);
        flat_result.ns_per_op = time_ns_per_op(
            [&] {
              flat_out = streaming_krum(batch, f);
              volatile double sink = flat_out[0];
              (void)sink;
            },
            flat_result.iters, min_seconds);
      } else {
        const auto flat = agg::make_aggregator(rule);
        agg::AggregatorWorkspace flat_ws;
        flat->aggregate_into(flat_out, batch, f, flat_ws);
        flat_result.ns_per_op = time_ns_per_op(
            [&] {
              flat->aggregate_into(flat_out, batch, f, flat_ws);
              volatile double sink = flat_out[0];
              (void)sink;
            },
            flat_result.iters, min_seconds);
      }
      if (have_flat) {
        results.push_back(flat_result);
        cmp.flat_ns = flat_result.ns_per_op;
        for (int c = 0; c < d; ++c) {
          cmp.drift_inf = std::max(cmp.drift_inf, std::abs(cs_out[c] - flat_out[c]));
        }
        std::cout << "  flat " << static_cast<long>(flat_result.ns_per_op)
                  << " ns/op  speedup " << flat_result.ns_per_op / cs_result.ns_per_op
                  << "x  drift " << cmp.drift_inf;
      } else {
        std::cout << "  flat skipped (O(n^2 d) at n=" << n << ")";
      }
      std::cout << "\n";
      comparisons.emplace_back(key, cmp);
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"rule\": \"" << r.rule << "\", \"path\": \"" << r.path
         << "\", \"precision\": \"" << r.precision << "\", \"n\": " << r.n
         << ", \"d\": " << r.d << ", \"f\": " << r.f
         << ", \"ns_per_op\": " << r.ns_per_op << ", \"iters\": " << r.iters << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"comparisons\": {\n";
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const auto& [key, cmp] = comparisons[i];
    json << "    \"" << key << "\": {\"flat_ns\": ";
    util::write_json_number(json, cmp.flat_ns);  // NaN (flat infeasible) -> null
    json << ", \"coreset_ns\": " << cmp.coreset_ns << ", \"construct_ns\": "
         << cmp.construct_ns << ", \"kernel_ns\": " << cmp.kernel_ns
         << ", \"coreset_f32_ns\": " << cmp.coreset_f32_ns
         << ", \"construct_f32_ns\": " << cmp.construct_f32_ns
         << ", \"sample_ns\": " << cmp.sample_ns << ", \"sample_construct_ns\": "
         << cmp.sample_construct_ns << ", \"hier_ns\": " << cmp.hier_ns
         << ", \"speedup_vs_flat\": ";
    util::write_json_number(json, cmp.flat_ns / cmp.coreset_ns);
    json << ", \"speedup_vs_hier\": " << cmp.hier_ns / cmp.coreset_ns
         << ", \"f32_construct_speedup\": " << cmp.construct_ns / cmp.construct_f32_ns
         << ", \"drift_inf\": " << cmp.drift_inf << ", \"centers\": " << cmp.centers
         << ", \"coreset_rows\": " << cmp.coreset_rows << "}"
         << (i + 1 < comparisons.size() ? "," : "") << "\n";
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int threads = 1;
  std::string out_path = "BENCH_coreset.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) threads = std::atoi(argv[i] + 10);
  }
  return run(quick, out_path, threads);
}
