// Flat vs sharded-hierarchical aggregation at scale: the aggregate-of-
// aggregates tree (agg/hierarchy.hpp) against the flat registry rule on
// n = 10^4 .. 10^6 received gradients.  The point of the tree is the
// Gram-based rules — flat Krum is O(n^2 d) time and the library kernel is
// O(n^2) memory, so past ~10^4 rows the flat rule is measured through a
// bench-local O(n)-memory streaming reimplementation (self-checked against
// the library at small n) and past 10^5 it is not measured at all.
//
// Emits BENCH_hier.json:
//
//   {"results": [{"rule", "path": "flat"|"hier", "n", "d", "f",
//                 "ns_per_op", "iters"}, ...],
//    "comparisons": {"<rule>/<n>x<d>": {"flat_ns", "hier_ns", "speedup",
//                 "drift_inf", "shards", "f_leaf", "f_root", "tolerated_f",
//                 "resilience_margin"}}}
//
// "results" matches the scripts/bench_diff.py schema, so the JSON slots into
// the same regression gate as BENCH_agg.json.  drift_inf is the price of
// sharding: ||hier - flat||_inf on the same honest batch.  Per-level fault
// budgets follow the committed policy S ~ cbrt(n^2 / 2) (equalizes leaf and
// root Gram cost), f = n/20, f_leaf = ceil(2f / S) — which composes to
// tolerated_f >= f at every shape below, checked at startup.
//
// Flags:
//   --quick       n = {10^3, 10^4} only (CI smoke)
//   --out=FILE    JSON destination (default BENCH_hier.json)
//   --threads=N   dispatch hier shards over a persistent N-thread pool
//                 (default 1 keeps the JSON shape diff-stable)
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
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
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

/// Exact flat Krum in O(n) memory: score_i = sum of the n - f - 2 smallest
/// squared distances to the other rows, output = the arg-min row (lowest
/// index on ties) — the library's semantics without its O(n^2) distance
/// matrix, so the flat baseline can run at n = 10^5.
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
  std::string path;  // "flat" | "hier"
  int n = 0;
  int d = 0;
  int f = 0;
  double ns_per_op = 0.0;
  long iters = 0;
};

struct Comparison {
  double flat_ns = 0.0;  // 0 = flat not measured at this shape
  double hier_ns = 0.0;
  double drift_inf = 0.0;
  agg::HierarchyBounds bounds;
};

/// Adaptive-iteration timer like bench_agg_micro's, minus the warm-up call
/// and with min_iters = 1: a multi-second flat aggregation at n = 10^5 must
/// run exactly once, not three times plus warm-up.
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

/// The committed shard policy: S ~ cbrt(n^2 / 2) equalizes the leaf and root
/// Gram costs (n^2/S ~ S^2), capped so the root stays small.
int shard_count(int n) {
  const double s = std::cbrt(static_cast<double>(n) * n / 2.0);
  return std::min(4096, std::max(4, static_cast<int>(s)));
}

int run(bool quick, const std::string& out_path, int threads) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{1000, 10000} : std::vector<int>{10000, 100000, 1000000};
  const int d = 8;
  const double min_seconds = quick ? 0.02 : 0.05;
  // Flat Krum is O(n^2 d): ~seconds at 10^5 (measured once), hopeless at
  // 10^6 — the hier path is reported alone there.
  const int flat_krum_limit = 100000;

  // Self-check the streaming baseline against the library kernel once, at a
  // size where the O(n^2)-memory kernel is cheap.
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
  }

  agg::ThreadPool pool(std::max(1, threads));
  std::vector<BenchResult> results;
  std::vector<std::pair<std::string, Comparison>> comparisons;

  for (const int n : sizes) {
    const int f = n / 20;
    const int shards = shard_count(n);
    const int f_leaf = std::max(1, (2 * f + shards - 1) / shards);
    GradientBatch batch;
    fill_batch(batch, n, d, 42);

    for (const std::string rule : {"cwtm", "krum"}) {
      const agg::HierarchicalAggregator hier({shards, rule, rule, f_leaf, 1234});
      const auto bounds = hier.bounds(n, f);
      if (bounds.tolerated_f < f) {
        std::cerr << "error: shard policy does not cover f at " << rule << " n=" << n
                  << " (tolerated " << bounds.tolerated_f << " < " << f << ")\n";
        return 1;
      }
      const std::string key = rule + "/" + std::to_string(n) + "x" + std::to_string(d);
      Comparison cmp;
      cmp.bounds = bounds;

      agg::AggregatorWorkspace hier_ws;
      hier_ws.pool = &pool;
      Vector hier_out;
      hier.aggregate_into(hier_out, batch, f, hier_ws);  // untimed: drift + allocation
      BenchResult hier_result{rule, "hier", n, d, f, 0.0, 0};
      hier_result.ns_per_op = time_ns_per_op(
          [&] {
            hier.aggregate_into(hier_out, batch, f, hier_ws);
            volatile double sink = hier_out[0];
            (void)sink;
          },
          hier_result.iters, min_seconds);
      results.push_back(hier_result);
      cmp.hier_ns = hier_result.ns_per_op;

      std::cout << key << "  hier(S=" << shards << ") "
                << static_cast<long>(hier_result.ns_per_op) << " ns/op";

      Vector flat_out;
      bool have_flat = true;
      BenchResult flat_result{rule, "flat", n, d, f, 0.0, 0};
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
          cmp.drift_inf = std::max(cmp.drift_inf, std::abs(hier_out[c] - flat_out[c]));
        }
        std::cout << "  flat " << static_cast<long>(flat_result.ns_per_op)
                  << " ns/op  speedup " << flat_result.ns_per_op / hier_result.ns_per_op
                  << "x  drift " << cmp.drift_inf;
      } else {
        std::cout << "  flat skipped (O(n^2 d) at n=" << n << ")";
      }
      std::cout << "  tolerated_f " << bounds.tolerated_f << " (declared " << f << ")\n";
      comparisons.emplace_back(key, cmp);
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"rule\": \"" << r.rule << "\", \"path\": \"" << r.path
         << "\", \"n\": " << r.n << ", \"d\": " << r.d << ", \"f\": " << r.f
         << ", \"ns_per_op\": " << r.ns_per_op << ", \"iters\": " << r.iters << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"comparisons\": {\n";
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const auto& [key, cmp] = comparisons[i];
    json << "    \"" << key << "\": {\"flat_ns\": " << cmp.flat_ns
         << ", \"hier_ns\": " << cmp.hier_ns
         << ", \"speedup\": " << (cmp.flat_ns > 0.0 ? cmp.flat_ns / cmp.hier_ns : 0.0)
         << ", \"drift_inf\": " << cmp.drift_inf << ", \"shards\": " << cmp.bounds.shards
         << ", \"f_leaf\": " << cmp.bounds.f_leaf << ", \"f_root\": " << cmp.bounds.f_root
         << ", \"tolerated_f\": " << cmp.bounds.tolerated_f
         << ", \"resilience_margin\": " << cmp.bounds.resilience_margin << "}"
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
  std::string out_path = "BENCH_hier.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) threads = std::atoi(argv[i] + 10);
  }
  return run(quick, out_path, threads);
}
