// Thread-count invariance: with a fixed seed, every driver must produce
// bit-identical traces at agg_threads = 1 and agg_threads = 4.  The round
// loops parallelize honest-gradient computation, fault emission, the p2p
// per-source broadcasts and per-node filters, and the coordinate/pair loops
// inside the kernels — all of it over disjoint batch rows and per-agent rng
// streams, so the partition must never leak into the results.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/dolev_strong.hpp"
#include "abft/p2p/p2p_dgd.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"

namespace {

using namespace abft;
using linalg::Vector;

void expect_identical_traces(const sim::Trace& a, const sim::Trace& b, const char* label) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << label;
  EXPECT_EQ(a.eliminated_agents, b.eliminated_agents) << label;
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    ASSERT_EQ(a.estimates[t], b.estimates[t]) << label << ": diverged at iteration " << t;
  }
}

// --------------------------- server-based DGD -------------------------------

/// A mixed roster: honest quadratic agents, an omniscient fault (reads every
/// honest row), an rng-consuming fault, and a silent one (exercises
/// elimination + ingest compaction), plus network drop injection.
sim::Trace run_dgd(std::string_view rule, int agg_threads) {
  static const opt::HarmonicSchedule schedule(0.4);
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < 11; ++i) {
    Vector center{1.0 * i - 4.0, 0.5 * i, -0.25 * i};
    costs.emplace_back(center);
  }
  std::vector<const opt::CostFunction*> cost_ptrs;
  for (const auto& c : costs) cost_ptrs.push_back(&c);
  auto roster = sim::honest_roster(cost_ptrs);
  const attack::LittleIsEnoughFault omniscient(1.2);
  const attack::RandomGaussianFault gaussian(50.0);
  const attack::SilentFault silent;
  sim::assign_fault(roster, 2, omniscient);
  sim::assign_fault(roster, 5, gaussian);
  sim::assign_fault(roster, 7, silent);

  // f = 2 with drop injection: the silent agent's elimination lowers f to 1
  // in round 0 and every subsequent drop lowers it further, so krum's
  // n > 2f + 2 precondition holds along the whole shrinking run.
  sim::DgdConfig config{Vector{3.0, -3.0, 1.0},
                        opt::Box::centered_cube(3, 50.0),
                        &schedule,
                        60,
                        2,
                        1234,
                        0.02,
                        false,
                        agg_threads};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator(rule);
  return simulation.run(*aggregator);
}

TEST(Determinism, DgdThreadCountInvariant) {
  for (const auto rule : {"cwtm", "krum", "geomed", "cge"}) {
    const auto serial = run_dgd(rule, 1);
    const auto parallel = run_dgd(rule, 4);
    expect_identical_traces(serial, parallel, rule);
  }
}

TEST(Determinism, DgdRepeatedParallelRunsIdentical) {
  const auto a = run_dgd("cwtm", 4);
  const auto b = run_dgd("cwtm", 4);
  expect_identical_traces(a, b, "cwtm repeat");
}

// --------------------------- D-SGD ------------------------------------------

learn::DsgdSeries run_dsgd(int agg_threads) {
  learn::SyntheticOptions options;
  options.num_classes = 3;
  options.feature_dim = 6;
  options.examples_per_class = 30;
  options.noise_stddev = 0.3;
  util::Rng data_rng(31);
  const auto full = learn::make_synthetic(options, data_rng);
  util::Rng split_rng(32);
  auto split = learn::split_train_test(full, 0.2, split_rng);
  util::Rng shard_rng(33);
  const auto shards = learn::shard(split.train, 8, shard_rng);
  std::vector<learn::AgentFault> faults(8, learn::AgentFault::kHonest);
  faults[0] = learn::AgentFault::kGradientReverse;
  faults[3] = learn::AgentFault::kLabelFlip;

  const learn::SoftmaxRegression model(options.feature_dim, options.num_classes);
  learn::DsgdConfig config;
  config.iterations = 50;
  config.batch_size = 8;
  config.step_size = 0.05;
  config.f = 2;
  config.eval_interval = 10;
  config.momentum = 0.5;
  config.seed = 88;
  config.agg_threads = agg_threads;
  const auto aggregator = agg::make_aggregator("cwtm");
  return learn::run_dsgd(model, Vector(model.param_dim()), shards, faults, split.test,
                         *aggregator, config);
}

TEST(Determinism, DsgdThreadCountInvariant) {
  const auto serial = run_dsgd(1);
  const auto parallel = run_dsgd(4);
  EXPECT_EQ(serial.final_params, parallel.final_params);
  EXPECT_EQ(serial.train_loss, parallel.train_loss);
  EXPECT_EQ(serial.test_accuracy, parallel.test_accuracy);
  EXPECT_EQ(serial.eval_iterations, parallel.eval_iterations);
}

// --------------------------- peer-to-peer DGD -------------------------------

p2p::P2pDgdResult run_p2p(int agg_threads, bool authenticated) {
  static const regress::RegressionProblem problem = regress::RegressionProblem::paper_instance();
  static const opt::HarmonicSchedule schedule(1.5);
  auto roster = sim::honest_roster(problem.costs());
  const attack::GradientReverseFault fault;
  sim::assign_fault(roster, 0, fault);
  p2p::P2pDgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                           40,  1,           5,
                           agg_threads};
  const auto aggregator = agg::make_aggregator("cge");
  if (authenticated) {
    const p2p::EquivocatingDsStrategy equivocate(20.0, 0.5);
    return p2p::run_p2p_dgd_authenticated(roster, config, *aggregator, &equivocate);
  }
  const p2p::EquivocateStrategy equivocate(50.0);
  return p2p::run_p2p_dgd(roster, config, *aggregator, &equivocate);
}

TEST(Determinism, P2pThreadCountInvariant) {
  for (const bool authenticated : {false, true}) {
    const auto serial = run_p2p(1, authenticated);
    const auto parallel = run_p2p(4, authenticated);
    EXPECT_EQ(serial.broadcast_messages, parallel.broadcast_messages);
    ASSERT_EQ(serial.traces.size(), parallel.traces.size());
    for (std::size_t k = 0; k < serial.traces.size(); ++k) {
      expect_identical_traces(serial.traces[k], parallel.traces[k],
                              authenticated ? "p2p-auth" : "p2p-om");
    }
  }
}

// --------------------------- omniscient rosters -----------------------------

/// Honest quadratic agents plus six omniscient faults of all three kinds
/// (two each of little-is-enough, mean-reverse and mimic-smallest), which
/// share each round's honest-moments memo.  d = 130 spans two of the
/// memo's 128-coordinate blocks.
struct OmniscientRoster {
  static constexpr int kDim = 130;
  std::vector<opt::SquaredDistanceCost> costs;
  const attack::LittleIsEnoughFault lie{1.1};
  const attack::MeanReverseFault reverse{1.5};
  const attack::MimicSmallestFault mimic;
  std::vector<sim::AgentSpec> roster;

  explicit OmniscientRoster(int n) {
    util::Rng rng(77);
    for (int i = 0; i < n; ++i) {
      Vector center(kDim);
      for (int k = 0; k < kDim; ++k) center[k] = rng.normal(0.5 * (i % 5), 2.0);
      costs.emplace_back(center);
    }
    std::vector<const opt::CostFunction*> cost_ptrs;
    for (const auto& c : costs) cost_ptrs.push_back(&c);
    roster = sim::honest_roster(cost_ptrs);
    const std::array<const attack::FaultModel*, 3> kinds{&lie, &reverse, &mimic};
    for (int b = 0; b < 6; ++b) {
      sim::assign_fault(roster, 1 + 3 * b, *kinds[static_cast<std::size_t>(b) % kinds.size()]);
    }
  }
};

sim::Trace run_omniscient_dgd(int agg_threads, bool async) {
  static const opt::HarmonicSchedule schedule(0.4);
  OmniscientRoster fx(22);
  sim::DgdConfig config{Vector(OmniscientRoster::kDim),
                        opt::Box::centered_cube(OmniscientRoster::kDim, 50.0),
                        &schedule,
                        async ? 80 : 30,
                        6,
                        4321};
  config.agg_threads = agg_threads;
  if (async) {
    engine::AsyncConfig a;
    a.quorum = 15;
    a.staleness_cap = 2;
    a.arrival.kind = "exponential";
    a.arrival.scale = 0.7;
    config.async = a;
  }
  sim::DgdSimulation simulation(std::move(fx.roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwtm");
  return simulation.run(*aggregator);
}

TEST(Determinism, OmniscientDgdThreadCountInvariant) {
  for (const bool async : {false, true}) {
    const auto serial = run_omniscient_dgd(1, async);
    const auto parallel = run_omniscient_dgd(4, async);
    expect_identical_traces(serial, parallel, async ? "omniscient async" : "omniscient dgd");
  }
}

TEST(Determinism, OmniscientP2pThreadCountInvariant) {
  // Authenticated broadcast: n = 20 > 2f at f = 6 (Oral Messages would need
  // n > 3f and f + 1 = 7 recursion levels).
  static const opt::HarmonicSchedule schedule(0.4);
  const auto run = [](int agg_threads) {
    OmniscientRoster fx(20);
    p2p::P2pDgdConfig config{Vector(OmniscientRoster::kDim),
                             opt::Box::centered_cube(OmniscientRoster::kDim, 50.0),
                             &schedule,
                             8,
                             6,
                             99,
                             agg_threads};
    const auto aggregator = agg::make_aggregator("cwtm");
    return p2p::run_p2p_dgd_authenticated(fx.roster, config, *aggregator);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.broadcast_messages, parallel.broadcast_messages);
  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  for (std::size_t k = 0; k < serial.traces.size(); ++k) {
    expect_identical_traces(serial.traces[k], parallel.traces[k], "omniscient p2p");
  }
}

// --------------------------- kernel level -----------------------------------

TEST(Determinism, BatchedKernelsThreadCountInvariant) {
  // Every registry rule, pooled 4-thread workspace vs serial workspace, on
  // an adversarially clustered batch (exercises the Gram cancellation guard).
  util::Rng rng(4242);
  const int n = 24;
  const int d = 257;  // odd tail exercises the chunked kernels' remainders
  agg::GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    auto row = batch.row(i);
    for (int k = 0; k < d; ++k) {
      row[static_cast<std::size_t>(k)] = 100.0 + rng.normal(0.0, i < n / 2 ? 1e-4 : 1.0);
    }
  }
  agg::ThreadPool pool(4);
  for (const auto name : agg::aggregator_names()) {
    const auto aggregator = agg::make_aggregator(name);
    agg::AggregatorWorkspace serial_ws;
    agg::AggregatorWorkspace pooled_ws;
    pooled_ws.pool = &pool;
    Vector serial_out;
    Vector pooled_out;
    aggregator->aggregate_into(serial_out, batch, 5, serial_ws);
    aggregator->aggregate_into(pooled_out, batch, 5, pooled_ws);
    EXPECT_EQ(serial_out, pooled_out) << name;
  }
}

}  // namespace
