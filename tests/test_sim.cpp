// Unit tests for the synchronous DGD simulator: roster plumbing, network
// drop injection, the S1 elimination rule, projection onto W, observer
// callbacks, determinism, and trace series.
#include <gtest/gtest.h>

#include "abft/agg/average.hpp"
#include "abft/agg/cge.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/sim/analysis.hpp"
#include "abft/sim/dgd.hpp"

namespace {

using namespace abft;
using linalg::Vector;

struct TwoAgentFixture {
  opt::SquaredDistanceCost c0{Vector{0.0, 0.0}};
  opt::SquaredDistanceCost c1{Vector{2.0, 2.0}};
  opt::HarmonicSchedule schedule{0.5};

  [[nodiscard]] std::vector<sim::AgentSpec> roster() {
    return sim::honest_roster(std::vector<const opt::CostFunction*>{&c0, &c1});
  }

  [[nodiscard]] sim::DgdConfig config(int iterations) {
    return sim::DgdConfig{Vector{5.0, -5.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                          iterations, 0, 42};
  }
};

TEST(Roster, HonestAndByzantineIndices) {
  TwoAgentFixture fx;
  auto roster = fx.roster();
  const attack::ZeroFault fault;
  sim::assign_fault(roster, 1, fault);
  EXPECT_EQ(sim::honest_indices(roster), (std::vector<int>{0}));
  EXPECT_EQ(sim::byzantine_indices(roster), (std::vector<int>{1}));
  EXPECT_THROW(sim::assign_fault(roster, 5, fault), std::invalid_argument);
}

TEST(Roster, RejectsNullCosts) {
  EXPECT_THROW(sim::honest_roster(std::vector<const opt::CostFunction*>{nullptr}),
               std::invalid_argument);
}

TEST(Network, DropInjectionCountsMessages) {
  sim::SyncNetwork network(1.0, 7);  // drop everything
  const std::vector<double> payload{1.0};
  std::vector<double> dst{0.0};
  EXPECT_FALSE(network.transmit_row(0, 0, payload, dst));
  EXPECT_EQ(dst[0], 0.0);
  EXPECT_EQ(network.messages_sent(), 1);
  EXPECT_EQ(network.messages_dropped(), 1);
  EXPECT_THROW(sim::SyncNetwork(1.5, 0), std::invalid_argument);
}

TEST(Network, TranscriptRecordsWhenEnabled) {
  sim::SyncNetwork network(0.0, 0);
  network.record_transcript(true);
  const std::vector<double> payload{2.0};
  std::vector<double> dst{0.0};
  EXPECT_TRUE(network.transmit_row(3, 1, payload, dst));
  EXPECT_FALSE(network.transmit_row(4, 1, {}, dst));  // silent agent
  ASSERT_EQ(network.transcript().size(), 2u);
  EXPECT_EQ(network.transcript()[0].agent, 3);
  ASSERT_TRUE(network.transcript()[0].payload.has_value());
  EXPECT_EQ(*network.transcript()[0].payload, Vector{2.0});
  EXPECT_FALSE(network.transcript()[1].payload.has_value());
}

TEST(Dgd, FaultFreeConvergesToAggregateMinimum) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(300));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Aggregate of the two squared distances minimizes at the midpoint (1, 1).
  EXPECT_TRUE(linalg::approx_equal(trace.final_estimate(), Vector{1.0, 1.0}, 1e-3));
  EXPECT_EQ(trace.estimates.size(), 301u);
  EXPECT_EQ(trace.eliminated_agents, 0);
}

TEST(Dgd, EstimatesStayInsideBox) {
  TwoAgentFixture fx;
  const auto tight_box = opt::Box::centered_cube(2, 0.25);
  auto config = fx.config(50);
  config.box = tight_box;
  sim::DgdSimulation simulation(fx.roster(), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  for (const auto& x : trace.estimates) {
    EXPECT_TRUE(tight_box.contains(x, 1e-12));
  }
}

TEST(Dgd, DeterministicAcrossRuns) {
  TwoAgentFixture fx;
  const attack::RandomGaussianFault fault(10.0);
  auto make_trace = [&fx, &fault]() {
    auto roster = fx.roster();
    sim::assign_fault(roster, 1, fault);
    sim::DgdSimulation simulation(std::move(roster), fx.config(40));
    const agg::CgeAggregator cge;
    return simulation.run(cge);
  };
  const auto a = make_trace();
  const auto b = make_trace();
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    EXPECT_EQ(a.estimates[i], b.estimates[i]);
  }
}

TEST(Dgd, SilentAgentEliminatedAndRunContinues) {
  TwoAgentFixture fx;
  const attack::SilentFault fault;
  auto roster = fx.roster();
  sim::assign_fault(roster, 1, fault);
  auto config = fx.config(100);
  config.f = 1;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Eliminated exactly once (first round), after which only agent 0 remains:
  // convergence to agent 0's minimum (0, 0).
  EXPECT_EQ(trace.eliminated_agents, 1);
  EXPECT_TRUE(linalg::approx_equal(trace.final_estimate(), Vector{0.0, 0.0}, 1e-2));
}

TEST(Dgd, DropInjectionEliminatesHonestAgents) {
  TwoAgentFixture fx;
  auto config = fx.config(10);
  config.drop_probability = 1.0;  // every message lost -> everyone eliminated
  sim::DgdSimulation simulation(fx.roster(), std::move(config));
  const agg::AverageAggregator average;
  EXPECT_THROW(simulation.run(average), std::invalid_argument);
}

TEST(Dgd, ObserverSeesEveryRound) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(25));
  int calls = 0;
  simulation.set_observer([&calls](int round, const Vector&, const Vector&) {
    EXPECT_EQ(round, calls);
    ++calls;
  });
  const agg::AverageAggregator average;
  simulation.run(average);
  EXPECT_EQ(calls, 25);
}

TEST(Dgd, CustomHonestGradientFunction) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(10));
  // Constant pull toward -x halves the estimate each unit step.
  simulation.set_honest_gradient_fn(
      [](int /*agent*/, const Vector& x, int /*round*/) { return x; });
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // x_{t+1} = x_t (1 - eta_t) with eta_0 = 0.5 -> strictly decreasing norm.
  EXPECT_LT(trace.final_estimate().norm(), trace.estimates.front().norm());
}

TEST(Dgd, ValidatesConfiguration) {
  TwoAgentFixture fx;
  auto bad_schedule = fx.config(10);
  bad_schedule.schedule = nullptr;
  EXPECT_THROW(sim::DgdSimulation(fx.roster(), std::move(bad_schedule)), std::invalid_argument);

  auto bad_dim = fx.config(10);
  bad_dim.x0 = Vector{1.0};
  EXPECT_THROW(sim::DgdSimulation(fx.roster(), std::move(bad_dim)), std::invalid_argument);

  EXPECT_THROW(sim::DgdSimulation({}, fx.config(10)), std::invalid_argument);
}

TEST(Dgd, ByzantineAgentWithoutCostGetsZeroTrueGradient) {
  TwoAgentFixture fx;
  auto roster = fx.roster();
  const attack::GradientReverseFault fault;
  roster[1] = sim::AgentSpec{nullptr, &fault};  // no cost: true gradient = 0
  auto config = fx.config(400);
  config.f = 1;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Reversing a zero gradient sends zero; the run still contracts toward
  // agent 0's minimum (at half speed, since the filtered step is halved).
  EXPECT_LT(trace.final_estimate().norm(), 0.1 * trace.estimates.front().norm());
}

TEST(Dgd, TrajectoryInvariantUnderRosterPermutation) {
  // With a deterministic fault and a permutation-invariant filter the
  // trajectory must not depend on agent ordering.
  const opt::SquaredDistanceCost c0{Vector{0.0, 0.0}};
  const opt::SquaredDistanceCost c1{Vector{2.0, 2.0}};
  const opt::SquaredDistanceCost c2{Vector{-1.0, 3.0}};
  const attack::GradientReverseFault fault;
  const opt::HarmonicSchedule schedule(0.5);
  auto run_order = [&](std::vector<const opt::CostFunction*> costs, int faulty_at) {
    auto roster = sim::honest_roster(costs);
    sim::assign_fault(roster, faulty_at, fault);
    sim::DgdConfig config{Vector{4.0, -4.0}, opt::Box::centered_cube(2, 10.0), &schedule, 80, 1,
                          9};
    sim::DgdSimulation simulation(std::move(roster), std::move(config));
    const agg::AverageAggregator average;
    return simulation.run(average);
  };
  // c2 is the faulty agent in both orders.
  const auto a = run_order({&c0, &c1, &c2}, 2);
  const auto b = run_order({&c2, &c0, &c1}, 0);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    EXPECT_TRUE(linalg::approx_equal(a.estimates[t], b.estimates[t], 1e-12))
        << "diverged at iteration " << t;
  }
}

TEST(Analysis, SettlingIndexFindsPlateau) {
  const std::vector<double> series{10.0, 5.0, 2.0, 1.01, 1.0, 1.0, 1.0};
  EXPECT_EQ(sim::settling_index(series, 0.05), 3);
  EXPECT_EQ(sim::settling_index(series, 20.0), 0);  // everything within band
  EXPECT_THROW(sim::settling_index({}, 0.1), std::invalid_argument);
}

TEST(Analysis, TailMeanAveragesLastWindow) {
  const std::vector<double> series{100.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(sim::tail_mean(series, 2), 3.0);
  EXPECT_DOUBLE_EQ(sim::tail_mean(series, 10), (100.0 + 2.0 + 4.0) / 3.0);
  EXPECT_THROW(sim::tail_mean(series, 0), std::invalid_argument);
}

TEST(Analysis, DecreasingTrendDetection) {
  std::vector<double> decreasing;
  std::vector<double> increasing;
  for (int t = 0; t < 100; ++t) {
    decreasing.push_back(100.0 / (t + 1.0));
    increasing.push_back(static_cast<double>(t));
  }
  EXPECT_TRUE(sim::is_decreasing_trend(decreasing, 10));
  EXPECT_FALSE(sim::is_decreasing_trend(increasing, 10));
}

TEST(Analysis, DgdLossSeriesSettles) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(400));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  const opt::AggregateCost aggregate(
      std::vector<const opt::CostFunction*>{&fx.c0, &fx.c1});
  const auto losses = trace.loss_series(aggregate);
  EXPECT_TRUE(sim::is_decreasing_trend(losses, 20));
  EXPECT_LT(sim::settling_index(losses, 0.01), 200);
}

TEST(Trace, CsvExport) {
  sim::Trace trace;
  trace.estimates = {Vector{1.0, 2.0}, Vector{3.0, 4.0}};
  std::ostringstream os;
  trace.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("t,x0,x1"), std::string::npos);
  EXPECT_NE(out.find("0,1,2"), std::string::npos);
  EXPECT_NE(out.find("1,3,4"), std::string::npos);
  EXPECT_THROW(sim::Trace{}.write_csv(os), std::invalid_argument);
}

TEST(Trace, SeriesHelpers) {
  sim::Trace trace;
  trace.estimates = {Vector{0.0, 0.0}, Vector{1.0, 0.0}};
  const opt::SquaredDistanceCost cost(Vector{1.0, 0.0});
  const auto losses = trace.loss_series(cost);
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_DOUBLE_EQ(losses[0], 1.0);
  EXPECT_DOUBLE_EQ(losses[1], 0.0);
  const auto dists = trace.distance_series(Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(dists[1], 1.0);
  EXPECT_THROW((void)sim::Trace{}.final_estimate(), std::invalid_argument);
}

}  // namespace
