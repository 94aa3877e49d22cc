// SyncNetwork edge cases and the driver behaviour they induce: a round in
// which every agent stays silent, certain loss (drop_probability = 1.0), and
// elimination shrinking the roster below the declared fault bound (the
// usable-f clamp).
#include <gtest/gtest.h>

#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/sim/network.hpp"

namespace {

using namespace abft;
using linalg::Vector;

// ----------------------------- network level --------------------------------

TEST(SyncNetworkEdge, CertainDropLosesEveryPayload) {
  sim::SyncNetwork network(1.0, 42);
  std::vector<double> payload{1.0, 2.0};
  std::vector<double> dst(2, 0.0);
  for (int round = 0; round < 20; ++round) {
    EXPECT_FALSE(network.transmit_row(0, round, payload, dst));
  }
  EXPECT_EQ(network.messages_sent(), 20);
  EXPECT_EQ(network.messages_dropped(), 20);
}

TEST(SyncNetworkEdge, SilentPayloadConsumesNoDropRandomness) {
  // An empty payload means the agent stayed silent: no drop coin may be
  // tossed, so the stream seen by later messages is identical whether or
  // not silent slots preceded them.
  sim::SyncNetwork with_silent(0.5, 7);
  sim::SyncNetwork without(0.5, 7);
  std::vector<double> payload{3.0};
  std::vector<double> dst(1, 0.0);
  std::vector<bool> a;
  std::vector<bool> b;
  for (int k = 0; k < 50; ++k) {
    with_silent.transmit_row(0, k, {}, dst);  // silent slot
    a.push_back(with_silent.transmit_row(1, k, payload, dst));
    b.push_back(without.transmit_row(1, k, payload, dst));
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(with_silent.messages_sent(), 100);
  EXPECT_EQ(without.messages_sent(), 50);
}

// ------------------------------ driver level --------------------------------

std::vector<opt::SquaredDistanceCost> centers(int n) {
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < n; ++i) {
    costs.emplace_back(Vector{0.9 * i - 2.0 + 0.07 * i * i, -0.4 * i + 1.1});
  }
  return costs;
}

TEST(SyncNetworkEdge, AllAgentsSilentRoundThrows) {
  // Step S1 eliminates every silent agent; a round that silences the whole
  // roster leaves nobody to aggregate and must fail loudly.
  auto costs = centers(4);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::SilentFault silent;
  auto roster = sim::honest_roster(ptrs);
  for (int i = 0; i < 4; ++i) sim::assign_fault(roster, i, silent);
  const opt::HarmonicSchedule schedule(0.4);
  sim::DgdConfig config{Vector{1.0, 1.0}, opt::Box::centered_cube(2, 10.0), &schedule, 5, 3, 1};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwmed");
  EXPECT_THROW(
      {
        try {
          simulation.run(*aggregator);
        } catch (const std::invalid_argument& error) {
          EXPECT_NE(std::string(error.what()).find("every agent was eliminated"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::invalid_argument);
}

TEST(SyncNetworkEdge, CertainDropEliminatesEveryoneInRoundZero) {
  auto costs = centers(5);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  auto roster = sim::honest_roster(ptrs);
  const opt::HarmonicSchedule schedule(0.4);
  sim::DgdConfig config{Vector{1.0, 1.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                        5,                0,
                        1,                1.0};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("average");
  EXPECT_THROW(simulation.run(*aggregator), std::invalid_argument);
}

TEST(SyncNetworkEdge, EliminationBelowDeclaredFClampsTheFilter) {
  // Declared f = 3 on n = 6, but four agents go silent in round 0: the
  // survivors (n = 2) cannot support f = 3, so the engine clamps the usable
  // f to what the rule tolerates (CWTM: n > 2f, so f = 0 at n = 2) and the
  // run completes instead of tripping the rule's precondition.
  auto costs = centers(6);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::SilentFault silent;
  auto roster = sim::honest_roster(ptrs);
  for (const int agent : {0, 2, 3, 5}) sim::assign_fault(roster, agent, silent);
  const opt::HarmonicSchedule schedule(0.4);
  sim::DgdConfig config{Vector{2.0, -2.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                        30,               3,
                        1};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwtm");
  const auto trace = simulation.run(*aggregator);
  EXPECT_EQ(trace.eliminated_agents, 4);
  EXPECT_EQ(trace.estimates.size(), 31u);
  // With the silent four gone the run is a clean 2-agent average descent:
  // it must make real progress toward the surviving agents' centroid.
  Vector centroid = 0.5 * (costs[1].center() + costs[4].center());
  EXPECT_LT(linalg::distance(trace.final_estimate(), centroid), 0.5);
}

TEST(SyncNetworkEdge, KrumBelowMinimumRosterHoldsPosition) {
  // Krum supports f = 2 on the full n = 7 roster (n > 2f + 2), but cannot
  // run at all on two gradients; once elimination shrinks the roster that
  // far, the engine holds position instead of throwing, and the trace stays
  // full-length.
  auto costs = centers(7);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::SilentFault silent;
  auto roster = sim::honest_roster(ptrs);
  for (const int agent : {1, 2, 4, 5, 6}) sim::assign_fault(roster, agent, silent);
  const opt::HarmonicSchedule schedule(0.4);
  sim::DgdConfig config{Vector{2.0, 2.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                        10,              2,
                        1};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("krum");
  const auto trace = simulation.run(*aggregator);
  EXPECT_EQ(trace.eliminated_agents, 5);
  ASSERT_EQ(trace.estimates.size(), 11u);
  // Every post-elimination round held position: the estimate never moved.
  for (std::size_t t = 1; t < trace.estimates.size(); ++t) {
    EXPECT_EQ(trace.estimates[t], trace.estimates[0]) << "iteration " << t;
  }
  EXPECT_EQ(trace.final_estimate(), trace.estimates.front());
}

// Regression: the membership-vs-current_f soundness check.  After honest
// churn shrinks the membership below what the rule needs for the adversaries
// known to remain, NO clamped budget is sound — the engine must hold, not
// run the filter weakened.
TEST(UsableFaultBound, ShrunkMembershipBelowAdversaryCountHolds) {
  const auto krum = agg::make_aggregator("krum");
  // Full roster: declared f = 2 is valid on n = 7 and runs as declared.
  EXPECT_EQ(engine::usable_fault_bound(*krum, 2, 2, 7, 7, 7), 2);
  // Honest churn down to 4 members: current_f = 2 > krum's cap at n = 4
  // (= 0), so the round holds.  (Was: clamped to 0 and ran weakened.)
  EXPECT_EQ(engine::usable_fault_bound(*krum, 2, 2, 4, 4, 7), -1);
  // Eliminations shrink current_f alongside the membership and keep running.
  EXPECT_EQ(engine::usable_fault_bound(*krum, 2, 0, 5, 5, 7), 0);
  // A merely thin round (stragglers) of an intact membership still clamps.
  EXPECT_EQ(engine::usable_fault_bound(*krum, 2, 2, 5, 7, 7), 1);
}

TEST(SyncNetworkEdge, HonestChurnBelowAdversaryCountHoldsPosition) {
  // Krum with declared f = 2 on n = 7, two gradient-reverse adversaries.
  // Three HONEST agents churn out at round 3: membership drops to 4 while
  // current_f stays 2 — krum at n = 4 tolerates 0 < 2 faults, so every
  // round from then on must hold position instead of running the filter
  // with a weaker budget than the adversaries present.
  auto costs = centers(7);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::GradientReverseFault reverse;
  auto roster = sim::honest_roster(ptrs);
  sim::assign_fault(roster, 5, reverse);
  sim::assign_fault(roster, 6, reverse);
  const opt::HarmonicSchedule schedule(0.4);
  sim::DgdConfig config{Vector{2.0, 2.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                        12,              2,
                        1};
  config.axes.churn = {{3, 0}, {3, 1}, {3, 2}};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("krum");
  const auto trace = simulation.run(*aggregator);
  EXPECT_EQ(trace.eliminated_agents, 0);
  EXPECT_EQ(trace.departed_agents, 3);
  ASSERT_EQ(trace.estimates.size(), 13u);
  // Rounds before the churn made real progress...
  EXPECT_NE(trace.estimates[3], trace.estimates[0]);
  // ...and every round from the churn on held position.
  for (std::size_t t = 4; t < trace.estimates.size(); ++t) {
    EXPECT_EQ(trace.estimates[t], trace.estimates[3]) << "iteration " << t;
  }
}

}  // namespace
