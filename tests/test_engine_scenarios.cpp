// Scenario-axis coverage: partial participation, straggler schedules and
// mid-run churn, exercised with fixed seeds on every driver (server-based
// DGD, D-SGD, peer-to-peer DGD).  Each axis test checks the semantics that
// distinguish it from the others:
//   participation — the agent skips the round; never eliminated, the
//                   trajectory changes, and stragglers' rng streams differ
//   straggler     — the message is lost but the agent is NOT eliminated
//                   (step S1 does not apply to late messages)
//   churn         — a permanent departure counted separately from
//                   elimination; a faulty departure shrinks the usable f
// plus thread-count invariance and run-to-run determinism for each.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/p2p_dgd.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"

namespace {

using namespace abft;
using linalg::Vector;

void expect_identical_traces(const sim::Trace& a, const sim::Trace& b, const char* label) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << label;
  EXPECT_EQ(a.eliminated_agents, b.eliminated_agents) << label;
  EXPECT_EQ(a.departed_agents, b.departed_agents) << label;
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    ASSERT_EQ(a.estimates[t], b.estimates[t]) << label << ": diverged at iteration " << t;
  }
}

// ------------------------------ RoundPlanner --------------------------------

TEST(RoundPlanner, DefaultAxesAreNoOp) {
  engine::ScenarioAxes axes;
  EXPECT_FALSE(axes.enabled());
  engine::RoundPlanner planner(axes, 5);
  for (int t = 0; t < 3; ++t) {
    planner.begin_round(t);
    EXPECT_TRUE(planner.churned_this_round().empty());
    for (int a = 0; a < 5; ++a) {
      EXPECT_TRUE(planner.participates(a));
      EXPECT_FALSE(planner.straggles(a));
    }
  }
}

TEST(RoundPlanner, ChurnFiresOnceInRoundOrderAndCatchesUp) {
  engine::ScenarioAxes axes;
  axes.churn = {{4, 2}, {1, 0}, {4, 3}};
  EXPECT_TRUE(axes.enabled());
  engine::RoundPlanner planner(axes, 5);
  // A 1-based driver (D-SGD) starts at round 1: the round-1 event fires.
  planner.begin_round(1);
  ASSERT_EQ(planner.churned_this_round().size(), 1u);
  EXPECT_EQ(planner.churned_this_round()[0], 0);
  planner.begin_round(2);
  EXPECT_TRUE(planner.churned_this_round().empty());
  planner.begin_round(5);  // skipped past round 4: both events catch up
  ASSERT_EQ(planner.churned_this_round().size(), 2u);
  EXPECT_EQ(planner.churned_this_round()[0], 2);
  EXPECT_EQ(planner.churned_this_round()[1], 3);
}

TEST(RoundPlanner, RejectsBadAxes) {
  engine::ScenarioAxes zero_participation;
  zero_participation.participation = 0.0;
  EXPECT_THROW(engine::RoundPlanner(zero_participation, 3), std::invalid_argument);
  engine::ScenarioAxes certain_straggle;
  certain_straggle.straggler_probability = 1.0;
  EXPECT_THROW(engine::RoundPlanner(certain_straggle, 3), std::invalid_argument);
  engine::ScenarioAxes bad_agent;
  bad_agent.churn = {{0, 7}};
  EXPECT_THROW(engine::RoundPlanner(bad_agent, 3), std::invalid_argument);
}

// --------------------------- server-based DGD -------------------------------

sim::Trace run_dgd(const engine::ScenarioAxes& axes, int agg_threads,
                   std::vector<opt::SquaredDistanceCost>& costs) {
  static const opt::HarmonicSchedule schedule(0.4);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  static const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(ptrs);
  sim::assign_fault(roster, static_cast<int>(costs.size()) - 1, fault);
  sim::DgdConfig config{Vector{8.0, -8.0}, opt::Box::centered_cube(2, 20.0), &schedule,
                        40,                1,
                        77,                0.0,
                        false,             agg_threads};
  config.axes = axes;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwtm");
  return simulation.run(*aggregator);
}

std::vector<opt::SquaredDistanceCost> quadratic_costs() {
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < 7; ++i) {
    costs.emplace_back(Vector{1.37 * i - 3.1 + 0.211 * i * i, 0.53 * i - 1.45 - 0.097 * i * i});
  }
  return costs;
}

TEST(DgdScenario, PartialParticipationPerturbsWithoutEliminating) {
  auto costs = quadratic_costs();
  const auto baseline = run_dgd({}, 1, costs);
  engine::ScenarioAxes axes;
  axes.participation = 0.6;
  axes.perturbation_seed = 9001;
  const auto perturbed = run_dgd(axes, 1, costs);
  ASSERT_EQ(perturbed.estimates.size(), baseline.estimates.size());
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  EXPECT_EQ(perturbed.departed_agents, 0);
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  // Seeded: repeatable, and bit-identical at every thread count.
  expect_identical_traces(perturbed, run_dgd(axes, 1, costs), "dgd participation repeat");
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd participation threads");
}

TEST(DgdScenario, StragglersAreLostButNeverEliminated) {
  auto costs = quadratic_costs();
  const auto baseline = run_dgd({}, 1, costs);
  engine::ScenarioAxes axes;
  axes.straggler_probability = 0.4;
  axes.perturbation_seed = 31337;
  const auto perturbed = run_dgd(axes, 1, costs);
  // A straggled message is late, not missing: step S1 must not fire.
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  ASSERT_EQ(perturbed.estimates.size(), baseline.estimates.size());
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd straggler threads");
}

TEST(DgdScenario, ChurnDepartsWithoutElimination) {
  auto costs = quadratic_costs();
  engine::ScenarioAxes axes;
  axes.churn = {{5, 1}, {12, 6}};  // honest agent 1, then the faulty agent
  const auto perturbed = run_dgd(axes, 1, costs);
  EXPECT_EQ(perturbed.departed_agents, 2);
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  const auto baseline = run_dgd({}, 1, costs);
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd churn threads");
}

// --------------------------------- D-SGD ------------------------------------

learn::DsgdSeries run_dsgd(const engine::ScenarioAxes& axes, int agg_threads) {
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

  const learn::SoftmaxRegression model(options.feature_dim, options.num_classes);
  learn::DsgdConfig config;
  config.iterations = 30;
  config.batch_size = 8;
  config.step_size = 0.05;
  config.f = 1;
  config.eval_interval = 10;
  config.momentum = 0.5;
  config.seed = 88;
  config.agg_threads = agg_threads;
  config.axes = axes;
  const auto aggregator = agg::make_aggregator("cwtm");
  return learn::run_dsgd(model, Vector(model.param_dim()), shards, faults, split.test,
                         *aggregator, config);
}

TEST(DsgdScenario, PartialParticipationPerturbsDeterministically) {
  const auto baseline = run_dsgd({}, 1);
  engine::ScenarioAxes axes;
  axes.participation = 0.7;
  axes.perturbation_seed = 404;
  const auto perturbed = run_dsgd(axes, 1);
  EXPECT_NE(perturbed.final_params, baseline.final_params);
  const auto repeat = run_dsgd(axes, 1);
  EXPECT_EQ(perturbed.final_params, repeat.final_params);
  EXPECT_EQ(perturbed.train_loss, repeat.train_loss);
  const auto threaded = run_dsgd(axes, 4);
  EXPECT_EQ(perturbed.final_params, threaded.final_params);
}

TEST(DsgdScenario, StragglerAdvancesTheSamplingStreamParticipationDoesNot) {
  // Same coin stream (same perturbation seed and probability), different
  // axis: the excluded-agent sets per round coincide, so any divergence
  // comes from the semantic difference — a straggler still samples its
  // mini-batch and updates its momentum, a non-participant does neither.
  engine::ScenarioAxes participation;
  participation.participation = 0.7;
  participation.perturbation_seed = 777;
  engine::ScenarioAxes straggler;
  straggler.straggler_probability = 0.3;  // = 1 - participation: same coins
  straggler.perturbation_seed = 777;
  const auto out = run_dsgd(participation, 1);
  const auto late = run_dsgd(straggler, 1);
  EXPECT_NE(out.final_params, late.final_params);
  const auto threaded = run_dsgd(straggler, 4);
  EXPECT_EQ(late.final_params, threaded.final_params);
}

TEST(DsgdScenario, ChurnedAgentLeavesTheSeries) {
  engine::ScenarioAxes axes;
  axes.churn = {{10, 3}, {20, 0}};  // honest agent 3, then the faulty agent
  const auto perturbed = run_dsgd(axes, 1);
  EXPECT_EQ(perturbed.departed_agents, 2);
  const auto baseline = run_dsgd({}, 1);
  EXPECT_NE(perturbed.final_params, baseline.final_params);
  const auto threaded = run_dsgd(axes, 4);
  EXPECT_EQ(perturbed.final_params, threaded.final_params);
}

// ----------------------------- peer-to-peer ---------------------------------

p2p::P2pDgdResult run_p2p(const engine::ScenarioAxes& axes, int agg_threads) {
  static const regress::RegressionProblem problem = regress::RegressionProblem::paper_instance();
  static const opt::HarmonicSchedule schedule(1.5);
  auto roster = sim::honest_roster(problem.costs());
  static const attack::GradientReverseFault fault;
  sim::assign_fault(roster, 0, fault);
  p2p::P2pDgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                           30,  1,           5,
                           agg_threads};
  config.axes = axes;
  const auto aggregator = agg::make_aggregator("cwtm");
  return p2p::run_p2p_dgd(roster, config, *aggregator);
}

TEST(P2pScenario, StragglingSourcePreservesHonestAgreement) {
  engine::ScenarioAxes axes;
  axes.straggler_probability = 0.3;
  axes.perturbation_seed = 5150;
  const auto result = run_p2p(axes, 1);
  // A straggled broadcast misses the round for EVERY receiver, so all honest
  // nodes still filter the same multiset and remain in lockstep.
  ASSERT_GE(result.traces.size(), 2u);
  for (std::size_t k = 1; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[0], result.traces[k], "p2p straggler agreement");
  }
  EXPECT_EQ(result.eliminated_agents, 0);
  const auto baseline = run_p2p({}, 1);
  EXPECT_NE(result.traces[0].final_estimate(), baseline.traces[0].final_estimate());
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p straggler threads");
  }
}

TEST(P2pScenario, PartialParticipationBreaksLockstepDeterministically) {
  engine::ScenarioAxes axes;
  axes.participation = 0.75;
  axes.perturbation_seed = 62;
  const auto result = run_p2p(axes, 1);
  // Trace lengths stay uniform (a sitting-out node holds position and still
  // records), but the estimates drift apart across nodes by design.
  const auto baseline = run_p2p({}, 1);
  for (const auto& trace : result.traces) {
    EXPECT_EQ(trace.estimates.size(), baseline.traces[0].estimates.size());
  }
  bool diverged = false;
  for (std::size_t k = 1; k < result.traces.size() && !diverged; ++k) {
    diverged = !(result.traces[0].final_estimate() == result.traces[k].final_estimate());
  }
  EXPECT_TRUE(diverged) << "partial participation should desynchronize honest nodes";
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p participation threads");
  }
}

TEST(P2pScenario, StragglingFaultySourceStillAdvancesItsRngStream) {
  // Straggler semantics are identical across drivers: the message is late,
  // not unsent, so a stochastic fault keeps drawing from its stream.  With
  // the same perturbation coins, a straggler run and a participation run
  // must therefore diverge (under participation the absent fault never
  // draws), and the straggler run stays thread-count invariant.
  static const regress::RegressionProblem problem = regress::RegressionProblem::paper_instance();
  static const opt::HarmonicSchedule schedule(1.5);
  static const attack::RandomGaussianFault random_fault(80.0);
  auto make = [&](const engine::ScenarioAxes& axes, int threads) {
    auto roster = sim::honest_roster(problem.costs());
    sim::assign_fault(roster, 0, random_fault);
    p2p::P2pDgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                             25,  1,           5,
                             threads};
    config.axes = axes;
    const auto aggregator = agg::make_aggregator("cwtm");
    return p2p::run_p2p_dgd(roster, config, *aggregator);
  };
  engine::ScenarioAxes straggler;
  straggler.straggler_probability = 0.3;
  straggler.perturbation_seed = 21;
  engine::ScenarioAxes participation;
  participation.participation = 0.7;  // = 1 - straggler_probability: same coins
  participation.perturbation_seed = 21;
  const auto late = make(straggler, 1);
  const auto out = make(participation, 1);
  EXPECT_NE(late.traces[0].final_estimate(), out.traces[0].final_estimate());
  const auto threaded = make(straggler, 4);
  for (std::size_t k = 0; k < late.traces.size(); ++k) {
    expect_identical_traces(late.traces[k], threaded.traces[k], "p2p faulty straggler threads");
  }
}

TEST(P2pScenario, ChurnedHonestNodeFreezesItsTrace) {
  engine::ScenarioAxes axes;
  axes.churn = {{10, 3}};  // roster node 3 is honest (fault sits on node 0)
  const auto result = run_p2p(axes, 1);
  EXPECT_EQ(result.departed_agents, 1);
  const auto baseline = run_p2p({}, 1);
  // honest_nodes = {1, 2, 3, 4, 5}; slot of roster node 3 is 2.
  ASSERT_EQ(result.honest_nodes, baseline.honest_nodes);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    const std::size_t expected =
        result.honest_nodes[k] == 3 ? 11u : baseline.traces[k].estimates.size();
    EXPECT_EQ(result.traces[k].estimates.size(), expected) << "slot " << k;
  }
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p churn threads");
  }
}

// -------------------- deliver / straggler / silent interplay ----------------

TEST(EngineDeliver, StragglingByzantineIsLostNotEliminated) {
  // A Byzantine agent that stays silent is eliminated by step S1 the moment
  // its (empty) message reaches the round close — but a round in which it
  // STRAGGLES never reaches the close, so it must be lost-not-eliminated,
  // however suspicious the silence.  Seeded straggler schedule; transport
  // rejects empty messages like the sync network does.
  engine::RoundEngineConfig config;
  config.seed = 17;
  config.axes.straggler_probability = 0.9;
  config.axes.perturbation_seed = 9;
  engine::RoundEngine eng({0, 0, 0, 1}, 2, config);
  eng.reset(1);
  int straggle_rounds = 0;
  for (int t = 0; t < 100 && eng.eliminated_count() == 0; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int agent, std::span<double> row) {
      row[0] = agent;
      row[1] = -agent;
    });
    eng.emit_faulty([](int, std::span<double>, const attack::HonestRowsView&) {
      return false;  // silent every round
    });
    const bool straggled = eng.straggles(3);
    eng.deliver([](int, std::span<const double> message, std::span<double> dst) {
      if (message.empty()) return false;  // step S1: silence at the close
      std::copy(message.begin(), message.end(), dst.begin());
      return true;
    });
    if (straggled) {
      ++straggle_rounds;
      EXPECT_EQ(eng.eliminated_count(), 0) << "straggled round " << t;
      EXPECT_TRUE(eng.is_member(3)) << "straggled round " << t;
    }
  }
  // The seed produces both regimes: straggled rounds left the agent alone,
  // and the first non-straggled round eliminated it.
  EXPECT_GT(straggle_rounds, 0);
  EXPECT_EQ(eng.eliminated_count(), 1);
  EXPECT_FALSE(eng.is_member(3));
}

TEST(EngineDeliver, SilentMarkDoesNotLeakIntoEmitPresentRounds) {
  // Round 0 uses the honest/faulty split and the Byzantine agent stays
  // silent: the transport must see its empty span.  Round 1 uses
  // emit_present (the dsgd produce path, which never touches the silent
  // mask): begin_round must have cleared the mark, or agent 1's round-1 row
  // would be delivered as silence.
  engine::RoundEngineConfig config;
  config.seed = 5;
  engine::RoundEngine eng({0, 1, 0}, 2, config);
  eng.reset(1);
  std::vector<int> silent_agents;
  const auto transport = [&silent_agents](int agent, std::span<const double> message,
                                          std::span<double> dst) {
    if (message.empty()) {
      silent_agents.push_back(agent);
      std::fill(dst.begin(), dst.end(), 0.0);
    } else {
      std::copy(message.begin(), message.end(), dst.begin());
    }
    return true;  // tolerate silence so the roster survives into round 1
  };
  eng.begin_round(0);
  eng.emit_honest([](int agent, std::span<double> row) { row[0] = row[1] = agent; });
  eng.emit_faulty([](int, std::span<double>, const attack::HonestRowsView&) { return false; });
  EXPECT_EQ(eng.deliver(transport), 3);
  EXPECT_EQ(silent_agents, std::vector<int>{1});

  silent_agents.clear();
  eng.begin_round(1);
  eng.emit_present([](int agent, std::span<double> row) { row[0] = row[1] = 10.0 + agent; });
  EXPECT_EQ(eng.deliver(transport), 3);
  EXPECT_TRUE(silent_agents.empty()) << "round-0 silent mark leaked into round 1";
  for (int row = 0; row < 3; ++row) {
    EXPECT_EQ(eng.ingest().row(row)[0], 10.0 + row) << "row " << row;
  }
}

// -------------------- per-round honest moments ------------------------------

/// Roster of the moments tests: agents 0-3 honest, 4 mean-reverse, 5 mimic.
const std::vector<unsigned char> kMomentsRoster{0, 0, 0, 0, 1, 1};

/// Honest agent a's gradient in round t: (v, -v) with v = a + 1 in round 0
/// and 10 - 2a in round 1, so the column mean moves from 2.5 to 7 and the
/// smallest-norm row from agent 0 to agent 3.
double moments_value(int agent, int round) {
  return round == 0 ? agent + 1.0 : 10.0 - 2.0 * agent;
}

/// The faulty agents' emitter of the moments tests: agent 4 runs
/// mean-reverse (scale 1), agent 5 mimic-smallest, and each records the
/// first coordinate it sent in sent[agent].
struct MomentsEmitter {
  const attack::MeanReverseFault reverse{1.0};
  const attack::MimicSmallestFault mimic;
  const Vector estimate{0.0, 0.0};
  std::vector<double> sent = std::vector<double>(kMomentsRoster.size(), 0.0);

  bool emit(int agent, std::span<double> row, const attack::HonestRowsView& view, int round) {
    const attack::FaultModel& fault =
        agent == 4 ? static_cast<const attack::FaultModel&>(reverse) : mimic;
    util::Rng rng(1);
    const bool ok = fault.emit_into(row, attack::RowAttackContext{estimate, row, view, round}, rng);
    sent[static_cast<std::size_t>(agent)] = row[0];
    return ok;
  }
};

TEST(EngineMoments, RoundEngineRecomputesWhenHonestRowsChange) {
  // The engine owns the view's memo: round 1's honest rows differ from
  // round 0's, so the faults must see round 1's mean and smallest row, not
  // the statistics memoized in round 0.
  engine::RoundEngineConfig config;
  config.threads = 2;
  engine::RoundEngine eng(kMomentsRoster, 2, config);
  eng.reset(2);
  MomentsEmitter emitter;
  for (int t = 0; t < 2; ++t) {
    eng.begin_round(t);
    eng.emit_honest([t](int agent, std::span<double> row) {
      row[0] = moments_value(agent, t);
      row[1] = -row[0];
    });
    eng.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
      return emitter.emit(agent, row, view, t);
    });
    EXPECT_EQ(emitter.sent[4], t == 0 ? -2.5 : -7.0) << "mean-reverse, round " << t;
    EXPECT_EQ(emitter.sent[5], t == 0 ? 1.0 : 4.0) << "mimic-smallest, round " << t;
  }
}

TEST(EngineMoments, AsyncEngineRecomputesWhenHonestRowsChange) {
  // Fixed durations inside the window and a full quorum: every agent starts
  // afresh each round, so round 1's honest rows replace round 0's.
  engine::AsyncEngineConfig config;
  config.threads = 2;
  config.async.arrival.kind = "fixed";
  config.async.arrival.scale = 0.5;
  engine::AsyncRoundEngine eng(kMomentsRoster, 2, config);
  eng.reset(2);
  MomentsEmitter emitter;
  for (int t = 0; t < 2; ++t) {
    eng.begin_round(t);
    ASSERT_EQ(eng.starting_agents().size(), kMomentsRoster.size()) << "round " << t;
    eng.emit_honest([t](int agent, std::span<double> row) {
      row[0] = moments_value(agent, t);
      row[1] = -row[0];
    });
    eng.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
      return emitter.emit(agent, row, view, t);
    });
    EXPECT_EQ(emitter.sent[4], t == 0 ? -2.5 : -7.0) << "mean-reverse, round " << t;
    EXPECT_EQ(emitter.sent[5], t == 0 ? 1.0 : 4.0) << "mimic-smallest, round " << t;
    EXPECT_EQ(eng.collect(t), static_cast<int>(kMomentsRoster.size())) << "round " << t;
  }
}

}  // namespace
