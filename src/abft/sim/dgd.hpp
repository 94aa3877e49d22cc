// The Distributed Gradient Descent method of Section 4.1, on the synchronous
// server-based architecture:
//
//   S1  server broadcasts x_t; agent i replies with g_i^t (honest: the true
//       gradient; Byzantine: anything).  A silent agent is eliminated and
//       n, f are updated.
//   S2  x_{t+1} = [ x_t - eta_t * GradFilter(g_1^t, ..., g_n^t) ]_W.
//
// Byzantine replies are generated *after* the honest replies of the round so
// that omniscient fault models can observe them (the strongest adversary the
// model admits).
//
// The round loop itself — double-buffered payload/ingest batches, thread-pool
// dispatch, honest/faulty row partition, elimination and f bookkeeping, the
// scenario axes (partial participation, stragglers, churn) — lives in the
// shared engine::RoundEngine; this driver supplies only its policies: the
// honest gradient producer, the FaultModel emission, the SyncNetwork
// transport, and the projected-descent update rule.  With the axes at their
// defaults the traces are bit-identical to the pre-engine driver at every
// thread count.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "abft/agg/aggregator.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/opt/box.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/sim/agent.hpp"
#include "abft/sim/network.hpp"
#include "abft/sim/trace.hpp"

namespace abft::sim {

struct DgdConfig {
  Vector x0;
  opt::Box box;
  const opt::StepSchedule* schedule = nullptr;
  int iterations = 0;
  /// Declared fault bound f handed to the gradient filter.
  int f = 0;
  /// Seed for all randomness (fault behaviours, drop injection).
  std::uint64_t seed = 0;
  /// Probability that any agent->server message is lost (crash injection).
  double drop_probability = 0.0;
  bool record_transcript = false;
  /// Round-level parallelism: width of the persistent thread pool that
  /// parallelizes honest-gradient computation and fault emission over agents
  /// as well as the coordinate/pair loops inside the gradient filter.
  /// 1 = fully single-threaded.  Results are bit-identical for every value.
  int agg_threads = 1;
  /// Numerical mode of the gradient filter: AggMode::exact (default) keeps
  /// the kernels in step with the reference rules; AggMode::fast
  /// enables the relaxed-parity vectorized kernels (tolerance-bounded, see
  /// agg/batch.hpp).
  agg::AggMode agg_mode = agg::AggMode::exact;
  /// Compute precision of the filter's fast lane (agg/batch.hpp): f32
  /// demotes the bandwidth-bound kernel inputs.  Only meaningful with
  /// agg_mode == fast; a no-op under exact.
  agg::Precision agg_precision = agg::Precision::f64;
  /// Round-perturbation axes (engine/axes.hpp): partial participation,
  /// straggler schedules, churn.  Defaults are a no-op (bit-identical run).
  engine::ScenarioAxes axes;
  /// Event-driven mode (engine/async_engine.hpp): quorum-or-deadline rounds
  /// over a virtual clock instead of the synchronous close.  Mutually
  /// exclusive with the axes and with drop injection — lateness and loss are
  /// realized through arrival times there.  Empty = synchronous engine.
  std::optional<engine::AsyncConfig> async;
};

class DgdSimulation {
 public:
  /// Called once per iteration with (t, x_t, filtered gradient) before the
  /// update — lets tests check the phi_t condition of Theorem 3 directly.
  using Observer = engine::RoundObserver;

  /// Computes an honest agent's reply; the default sends cost->gradient(x).
  /// The learning workload substitutes stochastic mini-batch gradients.
  /// Called concurrently (on distinct agents) when agg_threads > 1, so a
  /// custom fn must be thread-safe.
  using HonestGradientFn = std::function<Vector(int agent, const Vector& estimate, int round)>;

  /// Row-writer variant: computes the reply straight into a payload-batch
  /// row of dimension box.dim().  Same thread-safety contract.
  using HonestGradientWriter =
      std::function<void(int agent, const Vector& estimate, int round, std::span<double> out)>;

  DgdSimulation(std::vector<AgentSpec> roster, DgdConfig config);

  /// Adapter for the legacy allocating fn (copies the returned Vector into
  /// the batch row); prefer set_honest_gradient_writer on hot paths.
  void set_honest_gradient_fn(HonestGradientFn fn);
  void set_honest_gradient_writer(HonestGradientWriter writer);
  void set_observer(Observer observer);

  /// Runs the full DGD loop and returns the estimate trace.
  Trace run(const agg::GradientAggregator& aggregator);

  [[nodiscard]] const SyncNetwork& network() const noexcept { return network_; }

  /// Trigger/staleness counters of the last async run; nullptr in sync mode.
  [[nodiscard]] const engine::AsyncStats* async_stats() const noexcept {
    return async_ ? &async_->stats() : nullptr;
  }

 private:
  Trace run_async(const agg::GradientAggregator& aggregator);

  std::vector<AgentSpec> roster_;
  DgdConfig config_;
  SyncNetwork network_;
  HonestGradientWriter honest_writer_;

  /// Owns the round state: batches, pool, workspace, rng streams,
  /// membership/elimination bookkeeping and the scenario plan.  Exactly one
  /// of engine_/async_ is constructed, keyed off config_.async.
  std::unique_ptr<engine::RoundEngine> engine_;
  std::unique_ptr<engine::AsyncRoundEngine> async_;
  Vector filtered_;
};

}  // namespace abft::sim
