// RoundEngine — the shared double-buffered batch round loop under all three
// drivers (server-based DGD, D-SGD, peer-to-peer DGD).
//
// Before this layer each driver re-implemented the same machinery: split a
// master rng into per-agent streams, stand up a persistent ThreadPool and a
// mode-configured AggregatorWorkspace, reshape a payload GradientBatch per
// round, partition honest/faulty rows, compact delivered messages into an
// ingest batch, track eliminations and the shrinking fault bound, and clamp
// f before handing the batch to the gradient filter.  The engine owns all of
// it once; a driver is reduced to its policies — a gradient producer (what
// goes into a payload row), a delivery transport (how a row reaches the
// ingest buffer), and an update rule (what happens to the estimate).
//
// The engine is also where the scenario axes (axes.hpp) plug in: partial
// participation, straggler schedules and churn are realized by the embedded
// RoundPlanner and applied uniformly to every driver — present/absent agents
// in begin_round, lost-but-not-eliminated messages in deliver(), permanent
// departures with f bookkeeping in the membership list.  With the axes at
// their defaults the engine is bit-identical to the pre-engine round loops
// at every thread count (the golden / determinism / parity suites pin this).
//
// Round lifecycle (server-style drivers call all phases; p2p uses the
// resources, membership and plan queries and runs its own broadcast fan-out
// between produce and update):
//
//   reset(f)                      once per run: fresh agent streams, full
//                                 membership, declared fault bound
//   begin_round(t)                plan perturbations, apply churn, reshape
//                                 the payload batch over present agents
//   emit_honest / emit_faulty     produce phase (parallel over agents); the
//     or emit_present             faulty phase sees the honest rows through
//                                 a HonestRowsView (omniscient adversary)
//                                 carrying the engine's per-round moments
//   deliver(transport)            delivery phase (serial: transports own
//                                 ordered rng streams): straggled messages
//                                 are lost but keep membership, undelivered
//                                 messages eliminate the sender (step S1)
//   aggregate(rule, out)          filter phase: usable f clamped to the
//                                 delivered row count; false when nothing
//                                 was delivered (the driver holds position)
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"
#include "abft/attack/fault.hpp"
#include "abft/engine/axes.hpp"
#include "abft/linalg/vector.hpp"
#include "abft/util/check.hpp"
#include "abft/util/rng.hpp"

namespace abft::engine {

using linalg::Vector;

struct RoundEngineConfig {
  /// Seed of the master stream split into per-agent streams.
  std::uint64_t seed = 0;
  /// Width of the persistent thread pool (1 = fully single-threaded; results
  /// are bit-identical for every value).
  int threads = 1;
  /// Numerical mode of the engine-owned gradient-filter workspace.
  agg::AggMode mode = agg::AggMode::exact;
  /// Compute precision of the workspace's fast lane (f32 demotes the
  /// bandwidth-bound kernel inputs; only meaningful under AggMode::fast).
  agg::Precision precision = agg::Precision::f64;
  /// Round-perturbation axes (defaults = plain run, bit-identical).
  ScenarioAxes axes;
};

/// Called after the filter phase with (round, estimate, filtered gradient),
/// before the driver applies its update rule.
using RoundObserver = std::function<void(int round, const Vector& estimate, const Vector& filtered)>;

/// The one clamp policy for every driver's filter phase: the fault bound to
/// aggregate `kept` delivered rows with, or -1 when the round must hold
/// position (nothing delivered, or the rule cannot run that thin).  A
/// declared f the rule could not support even on the full `roster_n`
/// (above its max, or below its minimum) is a misconfiguration, not a thin
/// round: it gets the legacy min(current_f, kept - 1) clamp so the rule's
/// own precondition still fails loudly where it always did.
///
/// `members_n` is the CURRENT membership size (after churn/elimination has
/// permanently shrunk the roster), while `roster_n` stays the size the run
/// was configured with — the misconfiguration check is judged against
/// `roster_n` because a config valid at reset never becomes "misconfigured"
/// later.  But once the surviving membership itself can no longer tolerate
/// the `current_f` adversaries known to remain
/// (current_f > rule.max_usable_f(members_n)), no clamp is sound: running
/// the filter with a weaker budget than the adversary count would hand the
/// round to the faulty agents, so the engine holds position instead.  A
/// merely thin round (kept < members_n from stragglers or sit-outs) still
/// takes the kept-row clamp below.
int usable_fault_bound(const agg::GradientAggregator& rule, int declared_f, int current_f,
                       int kept, int members_n, int roster_n);

class RoundEngine {
 public:
  /// `faulty[i]` marks roster slot i Byzantine (used to partition the
  /// produce phase and to shrink f when a faulty agent churns out).
  RoundEngine(std::vector<unsigned char> faulty, int dim, RoundEngineConfig config);

  // --- shared resources ----------------------------------------------------
  [[nodiscard]] int roster_size() const noexcept { return static_cast<int>(faulty_.size()); }
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] int threads() const noexcept { return threads_; }
  [[nodiscard]] agg::ThreadPool& pool() noexcept { return *pool_; }
  [[nodiscard]] agg::AggregatorWorkspace& workspace() noexcept { return workspace_; }
  [[nodiscard]] util::Rng& agent_rng(int agent) noexcept {
    return agent_rng_[static_cast<std::size_t>(agent)];
  }

  void set_observer(RoundObserver observer) { observer_ = std::move(observer); }
  void notify(int round, const Vector& estimate, const Vector& filtered) const {
    if (observer_) observer_(round, estimate, filtered);
  }

  /// Engine-level parallel dispatch over [0, count) at the configured width.
  template <typename Fn>
  void parallel(int count, Fn&& fn) {
    pool_->parallel_for(0, count, threads_, std::forward<Fn>(fn));
  }

  // --- membership & fault-bound bookkeeping --------------------------------
  /// Restarts a run: full membership, declared fault bound f, fresh
  /// per-agent rng streams (master split, as every driver did), fresh
  /// perturbation stream.  The driver's own transport state (e.g. the
  /// network's drop stream) is deliberately not engine-owned.
  void reset(int declared_f);

  /// Agents still in the system, in roster order.
  [[nodiscard]] std::span<const int> members() const noexcept { return members_; }
  [[nodiscard]] bool is_member(int agent) const noexcept {
    return member_mask_[static_cast<std::size_t>(agent)] != 0;
  }
  /// The declared fault bound, shrunk by eliminations and faulty churn.
  [[nodiscard]] int current_f() const noexcept { return current_f_; }
  /// Agents eliminated by step S1 (undelivered non-straggler messages).
  [[nodiscard]] int eliminated_count() const noexcept { return eliminated_; }
  /// Agents that left via churn.
  [[nodiscard]] int departed_count() const noexcept { return departed_; }

  // --- round lifecycle -----------------------------------------------------
  /// Applies due churn, draws this round's plan, reshapes the payload batch
  /// over the present agents and partitions their rows honest/faulty.
  void begin_round(int round);

  /// Members participating this round, in roster order; payload row k
  /// belongs to present_agents()[k].
  [[nodiscard]] std::span<const int> present_agents() const noexcept { return present_; }
  [[nodiscard]] bool is_present(int agent) const noexcept {
    return payload_row_[static_cast<std::size_t>(agent)] >= 0;
  }
  /// Payload row of a present agent (-1 when absent this round).
  [[nodiscard]] int payload_row(int agent) const noexcept {
    return payload_row_[static_cast<std::size_t>(agent)];
  }
  /// Whether a present agent's message misses this round's close.
  [[nodiscard]] bool straggles(int agent) const noexcept { return planner_.straggles(agent); }

  [[nodiscard]] std::span<const int> honest_rows() const noexcept { return honest_rows_; }
  [[nodiscard]] std::span<const int> faulty_rows() const noexcept { return faulty_rows_; }

  [[nodiscard]] agg::GradientBatch& payload() noexcept { return payload_; }
  [[nodiscard]] agg::GradientBatch& ingest() noexcept { return ingest_; }

  /// The omniscient adversary's view: the honest payload rows of this round
  /// and their per-round moments (reset by begin_round).
  [[nodiscard]] attack::HonestRowsView honest_view() noexcept {
    return {payload_.data(), dim_, honest_rows_, moments_};
  }

  /// Produce phase, honest agents: writer(agent, row) fills the agent's
  /// payload row (parallel over agents; each owns its row and rng stream).
  template <typename Writer>
  void emit_honest(Writer&& writer) {
    ensure_payload();
    pool_->parallel_for(0, static_cast<int>(honest_rows_.size()), threads_,
                        [this, &writer](int begin, int end) {
                          for (int h = begin; h < end; ++h) {
                            const int row = honest_rows_[static_cast<std::size_t>(h)];
                            writer(present_[static_cast<std::size_t>(row)], payload_.row(row));
                          }
                        });
  }

  /// Produce phase, Byzantine agents (after emit_honest, so the view is
  /// complete): emitter(agent, row, honest_view) mutates the row in place
  /// and returns false to stay silent.
  template <typename Emitter>
  void emit_faulty(Emitter&& emitter) {
    ensure_payload();
    const attack::HonestRowsView view = honest_view();
    pool_->parallel_for(0, static_cast<int>(faulty_rows_.size()), threads_,
                        [this, &emitter, &view](int begin, int end) {
                          for (int b = begin; b < end; ++b) {
                            const int row = faulty_rows_[static_cast<std::size_t>(b)];
                            const bool sent = emitter(present_[static_cast<std::size_t>(row)],
                                                      payload_.row(row), view);
                            silent_[static_cast<std::size_t>(row)] = sent ? 0 : 1;
                          }
                        });
  }

  /// Produce phase without an honest/faulty split (D-SGD: faults are data-
  /// or gradient-level): writer(agent, row) runs for every present agent.
  template <typename Writer>
  void emit_present(Writer&& writer) {
    ensure_payload();
    pool_->parallel_for(0, static_cast<int>(present_.size()), threads_,
                        [this, &writer](int begin, int end) {
                          for (int row = begin; row < end; ++row) {
                            writer(present_[static_cast<std::size_t>(row)], payload_.row(row));
                          }
                        });
  }

  /// Delivery phase (serial: transports own ordered streams).  For each
  /// present agent in roster order: a straggled message is lost but keeps
  /// membership; otherwise transport(agent, payload, dst) moves the message
  /// (payload is empty when the agent stayed silent) and returning false
  /// eliminates the sender (step S1: silent => faulty; shrinks n and f).
  /// Returns the number of ingest rows kept.
  template <typename Transport>
  int deliver(Transport&& transport) {
    const int present = static_cast<int>(present_.size());
    ingest_.reshape(present, dim_);
    int kept = 0;
    for (int row = 0; row < present; ++row) {
      const int agent = present_[static_cast<std::size_t>(row)];
      if (planner_.straggles(agent)) continue;
      std::span<const double> message;
      if (silent_[static_cast<std::size_t>(row)] == 0) message = payload_.row(row);
      if (transport(agent, message, ingest_.row(kept))) {
        ++kept;
      } else {
        eliminate(agent);
      }
    }
    ingest_.truncate_rows(kept);
    ABFT_REQUIRE(!members_.empty(), "every agent was eliminated");
    kept_ = kept;
    return kept;
  }

  /// Number of rows the last deliver() kept.
  [[nodiscard]] int last_kept() const noexcept { return kept_; }

  /// Filter phase over the ingest batch: the usable fault bound is
  /// min(current_f, kept - 1, rule.max_usable_f(kept)) clamped at 0, so a
  /// thin round aggregates with the strongest f the rule tolerates.
  /// Returns false (out untouched) when no rows were delivered, the rule
  /// cannot run on them at all, or the surviving membership can no longer
  /// tolerate current_f adversaries (see usable_fault_bound) — the driver
  /// holds position that round.  A declared f the rule could not support
  /// even on the full roster is a misconfiguration and is NOT clamped: the
  /// rule's own precondition throws, as it always did.
  bool aggregate(const agg::GradientAggregator& rule, Vector& out);

 private:
  void ensure_payload();
  void eliminate(int agent);
  void depart(int agent);
  void remove_member(int agent);

  std::vector<unsigned char> faulty_;
  int dim_ = 0;
  RoundEngineConfig config_;
  int threads_ = 1;
  std::unique_ptr<agg::ThreadPool> pool_;
  agg::AggregatorWorkspace workspace_;
  std::vector<util::Rng> agent_rng_;
  RoundPlanner planner_;
  RoundObserver observer_;

  std::vector<int> members_;
  std::vector<unsigned char> member_mask_;
  int declared_f_ = 0;
  int current_f_ = 0;
  int eliminated_ = 0;
  int departed_ = 0;

  std::vector<int> present_;
  std::vector<int> payload_row_;
  std::vector<int> honest_rows_;
  std::vector<int> faulty_rows_;
  std::vector<unsigned char> silent_;
  bool payload_shaped_ = false;
  agg::GradientBatch payload_;
  attack::HonestMoments moments_;
  agg::GradientBatch ingest_;
  int kept_ = 0;
};

}  // namespace abft::engine
