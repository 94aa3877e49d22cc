#include "abft/engine/round_engine.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::engine {

RoundEngine::RoundEngine(std::vector<unsigned char> faulty, int dim, RoundEngineConfig config)
    : faulty_(std::move(faulty)), dim_(dim), config_(std::move(config)) {
  ABFT_REQUIRE(!faulty_.empty(), "round engine needs at least one agent");
  ABFT_REQUIRE(dim_ > 0, "round engine needs a positive dimension");
  // ThreadPool(1) spawns no workers and parallel_for degenerates to a direct
  // call, so the pool is constructed unconditionally and every phase
  // dispatches through it without a serial/parallel branch.
  threads_ = std::max(1, config_.threads);
  pool_ = std::make_unique<agg::ThreadPool>(threads_);
  workspace_.pool = pool_.get();
  workspace_.mode = config_.mode;
  workspace_.precision = config_.precision;
  planner_ = RoundPlanner(config_.axes, roster_size());
  payload_row_.assign(faulty_.size(), -1);
  reset(0);
}

void RoundEngine::reset(int declared_f) {
  ABFT_REQUIRE(declared_f >= 0, "declared fault bound must be non-negative");
  // Independent stream per agent so behaviour is invariant to roster order
  // (and to the thread count: each agent owns its stream outright).  Streams
  // are re-derived per run, so repeated runs replay identically.
  util::Rng master(config_.seed);
  agent_rng_.clear();
  agent_rng_.reserve(faulty_.size());
  for (std::size_t i = 0; i < faulty_.size(); ++i) agent_rng_.push_back(master.split());
  planner_.reset();
  members_.resize(faulty_.size());
  for (std::size_t i = 0; i < faulty_.size(); ++i) members_[i] = static_cast<int>(i);
  member_mask_.assign(faulty_.size(), 1);
  declared_f_ = declared_f;
  current_f_ = declared_f;
  eliminated_ = 0;
  departed_ = 0;
  kept_ = 0;
}

void RoundEngine::begin_round(int round) {
  planner_.begin_round(round);
  for (const int agent : planner_.churned_this_round()) {
    if (is_member(agent)) depart(agent);
  }
  ABFT_REQUIRE(!members_.empty(), "every agent has left the system");

  present_.clear();
  honest_rows_.clear();
  faulty_rows_.clear();
  std::fill(payload_row_.begin(), payload_row_.end(), -1);
  for (const int agent : members_) {
    if (!planner_.participates(agent)) continue;
    const int row = static_cast<int>(present_.size());
    payload_row_[static_cast<std::size_t>(agent)] = row;
    present_.push_back(agent);
    (faulty_[static_cast<std::size_t>(agent)] != 0 ? faulty_rows_ : honest_rows_).push_back(row);
  }
  // The payload buffer itself is shaped lazily on the first emit_* call:
  // drivers that run their own produce buffers (p2p) never pay for the
  // engine's n x d double buffer.
  payload_shaped_ = false;
  silent_.assign(present_.size(), 0);
  kept_ = 0;
}

void RoundEngine::ensure_payload() {
  if (!payload_shaped_) {
    payload_.reshape(static_cast<int>(present_.size()), dim_);
    payload_shaped_ = true;
  }
}

int usable_fault_bound(const agg::GradientAggregator& rule, int declared_f, int current_f,
                       int kept, int members_n, int roster_n) {
  if (kept <= 0) return -1;
  if (declared_f > rule.max_usable_f(roster_n) || declared_f < rule.min_usable_f()) {
    // Misconfigured from the start: the legacy clamp, under which rules
    // with a real precondition (CWTM/Krum/Bulyan) throw it and rules with
    // only the generic f < n bound ran clamped — exactly the pre-engine
    // driver behaviour.
    return std::max(0, std::min(current_f, kept - 1));
  }
  // A permanently shrunk membership that can no longer tolerate the
  // adversaries known to remain is unsound to aggregate over at ANY clamped
  // budget — the filter would run weaker than the adversary count.  Hold.
  // (Eliminations shrink current_f alongside members_n and never trip this;
  // honest churn shrinks members_n alone and can.)
  if (current_f > rule.max_usable_f(members_n)) return -1;
  // A thin round of a valid configuration aggregates with the strongest f
  // the rule tolerates at this row count, or holds position when the rule
  // cannot run that thin at all.
  const int rule_cap = rule.max_usable_f(kept);
  if (rule_cap < 0) return -1;
  const int usable_f = std::max(0, std::min({current_f, kept - 1, rule_cap}));
  if (usable_f < rule.min_usable_f()) return -1;
  return usable_f;
}

bool RoundEngine::aggregate(const agg::GradientAggregator& rule, Vector& out) {
  const int usable_f = usable_fault_bound(rule, declared_f_, current_f_, kept_,
                                          static_cast<int>(members_.size()), roster_size());
  if (usable_f < 0) return false;
  rule.aggregate_into(out, ingest_, usable_f, workspace_);
  return true;
}

void RoundEngine::eliminate(int agent) {
  // Step S1: a missing reply in a synchronous system is necessarily faulty —
  // eliminate the sender and shrink both n and f.
  remove_member(agent);
  current_f_ = std::max(0, current_f_ - 1);
  ++eliminated_;
}

void RoundEngine::depart(int agent) {
  // Churn: a faulty departure means one fewer adversary the filter must
  // tolerate; an honest departure only shrinks n.
  remove_member(agent);
  if (faulty_[static_cast<std::size_t>(agent)] != 0) current_f_ = std::max(0, current_f_ - 1);
  ++departed_;
}

void RoundEngine::remove_member(int agent) {
  const auto it = std::find(members_.begin(), members_.end(), agent);
  ABFT_ENSURE(it != members_.end(), "removing an agent that is not a member");
  members_.erase(it);
  member_mask_[static_cast<std::size_t>(agent)] = 0;
}

}  // namespace abft::engine
