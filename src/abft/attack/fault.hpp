// Byzantine fault behaviours.  A faulty agent may send an arbitrary vector
// instead of its gradient (paper, Section 4.1 step S1) or stay silent (in
// which case the synchronous server eliminates it).  Adaptive behaviours may
// inspect the honest agents' gradients ("omniscient" adversary), the
// strongest adversary consistent with the paper's model.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "abft/linalg/vector.hpp"
#include "abft/util/rng.hpp"

namespace abft::attack {

using linalg::Vector;

class HonestRowsView;

/// Per-round memo of the honest rows' statistics that the omniscient faults
/// read: the column mean, the population column stddev and the index of the
/// smallest-norm row.  Every faulty agent of a round sees the same honest
/// rows, so each statistic is computed once, by the first fault that reads
/// it (under the memo's mutex), and every later reader gets the stored
/// result.  Whoever builds a HonestRowsView owns its memo and calls reset()
/// whenever the honest rows can change; reset() must not race a read.  The
/// buffers are sized on the first read and reused, so a steady state of
/// same-dimension rounds does not allocate.
class HonestMoments {
 public:
  HonestMoments() = default;
  HonestMoments(const HonestMoments&) = delete;
  HonestMoments& operator=(const HonestMoments&) = delete;

  /// Marks every statistic stale: the next read recomputes it.
  void reset() noexcept {
    columns_ready_.store(false);
    smallest_ready_.store(false);
  }

 private:
  friend class HonestRowsView;

  void ensure_columns(const HonestRowsView& honest);
  void ensure_smallest(const HonestRowsView& honest);
  void compute_columns(const HonestRowsView& honest);

  std::mutex mutex_;
  std::atomic<bool> columns_ready_{false};
  std::atomic<bool> smallest_ready_{false};
  std::vector<double> mean_;
  std::vector<double> stddev_;
  int smallest_ = 0;
};

/// Read-only view of the honest gradients of one round stored as rows of a
/// row-major block (the driver's payload batch): gradient k lives at row
/// rows[k] of the block.  Always index-based on purpose — a dense fast path
/// would hand the compiler two loop shapes to specialize, and the two copies
/// can pick different fma contractions, breaking bit parity between drivers
/// (a dense caller just passes identity indices).  Raw pointers keep the
/// attack layer independent of the agg layer.  The view carries the round's
/// HonestMoments, so the column statistics are one pass per round however
/// many faults read them.
class HonestRowsView {
 public:
  /// Rows `rows` of a row-major block whose rows have length `dim`, with the
  /// memo of their statistics (reset by the caller when the rows change).
  HonestRowsView(const double* data, int dim, std::span<const int> rows,
                 HonestMoments& moments) noexcept
      : data_(data), dim_(dim), rows_(rows), moments_(&moments) {}

  [[nodiscard]] int count() const noexcept { return static_cast<int>(rows_.size()); }
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// The k-th honest gradient of the round.
  [[nodiscard]] std::span<const double> row(int k) const noexcept {
    const auto r = static_cast<std::size_t>(rows_[static_cast<std::size_t>(k)]);
    return {data_ + r * static_cast<std::size_t>(dim_), static_cast<std::size_t>(dim_)};
  }

  /// Per-coordinate mean of the honest rows: the row-order sum scaled by
  /// 1/count, matching linalg::mean exactly.  Requires !empty().
  [[nodiscard]] std::span<const double> column_mean() const {
    moments_->ensure_columns(*this);
    return moments_->mean_;
  }

  /// Per-coordinate population stddev of the honest rows.  Requires !empty().
  [[nodiscard]] std::span<const double> column_stddev() const {
    moments_->ensure_columns(*this);
    return moments_->stddev_;
  }

  /// Index k of the honest row with the smallest Euclidean norm (the first
  /// such row on ties).  Requires !empty().
  [[nodiscard]] int smallest_norm_row() const {
    moments_->ensure_smallest(*this);
    return moments_->smallest_;
  }

 private:
  const double* data_ = nullptr;
  int dim_ = 0;
  std::span<const int> rows_{};
  HonestMoments* moments_ = nullptr;
};

/// Everything a fault behaviour may observe in one round.  The honest
/// gradients are rows of the driver's payload batch and the true gradient is
/// a raw span (typically the fault's own batch row, pre-filled by the
/// driver).
struct RowAttackContext {
  /// Server's / reference node's current estimate x_t.
  const Vector& estimate;
  /// Gradient the agent would send if it were honest.  May alias the output
  /// row handed to emit_into — implementations must not read it at an index
  /// they have already written.
  std::span<const double> true_gradient;
  /// Honest gradients of the round (omniscient adversary).
  HonestRowsView honest;
  /// Iteration number t.
  int round = 0;
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Writes the faulty message straight into `out` (a batch row of
  /// dimension context.true_gradient.size()) and returns true, or returns
  /// false to stay silent (out is then unspecified).  `out` may alias
  /// context.true_gradient; the result and the rng draws must not depend on
  /// whether it does (AttackParity.* checks this bitwise for every built-in
  /// fault).  Drivers with agg_threads > 1 call this concurrently for
  /// distinct agents — each call gets its own out row and rng, but the
  /// FaultModel object is shared, so implementations must be safe to call
  /// concurrently.  Faults therefore stay stateless: per-round state shared
  /// by the faulty agents of a round (the honest column statistics) lives in
  /// the view's HonestMoments, which computes it once under its own lock.
  [[nodiscard]] virtual bool emit_into(std::span<double> out, const RowAttackContext& context,
                                       util::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace abft::attack
