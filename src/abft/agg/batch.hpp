// Batched, zero-allocation support for the gradient-filter hot path.
//
// GradientBatch packs the n received gradients into one contiguous
// row-major n x d buffer once per round; AggregatorWorkspace owns every
// piece of scratch the rules need (column buffers, score/norm arrays, the
// pairwise squared-distance matrix) so that steady-state aggregation
// performs no heap allocation at all.  Buffers only ever grow, so a
// workspace reused across rounds (or across rules) settles into a
// fixed-footprint regime after the first call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "abft/agg/threads.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::agg {

using linalg::Vector;

/// Numerical contract of the batched kernels.
///
/// `exact` (the default) follows the naive reference rules kept with the
/// tests (tests/reference_rules.hpp): same selection tie-breaking, same
/// floating-point summation order, same convergence schedule, and agreement
/// to 1e-12 relative (BatchedParity.* in tests/test_agg.cpp).  `fast`
/// relaxes that to *tolerance* parity — kernels may vectorize reductions
/// (independent partial sums), replace full sorts with nth_element-style
/// partial selection, and take runtime-dispatched AVX-512 paths.  The (f, eps)-resilience guarantees of
/// the paper only constrain the aggregate, not the arithmetic, so fast mode
/// is semantically safe; its drift is bounded per rule by the
/// tolerance-parity suite in tests/test_agg_fast.cpp (||fast - exact||_inf
/// <= tol(rule, n, d)) and end-to-end by the fast-mode goldens in
/// tests/test_golden_e2e.cpp.
enum class AggMode {
  exact,  ///< follows the reference rules (the default)
  fast,   ///< relaxed parity: vectorized/partial-selection kernels
};

/// Element width of the bandwidth-bound fast-mode kernels.
///
/// `f64` (the default) keeps every kernel on doubles.  `f32` demotes the
/// *inputs* of the distance/trim kernels — the Gram fill, the col-major
/// coreset distance pass, the rank-count CWTM/CWMed columns, the laned
/// Weiszfeld and centered-clipping distance loops — to float, halving the
/// bytes those memory-bound passes move.  Selection and tie-breaking still
/// run over a deterministic order, and the aggregate itself is accumulated
/// and emitted in f64.  The knob only has effect under AggMode::fast; exact
/// mode ignores it entirely (workspaces reject the combination at the
/// scenario layer).  Like fast/f64, the f32 lane is bit-identical across
/// thread counts: every demoted value and every f32 reduction is computed
/// by exactly one writer in a fixed order.  A batch holding an entry whose
/// float sums could overflow (beyond B(d) = sqrt(FLT_MAX / (8 d)), +-inf or
/// NaN) runs the whole call on the f64 fast lane instead (see
/// AggregatorWorkspace::demote), so the lane never aggregates an overflowed
/// distance.
enum class Precision {
  f64,  ///< double-precision kernels (the default)
  f32,  ///< float inputs for the bandwidth-bound fast kernels
};

/// Contiguous row-major n x d matrix of gradients.  Row i is gradient i.
/// reshape() never shrinks capacity, so a batch reused across rounds stops
/// allocating once it has seen the largest (n, d) shape.
class GradientBatch {
 public:
  GradientBatch() = default;
  GradientBatch(int n, int d) { reshape(n, d); }

  /// Sets the logical shape.  Existing contents become unspecified; every
  /// row must be written before the batch is handed to an aggregator.
  void reshape(int n, int d);

  /// reshape + copy: packs a family of equal-dimension vectors.
  void pack(std::span<const Vector> gradients);

  [[nodiscard]] int rows() const noexcept { return n_; }
  [[nodiscard]] int cols() const noexcept { return d_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0 || d_ == 0; }

  [[nodiscard]] std::span<double> row(int i) noexcept {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
            static_cast<std::size_t>(d_)};
  }
  [[nodiscard]] std::span<const double> row(int i) const noexcept {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
            static_cast<std::size_t>(d_)};
  }

  /// Copies a vector into row i (dimension must equal cols()).
  void set_row(int i, const Vector& v);

  /// Row-writer ingest: copies a raw coefficient span into row i.  This is
  /// how agents, fault injectors and the network hand gradients to the
  /// filter without staging std::vector<Vector> messages.
  void set_row(int i, std::span<const double> values);

  /// Shrinks the logical row count to n (n <= rows()) without touching the
  /// surviving rows — the compaction step after the network has written the
  /// delivered messages into the leading rows.
  void truncate_rows(int n);

  /// Copies row i out into a Vector (allocates; not for the hot path).
  [[nodiscard]] Vector unpack_row(int i) const;

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

 private:
  std::vector<double> data_;
  int n_ = 0;
  int d_ = 0;
};

/// Per-element-type scratch of the bandwidth-bound kernels.  A workspace
/// holds one Lane<double> (the f64 kernels) and one Lane<float> (the f32
/// compute lane, see Precision); kernels templated on the element type draw
/// their buffers from AggregatorWorkspace::lane<T>(), so each operation has
/// one body for both widths.  Buffers grow monotonically.
template <typename T>
struct Lane {
  /// Demoted batch rows (n x d, row-major), filled by
  /// AggregatorWorkspace::demote.  The double lane reads the batch
  /// itself and leaves this empty (see AggregatorWorkspace::rows).
  std::vector<T> rows;
  /// d x n transposed copy of the rows.  Scratch: kernels may reorder it in
  /// place (nth_element).
  std::vector<T> colmajor;
  std::vector<T> sqnorms;  ///< per-row squared Euclidean norms (n)
  /// Packed strictly-upper-triangular squared pairwise distances: entry
  /// (i, j) with i < j lives at pair_index(i, j, n), n*(n-1)/2 entries
  /// total.  Storing each unordered pair once (no diagonal, no mirror)
  /// halves the matrix traffic and drops the full n^2 zero-assign the old
  /// square layout paid; consumers go through pair_sqdist() /
  /// gather_pair_row() or walk the packed rows directly.
  std::vector<T> pairdist;
  std::vector<T> vecbuf;  ///< d-sized scratch (Weiszfeld, cclip, iterates)
};

/// Reusable scratch for the batched aggregation kernels.  All buffers grow
/// monotonically; fill_* helpers recompute derived quantities from a batch.
struct AggregatorWorkspace {
  // --- configuration -------------------------------------------------------
  /// Numerical mode of every kernel drawing scratch from this workspace (see
  /// AggMode).  Drivers thread their config flag through here; the default
  /// is exact mode.
  AggMode mode = AggMode::exact;

  /// Element width of the bandwidth-bound fast-mode kernels (see Precision).
  /// Only consulted when mode == AggMode::fast; exact mode always runs f64.
  Precision precision = Precision::f64;

  /// True when the float32 compute lane is requested (fast mode + f32 knob).
  [[nodiscard]] bool f32_lane() const noexcept {
    return mode == AggMode::fast && precision == Precision::f32;
  }

  /// Optional persistent thread pool.  When set, every kernel parallel-for
  /// dispatches over the pool's sleeping workers at the pool's full width;
  /// without one the kernels run single-threaded.  Drivers share one pool
  /// between round-level parallelism and the kernels (phases are
  /// sequential, so the pool is never re-entered).  Non-owning: the driver
  /// owns the pool.
  ThreadPool* pool = nullptr;

  /// Kernel parallel width: the pool's width, or 1 without a pool.
  [[nodiscard]] int width() const noexcept { return pool != nullptr ? pool->width() : 1; }

  /// Kernel-side parallel dispatch over the pool (a direct call without
  /// one).  An empty range never invokes fn.
  template <typename Fn>
  void run_parallel(int begin, int end, Fn&& fn);

  // --- scratch buffers -----------------------------------------------------
  Lane<double> f64;  ///< f64 kernel scratch (every mode)
  Lane<float> f32;   ///< f32 compute-lane scratch (see Precision)

  template <typename T>
  [[nodiscard]] Lane<T>& lane() noexcept {
    if constexpr (std::is_same_v<T, float>) {
      return f32;
    } else {
      return f64;
    }
  }

  /// The batch rows in element type T: the batch itself for double, the
  /// demoted copy in f32.rows for float (valid after demote succeeded).
  template <typename T>
  [[nodiscard]] const T* rows(const GradientBatch& batch) const noexcept {
    if constexpr (std::is_same_v<T, float>) {
      return f32.rows.data();
    } else {
      return batch.data();
    }
  }

  /// Lane whose pairdist holds the current distances (set by
  /// fill_pairwise_sqdist, read by pair_sqdist / gather_pair_row).
  Precision pair_lane = Precision::f64;

  std::vector<double> norms;     ///< per-gradient Euclidean norms (n)
  std::vector<double> pairrow;   ///< one gathered pairdist row (n), scratch
  std::vector<double> scores;    ///< per-gradient filter scores (n)
  std::vector<double> scratch;   ///< misc n-sized scratch (dists, columns)
  std::vector<int> order;        ///< index permutation (n)
  std::vector<unsigned char> active;  ///< selection mask (n), Bulyan stage 1
  // Bulyan fast-mode stage 1 (incremental iterated-Krum scores): per-row
  // distance-sorted neighbour ids, their inverse permutation, and the
  // per-row selection-prefix cursor / selected count.
  std::vector<int> sorted_ids;   ///< n x n neighbour ids, ascending distance
  std::vector<int> ranks;        ///< rank of j in i's sorted order (n x n)
  std::vector<int> heads;        ///< one past the selection prefix (n)
  std::vector<int> counts;       ///< selected neighbours in the prefix (n)
  GradientBatch aux_batch;       ///< secondary batch (GMoM buckets, Bulyan)
  GradientBatch clip_batch;      ///< clipped copy for ClippedInputAggregator
  // Hierarchical (aggregate-of-aggregates) scratch — agg/hierarchy.hpp.  One
  // sub-workspace / gather batch / output staging vector per parallel worker
  // group, so the footprint scales with the worker width, not the shard
  // count (a thousand Gram shards through one workspace would otherwise pin
  // a thousand pairdist matrices).  unique_ptr keeps the recursive member
  // representable; it also makes the workspace move-only, which every
  // driver already satisfies (workspaces are constructed in place).
  std::vector<std::unique_ptr<AggregatorWorkspace>> hier_groups;
  std::vector<GradientBatch> hier_gather;  ///< per-group shard input rows
  std::vector<Vector> hier_out;            ///< per-group shard output staging
  GradientBatch hier_root;                 ///< S x d shard outputs
  std::vector<int> hier_perm;              ///< seeded shard assignment (n)
  // Coreset pre-reduction scratch — agg/coreset.hpp.  The blocked k-center
  // pass keeps per-row nearest-center state in the n-sized buffers (its
  // column-major distance kernel runs on the lane's colmajor with `scratch`
  // as the per-round candidate-distance buffer), one bounded farthest-point
  // epoch queue per row block in coreset_cand (strided, counts in
  // coreset_cand_count, -1 marking a queue due for refill, epoch bounds in
  // coreset_qbound), the merged live (distance, id) candidate pairs in
  // coreset_merged, and the selected rows / multiplicity weights in the
  // m-sized buffers; all grow monotonically so the reduction is
  // allocation-free after warmup.
  std::vector<double> coreset_dist;    ///< sq dist to nearest center (n)
  std::vector<int> coreset_assign;     ///< nearest center slot (n)
  std::vector<std::pair<double, int>> coreset_merged;  ///< live candidate pairs
  std::vector<std::pair<double, int>> coreset_qbound;  ///< per-block epoch bounds
  std::vector<int> coreset_cand;       ///< per-block top-(z+1) queues
  std::vector<int> coreset_cand_count; ///< per-block queue sizes (-1: refill)
  std::vector<int> coreset_ids;        ///< selected row ids (m)
  std::vector<double> coreset_weights; ///< multiplicity weights, sum = n (m)
  std::vector<double> coreset_vec;     ///< d-sized scratch (median pivot)
  std::vector<std::pair<double, double>> coreset_pairs;  ///< (value, weight)
  GradientBatch coreset_batch;         ///< m x d packed coreset rows

  // --- fill helpers --------------------------------------------------------
  /// The f32 lane's one demote-on-ingest pass.  When the lane is requested,
  /// demotes the batch rows into f32.rows and, in the same loop, checks that
  /// every demoted entry's magnitude is at most B(d) = sqrt(FLT_MAX / (8 d)):
  /// then every float sum of d squared differences (at most
  /// 4 d B(d)^2 = FLT_MAX / 2, the factor 2 absorbing the sums' rounding)
  /// and every Gram term stays finite.
  /// Returns true when the call should run its f32 kernels: the lane is
  /// requested and the batch is in range.  An out-of-range batch — including
  /// one holding +-inf or NaN, which compare above the bound — runs the f64
  /// fast lane for the whole call, bit-identical to Precision::f64.
  /// Returns false without touching anything otherwise.
  bool demote(const GradientBatch& batch);

  /// Cache-blocked transpose of the lane-T rows into lane<T>().colmajor, so
  /// per-coordinate kernels see each column as a contiguous run of n
  /// entries.  The float lane transposes f32.rows (demote first).
  template <typename T = double>
  void fill_colmajor(const GradientBatch& batch);

  /// Fills f64.sqnorms with per-row squared Euclidean norms.
  void fill_sqnorms(const GradientBatch& batch);

  /// Fills `norms` (and f64.sqnorms) with per-row Euclidean norms.
  void fill_norms(const GradientBatch& batch);

  /// Fills the packed triangular pairdist of the f32 lane (when demote
  /// admits the batch) or the f64 lane with squared Euclidean distances via
  /// the Gram identity ||xi - xj||^2 = ||xi||^2 + ||xj||^2 - 2 <xi, xj>,
  /// computing each unordered pair once; records the lane in pair_lane and
  /// returns true when it was f32.  Shared by Krum, Multi-Krum and Bulyan.
  bool fill_pairwise_sqdist(const GradientBatch& batch);

  // --- packed triangular pairdist accessors --------------------------------
  /// Index of unordered pair (i, j), i < j, in the packed strictly-upper
  /// triangular layout: row i's run starts after the i prior rows' runs of
  /// lengths n-1, n-2, ..., n-i.
  [[nodiscard]] static constexpr std::size_t pair_index(int i, int j, int n) noexcept {
    // i * (2n - i - 1) is always even, so the division is exact.
    return static_cast<std::size_t>(i) * (2 * static_cast<std::size_t>(n) - i - 1) / 2 +
           static_cast<std::size_t>(j - i - 1);
  }

  /// Squared distance between rows i and j (i != j), read from the lane
  /// fill_pairwise_sqdist filled (f32 values are promoted).
  [[nodiscard]] double pair_sqdist(int i, int j, int n) const noexcept {
    if (i > j) std::swap(i, j);
    const std::size_t idx = pair_index(i, j, n);
    return pair_lane == Precision::f32 ? static_cast<double>(f32.pairdist[idx])
                                       : f64.pairdist[idx];
  }

  /// Gathers row i of the (logical) n x n distance matrix into dst[0..n),
  /// diagonal 0, promoting f32-lane values.  dst must hold n doubles.
  void gather_pair_row(int i, int n, double* dst) const noexcept;
};

/// Validates the shared batched preconditions (non-empty, equal-dimension by
/// construction, 0 <= f < n); returns the common dimension d.
int validate_batch(const GradientBatch& batch, int f);

/// Ensures `out` has dimension d (reallocates only on dimension change).
void resize_output(Vector& out, int d);

/// Median of [first, last) computed in place via nth_element; matches the
/// sort-based median exactly ((m odd) middle element, (m even) mean of the
/// two middle elements, formed in double).  Reorders the range.
template <typename T>
double median_inplace(T* first, T* last);

template <typename Fn>
void AggregatorWorkspace::run_parallel(int begin, int end, Fn&& fn) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, pool->width(), std::forward<Fn>(fn));
  } else if (begin < end) {
    fn(begin, end);
  }
}

}  // namespace abft::agg
