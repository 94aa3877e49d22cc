#include "abft/agg/cge.hpp"

#include <algorithm>
#include <numeric>

namespace abft::agg {

void CgeAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                   AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ws.fill_norms(batch);
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    return ws.norms[static_cast<std::size_t>(a)] < ws.norms[static_cast<std::size_t>(b)];
  });
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  // Sum in ascending-norm order, the reference rule's summation order.
  for (int s = 0; s < n - f; ++s) {
    const double* row = batch.row(ws.order[static_cast<std::size_t>(s)]).data();
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += row[k];
  }
}

}  // namespace abft::agg
