#include "abft/opt/box.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::opt {

Box::Box(linalg::Vector lower, linalg::Vector upper)
    : lower_(std::move(lower)), upper_(std::move(upper)) {
  ABFT_REQUIRE(lower_.dim() == upper_.dim(), "box bounds must share a dimension");
  ABFT_REQUIRE(lower_.dim() > 0, "box must have positive dimension");
  for (int i = 0; i < lower_.dim(); ++i) {
    ABFT_REQUIRE(lower_[i] <= upper_[i], "box lower bound exceeds upper bound");
  }
}

Box Box::centered_cube(int dim, double half_width) {
  ABFT_REQUIRE(dim > 0, "box must have positive dimension");
  ABFT_REQUIRE(half_width >= 0.0, "half width must be non-negative");
  linalg::Vector lower(dim);
  linalg::Vector upper(dim);
  for (int i = 0; i < dim; ++i) {
    lower[i] = -half_width;
    upper[i] = half_width;
  }
  return Box(std::move(lower), std::move(upper));
}

linalg::Vector Box::project(const linalg::Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "projection dimension mismatch");
  linalg::Vector out = x;
  const auto v = out.coefficients();
  const auto lo = lower_.coefficients();
  const auto hi = upper_.coefficients();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::clamp(v[i], lo[i], hi[i]);
  return out;
}

bool Box::contains(const linalg::Vector& x, double tol) const {
  ABFT_REQUIRE(x.dim() == dim(), "containment dimension mismatch");
  const auto v = x.coefficients();
  const auto lo = lower_.coefficients();
  const auto hi = upper_.coefficients();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] < lo[i] - tol || v[i] > hi[i] + tol) return false;
  }
  return true;
}

double Box::max_distance_from(const linalg::Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "distance dimension mismatch");
  double sum = 0.0;
  for (int i = 0; i < dim(); ++i) {
    const double to_low = std::abs(x[i] - lower_[i]);
    const double to_high = std::abs(upper_[i] - x[i]);
    const double far = std::max(to_low, to_high);
    sum += far * far;
  }
  return std::sqrt(sum);
}

double Box::diameter() const { return (upper_ - lower_).norm(); }

}  // namespace abft::opt
