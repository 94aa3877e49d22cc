#include "abft/agg/rank_kernel.hpp"

#include <algorithm>
#include <cstdlib>

namespace abft::agg::detail {

int effective_rank_cutoff(AggMode /*mode*/) {
  // Parsed on every call (one getenv, far off the per-column hot loop), so
  // flipping the override mid-process takes effect immediately.
  if (const char* env = std::getenv("ABFT_RANK_KERNEL_CUTOFF")) {
    const long parsed = std::strtol(env, nullptr, 10);
    return std::clamp(static_cast<int>(parsed), 0, kRankKernelCapacity);
  }
  return kRankKernelCutoff;
}

}  // namespace abft::agg::detail
