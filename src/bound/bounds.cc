#include "bound/bounds.h"

#include <algorithm>
#include <cmath>

namespace dangoron {

namespace {

// Largest j in [1, max_steps] with pred(1..j) all true, for a predicate
// that holds on a prefix of the steps (see bounds.h).
template <typename Pred>
int64_t LongestTruePrefix(int64_t max_steps, const Pred& pred) {
  if (max_steps <= 0 || !pred(1)) {
    return 0;
  }
  // Invariant: pred(ok) holds; pred(bad) fails or bad == max_steps + 1.
  int64_t ok = 1;
  int64_t bad = max_steps + 1;
  while (ok + 1 < bad) {
    const int64_t mid = ok + (bad - ok) / 2;
    if (pred(mid)) {
      ok = mid;
    } else {
      bad = mid;
    }
  }
  return ok;
}

}  // namespace

int64_t TemporalBound::MaxSkippableBelow(int64_t pair_id, int64_t w0,
                                         double corr, double beta,
                                         int64_t max_steps) const {
  const Lane omc = index_->PairOneMinusCorrLane(pair_id);
  return LongestTruePrefix(max_steps, [&](int64_t j) {
    return UpperAt(omc, w0, corr, j) < beta;
  });
}

int64_t TemporalBound::MaxSkippableAbove(int64_t pair_id, int64_t w0,
                                         double corr, double beta,
                                         int64_t max_steps) const {
  // LowerBound is monotone non-increasing in j (each step subtracts a
  // non-negative amount).
  const Lane omc = index_->PairOneMinusCorrLane(pair_id);
  return LongestTruePrefix(max_steps, [&](int64_t j) {
    return LowerAt(omc, w0, corr, j) >= beta;
  });
}

int64_t TemporalBound::MaxSkippableWithin(int64_t pair_id, int64_t w0,
                                          double corr, double lo, double hi,
                                          int64_t max_steps) const {
  const Lane omc = index_->PairOneMinusCorrLane(pair_id);
  return LongestTruePrefix(max_steps, [&](int64_t j) {
    return UpperAt(omc, w0, corr, j) < hi && LowerAt(omc, w0, corr, j) > lo;
  });
}

HorizontalBound HorizontalBoundFromPivot(double c_xz, double c_yz) {
  const double product = c_xz * c_yz;
  const double slack_x = std::max(0.0, 1.0 - c_xz * c_xz);
  const double slack_y = std::max(0.0, 1.0 - c_yz * c_yz);
  const double radius = std::sqrt(slack_x * slack_y);
  HorizontalBound bound;
  bound.lower = std::max(-1.0, product - radius);
  bound.upper = std::min(1.0, product + radius);
  return bound;
}

HorizontalBound HorizontalBoundFromPivots(std::span<const double> c_xz,
                                          std::span<const double> c_yz) {
  HorizontalBound best;
  const size_t count = std::min(c_xz.size(), c_yz.size());
  for (size_t p = 0; p < count; ++p) {
    const HorizontalBound bound = HorizontalBoundFromPivot(c_xz[p], c_yz[p]);
    best.lower = std::max(best.lower, bound.lower);
    best.upper = std::min(best.upper, bound.upper);
  }
  return best;
}

}  // namespace dangoron
