#ifndef DANGORON_BOUND_BOUNDS_H_
#define DANGORON_BOUND_BOUNDS_H_

#include <cstdint>

#include "sketch/basic_window_index.h"

namespace dangoron {

/// Temporal bounds of the paper's Equation 2 and the jump search built on
/// them (Figure 2).
///
/// Setting: the query window spans `ns` basic windows; one sliding step
/// advances by `m` basic windows. Sliding `j` steps from window `k` drops the
/// `j*m` oldest basic windows and admits `j*m` new ones. Under the paper's
/// assumption that basic windows are drawn from a common sample distribution,
/// the query-window correlation is approximately the mean of its basic-window
/// correlations, so with c_i the *departing* basic-window correlations
/// (known at window k) and every entering correlation bounded by +/-1:
///
///   upper:  Corr_{k+j} <= Corr_k + (1/ns) * sum_{departing}(1 - c_i)
///   lower:  Corr_{k+j} >= Corr_k - (1/ns) * sum_{departing}(1 + c_i)
///
/// Both sums are O(1) from the index's OneMinusCorrRange prefix
/// (sum(1 + c) = 2 * count - sum(1 - c)). The bounds are *statistical*: data
/// violating the stationarity assumption can break them, which is why
/// Dangoron's jump mode is approximate (paper: accuracy > 90%). The jump
/// search exploits that the upper bound is monotone non-decreasing in j.
class TemporalBound {
 public:
  /// `index` must outlive the bound. `ns` = basic windows per query window,
  /// `m` = basic windows per sliding step.
  TemporalBound(const BasicWindowIndex* index, int64_t ns, int64_t m)
      : index_(index), ns_(ns), m_(m) {}

  /// Eq. 2 upper bound on Corr_{k+j} given Corr_k = `corr`, where the
  /// current window starts at basic window `w0 = k*m`.
  double UpperBound(int64_t pair_id, int64_t w0, double corr,
                    int64_t j) const {
    return UpperAt(index_->PairOneMinusCorrLane(pair_id), w0, corr, j);
  }

  /// Matching lower bound on Corr_{k+j}.
  double LowerBound(int64_t pair_id, int64_t w0, double corr,
                    int64_t j) const {
    return LowerAt(index_->PairOneMinusCorrLane(pair_id), w0, corr, j);
  }

  // The searches below return the largest j in [1, max_steps] for which
  // the predicate holds at every step 1..j; 0 when it fails at j = 1 or
  // max_steps <= 0. Each predicate is monotone in j (true on a prefix), so
  // they bisect: O(log max_steps) prefix reads. Each search hoists the
  // pair's lane of the 1 - c prefix, whose octet lines the neighbouring
  // pairs' searches read too. Bisection, not galloping: a galloping search
  // showed no gain on the explore workload's jump walk and was ~20-30 %
  // slower on the long skips of bench_serving's n = 128 approx tier. The
  // engine's plain-threshold walk finds MaxSkippableBelow's answer without
  // it (DangoronEngine's octet walk ends a skip at the first failing
  // window; UpperBound is monotone bit for bit, see dangoron_engine.cc).

  /// Largest j with UpperBound(j) < beta, i.e. the number of future windows
  /// that can be skipped as below-threshold.
  int64_t MaxSkippableBelow(int64_t pair_id, int64_t w0, double corr,
                            double beta, int64_t max_steps) const;

  /// Largest j with LowerBound(j) >= beta (windows that provably — under
  /// the assumption — stay above threshold).
  int64_t MaxSkippableAbove(int64_t pair_id, int64_t w0, double corr,
                            double beta, int64_t max_steps) const;

  /// Largest j with `lo < LowerBound(j)` and `UpperBound(j) < hi` — the
  /// number of windows provably confined to the open interval (lo, hi).
  /// Used by the absolute-threshold mode, where a non-edge must stay inside
  /// (-beta, beta) to be skipped. Both bounds drift monotonically, so the
  /// predicate is monotone.
  int64_t MaxSkippableWithin(int64_t pair_id, int64_t w0, double corr,
                             double lo, double hi, int64_t max_steps) const;

 private:
  using Lane = BasicWindowIndex::PairLane;
  // `omc` is a pair's lane of the 1 - c prefix; the difference of two of
  // its slots is OneMinusCorrRange.
  double UpperAt(Lane omc, int64_t w0, double corr, int64_t j) const {
    return corr + (omc[w0 + j * m_] - omc[w0]) / static_cast<double>(ns_);
  }
  double LowerAt(Lane omc, int64_t w0, double corr, int64_t j) const {
    const double one_minus = omc[w0 + j * m_] - omc[w0];
    const double one_plus = 2.0 * static_cast<double>(j * m_) - one_minus;
    return corr - one_plus / static_cast<double>(ns_);
  }

  const BasicWindowIndex* index_;
  int64_t ns_;
  int64_t m_;
};

/// Horizontal (cross-series) bound: for any three series within one window,
/// the correlation matrix of (x, y, z) is positive semidefinite, which
/// confines c_xy given c_xz and c_yz:
///
///   c_xz*c_yz - sqrt((1-c_xz^2)(1-c_yz^2))
///     <= c_xy <=
///   c_xz*c_yz + sqrt((1-c_xz^2)(1-c_yz^2))
///
/// Unlike Eq. 2 this is a theorem — no distributional assumption.
struct HorizontalBound {
  double lower = -1.0;
  double upper = 1.0;
};

/// Computes the bound interval for c_xy from pivot correlations.
HorizontalBound HorizontalBoundFromPivot(double c_xz, double c_yz);

/// Tightest interval across several pivots: intersection of the per-pivot
/// intervals (spans are parallel arrays of c_xz / c_yz).
HorizontalBound HorizontalBoundFromPivots(std::span<const double> c_xz,
                                          std::span<const double> c_yz);

}  // namespace dangoron

#endif  // DANGORON_BOUND_BOUNDS_H_
