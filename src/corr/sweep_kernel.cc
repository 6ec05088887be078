#include "corr/sweep_kernel.h"

#include <algorithm>

#include "common/math_utils.h"

namespace dangoron {

namespace {

// One fixed-i run of the banded sweep: pairs (i, j) for j in
// [j_begin, j_end), whose pair ids — and dot-prefix rows — advance
// contiguously from `pair_begin`; the window loop runs *inside* each 8-pair
// group so the group's prefix cache lines serve the whole band. The vector
// body and the scalar tail execute the exact per-lane operation sequence of
// the pair-major cell in dangoron_engine.cc's ProcessPairBlock:
//
//   cov  = (prefix[hi] - prefix[lo]) - sum_i * sum_j * inv_count
//   corr = ClampCorrelation(cov * inv_css_i * inv_css_j)
//
// so sweep and pair-major paths emit bit-identical edges (same shapes, same
// FMA-contraction decisions); the sweep kernel tests enforce that. The
// threshold compare is branch-free per 8-lane group: survivors are appended
// only when the group mask is non-zero, which on the sparse networks the
// thresholds of interest produce skips the append branch almost always.
template <bool kAbsolute>
void SweepRowRunBand(const SweepView& v, int64_t base_w0, int64_t ns,
                     int64_t m, int64_t k_begin, int64_t k_end, int64_t i,
                     int64_t j_begin, int64_t j_end, int64_t pair_begin,
                     std::vector<Edge>* out_windows) {
  const int64_t n = v.num_series;
  const int64_t stride = v.row_stride;
  const double beta = v.threshold;
  const double* rows = v.dot_prefix + (pair_begin - v.pair_base) * stride;

  const Vec8 vic = SplatVec8(v.inv_count);
  const Vec8 vone = SplatVec8(1.0);
  const Vec8 vneg_one = SplatVec8(-1.0);
  const Vec8 vbeta = SplatVec8(beta);
  const Vec8 vneg_beta = SplatVec8(-beta);

  int64_t j = j_begin;
  for (; j + 8 <= j_end; j += 8, rows += 8 * stride) {
    for (int64_t k = k_begin; k < k_end; ++k) {
      const int64_t lo = base_w0 + k * m;
      const int64_t hi = lo + ns;
      const double* sums = v.range_sum + k * n;
      const double* invs = v.range_inv_css + k * n;
      // The two prefix loads per pair are strided (one dot-prefix row per
      // pair) but L1-hot after the band's first window; everything after is
      // contiguous vector arithmetic.
      double lo_slots[8];
      double hi_slots[8];
      const double* row = rows;
      for (int l = 0; l < 8; ++l, row += stride) {
        lo_slots[l] = row[lo];
        hi_slots[l] = row[hi];
      }
      const Vec8 dot = LoadVec8(hi_slots) - LoadVec8(lo_slots);
      const Vec8 sj = LoadVec8(sums + j);
      const Vec8 invj = LoadVec8(invs + j);
      const Vec8 cov = dot - SplatVec8(sums[i]) * sj * vic;
      Vec8 corr = cov * SplatVec8(invs[i]) * invj;
      corr = corr < vneg_one ? vneg_one : (corr > vone ? vone : corr);

      auto mask = corr >= vbeta;
      if constexpr (kAbsolute) {
        mask |= corr <= vneg_beta;
      }
      int64_t any = 0;
      for (int l = 0; l < 8; ++l) {
        any |= mask[l];
      }
      if (any != 0) {
        std::vector<Edge>* out = out_windows + (k - k_begin);
        for (int l = 0; l < 8; ++l) {
          if (mask[l] != 0) {
            out->push_back(Edge{static_cast<int32_t>(i),
                                static_cast<int32_t>(j + l), corr[l]});
          }
        }
      }
    }
  }

  // Scalar tail of the run (and whole runs shorter than one vector): the
  // same operation sequence, lane by lane.
  for (; j < j_end; ++j, rows += stride) {
    for (int64_t k = k_begin; k < k_end; ++k) {
      const int64_t lo = base_w0 + k * m;
      const int64_t hi = lo + ns;
      const double* sums = v.range_sum + k * n;
      const double* invs = v.range_inv_css + k * n;
      const double cov =
          (rows[hi] - rows[lo]) - sums[i] * sums[j] * v.inv_count;
      const double corr = ClampCorrelation(cov * invs[i] * invs[j]);
      const bool is_edge =
          kAbsolute ? (corr <= -beta || corr >= beta) : corr >= beta;
      if (is_edge) {
        out_windows[k - k_begin].push_back(
            Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
      }
    }
  }
}

}  // namespace

void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows) {
  const int64_t n = view.num_series;
  int64_t p = pair_begin;
  int64_t i = i0;
  int64_t j = j0;
  while (p < pair_end) {
    const int64_t run = std::min(n - j, pair_end - p);
    if (view.absolute) {
      SweepRowRunBand<true>(view, base_w0, ns, m, k_begin, k_end, i, j,
                            j + run, p, out_windows);
    } else {
      SweepRowRunBand<false>(view, base_w0, ns, m, k_begin, k_end, i, j,
                             j + run, p, out_windows);
    }
    p += run;
    j += run;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

}  // namespace dangoron
