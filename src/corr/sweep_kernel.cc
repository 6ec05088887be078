#include "corr/sweep_kernel.h"

#include <algorithm>

#include "common/math_utils.h"

namespace dangoron {

namespace {

// Prefetch distance of the octet walk. Single-threaded bench_query_time,
// n = 512: no prefetch 31 ms, 1 octet ahead 20.5, 2 ahead 19.5, 4 ahead
// 17.4, 8 ahead 18.6.
constexpr int64_t kPrefetchOctets = 4;

// The banded sweep over pairs [pair_begin, pair_end), whose first pair is
// (i, j): octet by octet along the index's octet grid, the window loop
// *inside* each octet so its set-up and prefetch serve the whole band. An
// octet whose 8 pairs share one row run and lie in the range takes the
// vector body: two aligned slot-line loads give the 8 prefix differences.
// An octet cut by a row boundary or by the range's ends takes the scalar
// cell, pair by pair. Both execute the exact per-lane operation sequence of the
// pair-major cell in dangoron_engine.cc's ProcessPairBlock:
//
//   cov  = (prefix[hi] - prefix[lo]) - sum_i * sum_j * inv_count
//   corr = ClampCorrelation(cov * inv_css_i * inv_css_j)
//
// so sweep and pair-major paths emit bit-identical edges (same shapes, same
// FMA-contraction decisions); the sweep kernel tests enforce that. The
// threshold compare is branch-free per 8-lane group: survivors are appended
// only when the group mask is non-zero, which on the sparse networks the
// thresholds of interest produce skips the append branch almost always.
// Pairs are visited in ascending id order, so each window's survivors are
// appended in ascending pair-id order.
template <bool kAbsolute>
void SweepOctets(const SweepView& v, int64_t base_w0, int64_t ns, int64_t m,
                 int64_t k_begin, int64_t k_end, int64_t pair_begin,
                 int64_t pair_end, int64_t i, int64_t j,
                 std::vector<Edge>* out_windows) {
  const int64_t n = v.num_series;
  const double beta = v.threshold;

  const Vec8 vic = SplatVec8(v.inv_count);
  const Vec8 vone = SplatVec8(1.0);
  const Vec8 vneg_one = SplatVec8(-1.0);
  const Vec8 vbeta = SplatVec8(beta);
  const Vec8 vneg_beta = SplatVec8(-beta);

  int64_t p = pair_begin;
  while (p < pair_end) {
    const int64_t q = p - v.pair_base;
    if (q % kPairOctet == 0 && p + kPairOctet <= pair_end &&
        j + kPairOctet <= n) {
      const double* octet =
          v.dot_prefix + PairSlotOffset(v.octet_stride, q, 0);
      // The band reads 2 lines per window from each octet, octets apart:
      // too short a run for the hardware prefetcher to catch, so fetch the
      // same lines kPrefetchOctets octets ahead while that is in the range.
      const double* ahead =
          p + (kPrefetchOctets + 1) * kPairOctet <= pair_end
              ? v.dot_prefix +
                    PairSlotOffset(v.octet_stride,
                                   q + kPrefetchOctets * kPairOctet, 0)
              : octet;
      for (int64_t k = k_begin; k < k_end; ++k) {
        const int64_t lo = base_w0 + k * m;
        const int64_t hi = lo + ns;
        __builtin_prefetch(ahead + PairOctetSlot(0, lo));
        __builtin_prefetch(ahead + PairOctetSlot(0, hi));
        const double* sums = v.range_sum + k * n;
        const double* invs = v.range_inv_css + k * n;
        const Vec8 dot = LoadVec8(octet + PairOctetSlot(0, hi)) -
                         LoadVec8(octet + PairOctetSlot(0, lo));
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
      p += kPairOctet;
      j += kPairOctet;
    } else {
      // Lane-exact scalar cells up to the octet's end (or the range's).
      const int64_t octet_end =
          std::min(pair_end, p - q % kPairOctet + kPairOctet);
      for (; p < octet_end; ++p, ++j) {
        if (j >= n) {
          ++i;
          j = i + 1;
        }
        const double* lane =
            v.dot_prefix + PairSlotOffset(v.octet_stride, p - v.pair_base, 0);
        for (int64_t k = k_begin; k < k_end; ++k) {
          const int64_t lo = base_w0 + k * m;
          const int64_t hi = lo + ns;
          const double* sums = v.range_sum + k * n;
          const double* invs = v.range_inv_css + k * n;
          const double cov = (lane[PairOctetSlot(0, hi)] -
                              lane[PairOctetSlot(0, lo)]) -
                             sums[i] * sums[j] * v.inv_count;
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
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

}  // namespace

void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows) {
  if (view.absolute) {
    SweepOctets<true>(view, base_w0, ns, m, k_begin, k_end, pair_begin,
                      pair_end, i0, j0, out_windows);
  } else {
    SweepOctets<false>(view, base_w0, ns, m, k_begin, k_end, pair_begin,
                       pair_end, i0, j0, out_windows);
  }
}

}  // namespace dangoron
