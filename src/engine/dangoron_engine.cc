#include "engine/dangoron_engine.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "corr/block_kernel.h"
#include "corr/sweep_kernel.h"

namespace dangoron {

namespace {

// The scalar exact cell both scalar paths (pair-major loop, window-major
// pruned leg) share — and whose operation sequence the vectorized sweep
// kernel mirrors lane for lane: one definition, so the bit-identity
// contract between the paths cannot drift. `dot` is the pair's hoisted
// lane of the dot prefix; `sums` / `invs` point at the window's row of the
// hoisted moment arrays.
inline double ExactCellCorrelation(BasicWindowIndex::PairLane dot, int64_t w0,
                                   int64_t ns, const double* sums,
                                   const double* invs, double inv_count,
                                   int64_t i, int64_t j) {
  const double cov =
      (dot[w0 + ns] - dot[w0]) - sums[i] * sums[j] * inv_count;
  return ClampCorrelation(cov * invs[i] * invs[j]);
}

// Horizontal pruning decision for one cell: intersect the
// triangle-inequality intervals across pivots; the cell is pruned when the
// intersected interval cannot contain an edge value (in absolute mode that
// requires the whole interval inside (-beta, beta)). `pc_base` points at
// the window's pivot-correlation block [p * n + s].
inline bool HorizontallyPruned(const double* pc_base, int64_t P, int64_t n,
                               double beta, bool absolute, int64_t i,
                               int64_t j) {
  double upper = 1.0;
  double lower = -1.0;
  const double* pc = pc_base;
  for (int64_t p = 0; p < P; ++p, pc += n) {
    const HorizontalBound hb = HorizontalBoundFromPivot(pc[i], pc[j]);
    upper = std::min(upper, hb.upper);
    lower = std::max(lower, hb.lower);
    if (upper < beta && (!absolute || lower > -beta)) {
      break;
    }
  }
  return upper < beta && (!absolute || lower > -beta);
}

// The pair-by-pair walk (absolute thresholds, above-threshold jumps,
// pruning, the scalar exact oracle, and JumpWalkOctets' oracle): processes
// pairs [pair_begin, pair_end) sequentially, filling `local_windows` (one
// edge vector per window) and `local_stats`.
// `range_sum` / `range_inv_css` are the hoisted per-(window, series) query
// range sums and reciprocal centered root-sum-of-squares (0 for degenerate
// series), window-major [k * n + s]: the per-cell correlation is then two
// prefix loads, one fused subtract, and two multiplies — no divide or
// sqrt on the hot path. Reads only immutable state, so pair blocks of any
// number of concurrent queries may run against one shared index.
void ProcessPairBlock(const DangoronOptions& options,
                      const BasicWindowIndex& index, const SlidingQuery& query,
                      int64_t pair_begin, int64_t pair_end, int64_t base_w0,
                      int64_t ns, int64_t m,
                      const std::vector<double>& range_sum,
                      const std::vector<double>& range_inv_css,
                      const std::vector<double>& pivot_corrs,
                      std::vector<std::vector<Edge>>* local_windows,
                      EngineStats* local_stats) {
  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const double beta = query.threshold;
  const double inv_count = 1.0 / static_cast<double>(query.window);
  const TemporalBound bound(&index, ns, m);
  const int64_t P = options.horizontal_pruning ? options.num_pivots : 0;

  int64_t i = 0;
  int64_t j = 0;
  if (pair_begin < pair_end) {
    BasicWindowIndex::PairFromId(pair_begin, n, &i, &j);
  }
  for (int64_t pair = pair_begin; pair < pair_end; ++pair) {
    const BasicWindowIndex::PairLane dot = index.PairDotLane(pair);
    // The 8 pairs of an octet read the same slot lines; at an octet's first
    // pair, the lines the next octet's walks open with are fetched ahead.
    if ((pair - index.pair_begin()) % kPairOctet == 0 &&
        pair + kPairOctet < pair_end) {
      const BasicWindowIndex::PairLane next_dot =
          index.PairDotLane(pair + kPairOctet);
      const BasicWindowIndex::PairLane next_omc =
          index.PairOneMinusCorrLane(pair + kPairOctet);
      __builtin_prefetch(next_dot.Slot(base_w0));
      __builtin_prefetch(next_dot.Slot(base_w0 + ns));
      __builtin_prefetch(next_omc.Slot(base_w0));
      __builtin_prefetch(next_omc.Slot(base_w0 + m));
    }
    int64_t k = 0;
    while (k < num_windows) {
      const int64_t w0 = base_w0 + k * m;

      if (P > 0 && HorizontallyPruned(pivot_corrs.data() + k * P * n, P, n,
                                      beta, query.absolute, i, j)) {
        ++local_stats->cells_horizontal_pruned;
        ++k;
        continue;
      }

      // O(1) exact range correlation from the dot prefix and the hoisted
      // moments: no divide or sqrt per cell.
      const double corr = ExactCellCorrelation(
          dot, w0, ns, range_sum.data() + k * n,
          range_inv_css.data() + k * n, inv_count, i, j);
      ++local_stats->cells_evaluated;

      int64_t max_steps = num_windows - 1 - k;
      if (options.max_jump_steps > 0) {
        max_steps = std::min(max_steps, options.max_jump_steps);
      }

      if (query.IsEdge(corr)) {
        (*local_windows)[static_cast<size_t>(k)].push_back(
            Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
        if (options.enable_jumping && options.enable_above_jumping) {
          // Edge persists while it provably stays on the same side of its
          // threshold: >= beta for positive edges, <= -beta for negative
          // (absolute-mode) edges.
          const int64_t skip =
              corr >= beta
                  ? bound.MaxSkippableAbove(pair, w0, corr, beta, max_steps)
                  : bound.MaxSkippableBelow(pair, w0, corr, -beta,
                                            max_steps);
          if (skip > 0) {
            // Skipped windows stay edges; report the anchor value (the
            // bound certifies threshold crossing, not the exact value).
            for (int64_t d = 1; d <= skip; ++d) {
              (*local_windows)[static_cast<size_t>(k + d)].push_back(
                  Edge{static_cast<int32_t>(i), static_cast<int32_t>(j),
                       corr});
            }
            local_stats->cells_jumped += skip;
            ++local_stats->jumps;
            k += skip;
          }
        }
        ++k;
      } else {
        if (options.enable_jumping) {
          // A non-edge is skippable while the bounds confine it below beta
          // (plain mode) or inside (-beta, beta) (absolute mode).
          const int64_t skip =
              query.absolute
                  ? bound.MaxSkippableWithin(pair, w0, corr, -beta, beta,
                                             max_steps)
                  : bound.MaxSkippableBelow(pair, w0, corr, beta, max_steps);
          if (skip > 0) {
            // Windows k+1 .. k+skip are assumed non-edges: nothing emitted.
            local_stats->cells_jumped += skip;
            ++local_stats->jumps;
            k += skip;
          }
        }
        ++k;
      }
    }

    // Advance (i, j) to the next canonical pair.
    ++j;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

// The plain-threshold jump walk (jumping on, no absolute threshold, no
// above-threshold jumps, no pruning) over pairs [pair_begin, pair_end),
// one pair octet at a time and window-major inside it, like the exact
// sweep: window k reads the octet's 1 - c slot line and, when some pair
// evaluates there, its two dot slot lines — aligned loads the 8 pairs
// share, in ascending order. Each pair still takes the per-pair walk's
// steps: after evaluating a non-edge at window a it skips while
// UpperBound(a -> k) < beta, and evaluates at the first window where that
// fails (or the jump cap ends the skip). The bound reads one prefix slot,
// which is non-decreasing along the windows, and its roundings are
// monotone, so it holds on an exact prefix of the steps: the first failure
// is where MaxSkippableBelow's bisection ends, and the windows evaluated,
// the edges, their values and the counters all equal the per-pair walk's
// (ProcessPairBlock). An octet emits window k's edges in lane order before
// the next octet's, so each window stays in ascending pair order.
// Prefetch distance of JumpWalkOctets. Single-threaded, 256 climate
// stations over a year, 16-window queries: no prefetch 2.8 ms; the next
// octets' 1 - c lines only, 1/2/4/8 octets ahead, 2.3-2.5 ms; every line
// the walk may read (1 - c and both dot slots per window), 2/4/8 ahead,
// 1.6 ms.
constexpr int64_t kJumpWalkPrefetchOctets = 4;

void JumpWalkOctets(const BasicWindowIndex& index, const SlidingQuery& query,
                    int64_t pair_begin, int64_t pair_end, int64_t base_w0,
                    int64_t ns, int64_t m, int64_t max_jump_steps,
                    const std::vector<double>& range_sum,
                    const std::vector<double>& range_inv_css,
                    std::vector<std::vector<Edge>>* local_windows,
                    EngineStats* local_stats) {
  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const double beta = query.threshold;
  const Vec8 vbeta = SplatVec8(beta);
  const Vec8 vns = SplatVec8(static_cast<double>(ns));
  const Vec8 vic = SplatVec8(1.0 / static_cast<double>(query.window));
  const Vec8 vone = SplatVec8(1.0);
  const Vec8 vneg_one = SplatVec8(-1.0);
  const Int64x8 lane_bit = {1, 2, 4, 8, 16, 32, 64, 128};

  int64_t i = 0;
  int64_t j = 0;
  if (pair_begin < pair_end) {
    BasicWindowIndex::PairFromId(pair_begin, n, &i, &j);
  }
  for (int64_t p = pair_begin; p < pair_end;) {
    const int64_t first = index.OctetFirstPair(p);
    const int lane_begin = static_cast<int>(p - first);
    const int lane_end =
        static_cast<int>(std::min<int64_t>(kPairOctet, pair_end - first));
    const double* dot = index.PairDotOctet(first);
    const double* omc = index.PairOneMinusCorrOctet(first);
    // An octet's lines are a short run, octets apart: too short for the
    // hardware prefetcher, so the lines the walk may read from the octet
    // kJumpWalkPrefetchOctets ahead are fetched now.
    const int64_t ahead = first + kJumpWalkPrefetchOctets * kPairOctet;
    if (ahead < pair_end) {
      const double* dot_ahead = index.PairDotOctet(ahead);
      const double* omc_ahead = index.PairOneMinusCorrOctet(ahead);
      for (int64_t k = 0; k < num_windows; ++k) {
        const int64_t w0 = base_w0 + k * m;
        __builtin_prefetch(omc_ahead + PairOctetSlot(0, w0));
        __builtin_prefetch(dot_ahead + PairOctetSlot(0, w0));
        __builtin_prefetch(dot_ahead + PairOctetSlot(0, w0 + ns));
      }
    }
    // Series of each lane; lanes outside the range read series 0.
    int32_t si[kPairOctet] = {};
    int32_t sj[kPairOctet] = {};
    unsigned active = 0;
    for (int l = lane_begin; l < lane_end; ++l) {
      si[l] = static_cast<int32_t>(i);
      sj[l] = static_cast<int32_t>(j);
      active |= 1u << l;
      ++j;
      if (j >= n) {
        ++i;
        j = i + 1;
      }
    }
    // One row run: the lanes' moments are a splat and a contiguous load,
    // as in the exact sweep; otherwise they are gathered lane by lane.
    const bool row_run = active == 0xffu && si[0] == si[kPairOctet - 1];

    // Per lane: skipping (bit set) since anchor window `anchor`, whose
    // value is `corr` and 1 - c slot `origin`. A slot x below `below`
    // keeps the skip; above `above` ends it; in between UpperBound itself
    // decides. The band is 2^-40 of the magnitudes involved wide around the
    // crossing x = origin + ns * (beta - corr), far wider than the few
    // ulps its roundings and UpperBound's move it by (corr is clamped to
    // [-1, 1]); a NaN leaves every slot in the band.
    unsigned skipping = 0;
    Int64x8 anchor = {};
    Vec8 corr = {};
    Vec8 origin = {};
    Vec8 below = {};
    Vec8 above = {};
    for (int64_t k = 0; k < num_windows; ++k) {
      const int64_t w0 = base_w0 + k * m;
      const Vec8 x = LoadVec8(omc + PairOctetSlot(0, w0));
      unsigned evaluate = active & ~skipping;
      if (skipping != 0) {
        Int64x8 keep = x < below;
        const Int64x8 unsure = ~keep & ~(x > above);
        if (MaskBits(unsure) != 0) {
          keep = unsure ? Int64x8(corr + (x - origin) / vns < vbeta) : keep;
        }
        if (max_jump_steps > 0) {
          keep &= k - anchor <= max_jump_steps;
        }
        const unsigned ended = skipping & ~MaskBits(keep);
        for (unsigned e = ended; e != 0; e &= e - 1) {
          const int l = __builtin_ctz(e);
          const int64_t skip = k - anchor[l] - 1;
          if (skip > 0) {
            local_stats->cells_jumped += skip;
            ++local_stats->jumps;
          }
        }
        skipping &= ~ended;
        evaluate |= ended;
      }
      if (evaluate == 0) {
        continue;
      }

      // The exact cell, lane for lane the operation sequence of
      // ExactCellCorrelation (and of the exact sweep's vector body).
      const double* sums = range_sum.data() + k * n;
      const double* invs = range_inv_css.data() + k * n;
      Vec8 sum_i;
      Vec8 sum_j;
      Vec8 inv_i;
      Vec8 inv_j;
      if (row_run) {
        sum_i = SplatVec8(sums[si[0]]);
        inv_i = SplatVec8(invs[si[0]]);
        sum_j = LoadVec8(sums + sj[0]);
        inv_j = LoadVec8(invs + sj[0]);
      } else {
        for (int l = 0; l < kPairOctet; ++l) {
          sum_i[l] = sums[si[l]];
          inv_i[l] = invs[si[l]];
          sum_j[l] = sums[sj[l]];
          inv_j[l] = invs[sj[l]];
        }
      }
      const Vec8 d = LoadVec8(dot + PairOctetSlot(0, w0 + ns)) -
                     LoadVec8(dot + PairOctetSlot(0, w0));
      const Vec8 cov = d - sum_i * sum_j * vic;
      Vec8 c = cov * inv_i * inv_j;
      c = c < vneg_one ? vneg_one : (c > vone ? vone : c);
      local_stats->cells_evaluated += __builtin_popcount(evaluate);

      const unsigned edges = evaluate & MaskBits(c >= vbeta);
      for (unsigned e = edges; e != 0; e &= e - 1) {
        const int l = __builtin_ctz(e);
        (*local_windows)[static_cast<size_t>(k)].push_back(
            Edge{si[l], sj[l], c[l]});
      }
      // Non-edges anchor a skip; edges evaluate the next window.
      const unsigned anchored = evaluate & ~edges;
      if (anchored != 0) {
        const Int64x8 take = ((Int64x8{} + anchored) & lane_bit) != 0;
        const Vec8 abs_c = c < 0.0 ? -c : c;
        const Vec8 abs_x = x < 0.0 ? -x : x;
        const Vec8 crossing = x + vns * (vbeta - c);
        const Vec8 band =
            0x1p-40 * (abs_x + vns * (SplatVec8(std::fabs(beta)) + abs_c +
                                      vone));
        anchor = take ? Int64x8{} + k : anchor;
        corr = take ? c : corr;
        origin = take ? x : origin;
        below = take ? crossing - band : below;
        above = take ? crossing + band : above;
        skipping |= anchored;
      }
    }
    for (unsigned e = skipping; e != 0; e &= e - 1) {
      const int l = __builtin_ctz(e);
      const int64_t skip = num_windows - 1 - anchor[l];
      if (skip > 0) {
        local_stats->cells_jumped += skip;
        ++local_stats->jumps;
      }
    }
    p = first + lane_end;
  }
}

// Window-major exact sweep (jumping off): windows advance in bands of
// kSweepWindowBand; within a band, pair tiles run in parallel through the
// vectorized sweep kernel (or the scalar pruned cell loop when horizontal
// pruning is on), then each of the band's windows is assembled flat —
// already sorted — and emitted in order. The engine itself streams:
// OnWindow(0) leaves after band/num_windows of the sweep instead of after
// all of it, while the band amortizes each octet's per-pass overhead over
// its windows (see kSweepWindowBand). The tile decomposition is fixed
// (kSweepTilePairs), not thread-derived, and cells are independent, so
// results are identical for every thread count — and bit-identical to the
// pair-major scalar loop (the kernel mirrors its per-cell operation
// sequence exactly).
Status RunWindowMajorSweep(const DangoronOptions& options,
                           const BasicWindowIndex& index,
                           const SlidingQuery& query, ThreadPool* pool,
                           EngineStats* stats, WindowSink* sink,
                           int64_t base_w0, int64_t ns, int64_t m,
                           const std::vector<double>& range_sum,
                           const std::vector<double>& range_inv_css,
                           const std::vector<double>& pivot_corrs) {
  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const int64_t num_pairs = n * (n - 1) / 2;
  // Pair-range restriction (sharding): tiles cover [pair_lo, pair_hi) only.
  // Cells are independent, so the per-cell operation sequence — and with it
  // the emitted edges — is identical to the same pairs' cells in an
  // unrestricted run, whatever the tile alignment.
  const auto [pair_lo, pair_hi] = query.PairRange(num_pairs);
  const int64_t num_tiles =
      std::max<int64_t>(int64_t{1}, CeilDiv(pair_hi - pair_lo, kSweepTilePairs));
  const int num_pool_threads = pool != nullptr ? pool->num_threads() : 1;
  const double beta = query.threshold;
  const double inv_count = 1.0 / static_cast<double>(query.window);
  const int64_t P = options.horizontal_pruning ? options.num_pivots : 0;

  SweepEdgeArena arena(num_tiles, kSweepWindowBand);
  std::vector<EngineStats> tile_stats(static_cast<size_t>(num_tiles));
  auto fold_tile_stats = [&]() {
    for (const EngineStats& s : tile_stats) {
      stats->cells_evaluated += s.cells_evaluated;
      stats->cells_horizontal_pruned += s.cells_horizontal_pruned;
    }
  };

  SweepView view;
  view.dot_prefix = index.PairDotPrefix();
  view.octet_stride = index.PairOctetStride();
  view.pair_base = index.pair_begin();
  view.range_sum = range_sum.data();
  view.range_inv_css = range_inv_css.data();
  view.num_series = n;
  view.inv_count = inv_count;
  view.threshold = beta;
  view.absolute = query.absolute;

  for (int64_t band_begin = 0; band_begin < num_windows;
       band_begin += kSweepWindowBand) {
    // Band boundary is the sweep's cancellation cadence, so it is also the
    // fault-injection site: an injected delay stretches every band (how
    // deadline tests make a sweep provably slow), an injected error aborts
    // the sweep through the same terminal OnFinish path as a real failure.
    if (Status injected = DANGORON_FAILPOINT_STATUS("sweep.band");
        !injected.ok()) {
      fold_tile_stats();
      sink->OnFinish(injected);
      return injected;
    }
    const int64_t band_end =
        std::min(num_windows, band_begin + kSweepWindowBand);
    arena.BeginBand();

    auto run_tile = [&](int64_t t) {
      const int64_t pair_begin = pair_lo + t * kSweepTilePairs;
      const int64_t pair_end =
          std::min(pair_hi, pair_begin + kSweepTilePairs);
      if (pair_begin >= pair_end) {
        return;  // no pairs at all (single-series data)
      }
      int64_t i = 0;
      int64_t j = 0;
      BasicWindowIndex::PairFromId(pair_begin, n, &i, &j);
      EngineStats* local = &tile_stats[static_cast<size_t>(t)];
      std::vector<Edge>* out_windows = arena.tile_windows(t);
      if (P == 0) {
        SweepWindowBandPairRange(view, base_w0, ns, m, band_begin, band_end,
                                 pair_begin, pair_end, i, j, out_windows);
        local->cells_evaluated +=
            (pair_end - pair_begin) * (band_end - band_begin);
        return;
      }
      // Pruned cells are inherently branchy (per-cell pivot-interval
      // intersection), so this leg stays scalar — the same shared cell
      // helpers as the pair-major loop, visited in window-major order for
      // the streaming emission.
      for (int64_t pair = pair_begin; pair < pair_end; ++pair) {
        const BasicWindowIndex::PairLane dot = index.PairDotLane(pair);
        for (int64_t k = band_begin; k < band_end; ++k) {
          if (HorizontallyPruned(pivot_corrs.data() + k * P * n, P, n, beta,
                                 query.absolute, i, j)) {
            ++local->cells_horizontal_pruned;
            continue;
          }
          const double corr = ExactCellCorrelation(
              dot, base_w0 + k * m, ns, range_sum.data() + k * n,
              range_inv_css.data() + k * n, inv_count, i, j);
          ++local->cells_evaluated;
          if (query.IsEdge(corr)) {
            out_windows[k - band_begin].push_back(Edge{
                static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
          }
        }
        ++j;
        if (j >= n) {
          ++i;
          j = i + 1;
        }
      }
    };

    if (pool != nullptr && num_pool_threads > 1 && num_tiles > 1) {
      pool->ParallelFor(num_tiles, run_tile);
    } else {
      for (int64_t t = 0; t < num_tiles; ++t) {
        run_tile(t);
      }
    }

    for (int64_t k = band_begin; k < band_end; ++k) {
      if (!sink->OnWindow(k, arena.AssembleWindow(k - band_begin))) {
        fold_tile_stats();
        return FinishCancelled(sink, "DangoronEngine", k);
      }
    }
  }
  fold_tile_stats();
  sink->OnFinish(Status::Ok());
  return Status::Ok();
}

}  // namespace

DangoronEngine::DangoronEngine(const DangoronOptions& options)
    : options_(options) {}

Result<BasicWindowIndex> DangoronEngine::BuildIndex(
    const TimeSeriesMatrix& data, const DangoronOptions& options,
    ThreadPool* pool) {
  if (options.basic_window <= 0) {
    return Status::InvalidArgument("DangoronEngine: basic_window must be > 0");
  }
  BasicWindowIndexOptions index_options;
  index_options.basic_window = options.basic_window;
  index_options.build_pair_sketches = true;
  return BasicWindowIndex::Build(data, index_options, pool);
}

Status DangoronEngine::Prepare(const TimeSeriesMatrix& data) {
  if (options_.horizontal_pruning && options_.num_pivots <= 0) {
    return Status::InvalidArgument(
        "DangoronEngine: horizontal pruning needs num_pivots > 0");
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  } else {
    pool_.reset();
  }
  ASSIGN_OR_RETURN(BasicWindowIndex index,
                   BuildIndex(data, options_, pool_.get()));
  index_ = std::move(index);
  data_ = &data;
  return Status::Ok();
}

Status DangoronEngine::QueryToSink(const SlidingQuery& query,
                                   WindowSink* sink) {
  if (data_ == nullptr || !index_.has_value()) {
    return Status::FailedPrecondition("DangoronEngine: Prepare not called");
  }
  stats_.Reset();
  return QueryPreparedToSink(options_, *index_, query, pool_.get(), &stats_,
                             sink, &pivots_);
}

Result<CorrelationMatrixSeries> DangoronEngine::QueryPrepared(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
    std::vector<int64_t>* pivots_out) {
  CollectingWindowSink sink;
  RETURN_IF_ERROR(QueryPreparedToSink(options, index, query, pool, stats,
                                      &sink, pivots_out));
  return sink.TakeSeries();
}

Status DangoronEngine::QueryPreparedToSink(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
    WindowSink* sink, std::vector<int64_t>* pivots_out) {
  const int64_t b = options.basic_window;
  if (b != index.basic_window()) {
    return Status::InvalidArgument(
        "DangoronEngine: options.basic_window ", b,
        " does not match the prepared index's ", index.basic_window());
  }
  RETURN_IF_ERROR(query.Validate(index.data().length()));
  if (query.start % b != 0 || query.window % b != 0 || query.step % b != 0) {
    return Status::InvalidArgument(
        "DangoronEngine: query start/window/step must be multiples of the "
        "basic window ",
        b, " (got start=", query.start, " window=", query.window,
        " step=", query.step,
        "); use TsubasaEngine for arbitrary alignment");
  }
  if (options.horizontal_pruning && options.num_pivots <= 0) {
    return Status::InvalidArgument(
        "DangoronEngine: horizontal pruning needs num_pivots > 0");
  }
  EngineStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }

  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const int64_t num_pairs = n * (n - 1) / 2;
  // A pair-range restriction shrinks the evaluated problem; stats report
  // the restricted size so shard-local counters add up to the full query's
  // across a sharded deployment.
  const auto [pair_lo, pair_hi] = query.PairRange(num_pairs);
  const int64_t eval_pairs = pair_hi - pair_lo;
  const int64_t base_w0 = query.start / b;
  const int64_t ns = query.window / b;
  const int64_t m = query.step / b;
  stats->num_windows = num_windows;
  stats->num_pairs = eval_pairs;
  stats->cells_total = num_windows * eval_pairs;

  // The last window must be fully covered by indexed basic windows.
  const int64_t last_needed_bw = base_w0 + (num_windows - 1) * m + ns;
  if (last_needed_bw > index.num_basic_windows()) {
    return Status::OutOfRange(
        "DangoronEngine: query needs basic windows up to ", last_needed_bw,
        " but only ", index.num_basic_windows(), " are indexed");
  }
  // A range-built index holds only its own pairs' rows: the evaluated pairs
  // must lie inside it, and pivot scans (pairs (z, s) across the whole
  // clique) need every row.
  if (!index.CoversPairs(pair_lo, pair_hi)) {
    return Status::OutOfRange("DangoronEngine: query needs pairs [", pair_lo,
                              ", ", pair_hi, ") but the index holds [",
                              index.pair_begin(), ", ", index.pair_end(), ")");
  }
  if (options.horizontal_pruning && !index.HasAllPairs()) {
    return Status::FailedPrecondition(
        "DangoronEngine: horizontal pruning scans pivot pairs across all ",
        num_pairs, " pairs but the index holds only [", index.pair_begin(),
        ", ", index.pair_end(), ")");
  }
  RETURN_IF_ERROR(sink->OnBegin(query, n));

  const int num_pool_threads = pool != nullptr ? pool->num_threads() : 1;

  // Hoisted per-(window, series) range moments, window-major [k * n + s]:
  // the query-range sum and the reciprocal of the centered root sum of
  // squares (0 for a degenerate series, making every correlation with it
  // exactly 0, the PearsonFromMoments guard). Computed once so neither the
  // pivot precomputation nor the pair loop ever divides or square-roots per
  // cell. Parallel over windows; identical for any thread count.
  const double window_count = static_cast<double>(query.window);
  std::vector<double> range_sum(static_cast<size_t>(num_windows * n));
  std::vector<double> range_inv_css(static_cast<size_t>(num_windows * n));
  auto fill_window_moments = [&](int64_t k) {
    const int64_t w0 = base_w0 + k * m;
    double* sums = range_sum.data() + k * n;
    double* invs = range_inv_css.data() + k * n;
    for (int64_t s = 0; s < n; ++s) {
      const double sum = index.SumRange(s, w0, w0 + ns);
      const double css =
          index.SumSqRange(s, w0, w0 + ns) - sum * sum / window_count;
      sums[s] = sum;
      invs[s] = css > kMomentVarianceEps ? 1.0 / std::sqrt(css) : 0.0;
    }
  };
  if (pool != nullptr && num_pool_threads > 1 && num_windows > 1) {
    pool->ParallelFor(num_windows, fill_window_moments);
  } else {
    for (int64_t k = 0; k < num_windows; ++k) {
      fill_window_moments(k);
    }
  }

  // Pivot correlations for horizontal pruning: pivot_corrs[k * P * n + p * n
  // + s] = corr(pivot_p, series_s) in window k, computed exactly in O(1)
  // per cell from the pair sketches and the hoisted moments, parallel over
  // windows.
  std::vector<double> pivot_corrs;
  std::vector<int64_t> pivots;
  if (options.horizontal_pruning) {
    const int64_t P = options.num_pivots;
    for (int64_t p = 0; p < P; ++p) {
      pivots.push_back(p * n / P);  // evenly spaced, deterministic
    }
    pivot_corrs.assign(static_cast<size_t>(num_windows * P * n), 1.0);
    auto fill_window_pivots = [&](int64_t k) {
      const int64_t w0 = base_w0 + k * m;
      const double* sums = range_sum.data() + k * n;
      const double* invs = range_inv_css.data() + k * n;
      for (int64_t p = 0; p < P; ++p) {
        const int64_t z = pivots[static_cast<size_t>(p)];
        double* out = pivot_corrs.data() + (k * P + p) * n;
        const double sum_z = sums[z];
        const double inv_z = invs[z];
        for (int64_t s = 0; s < n; ++s) {
          if (s == z) {
            continue;  // stays 1.0
          }
          const int64_t pair = BasicWindowIndex::PairId(z, s, n);
          const double cov = index.DotRange(pair, w0, w0 + ns) -
                             sum_z * sums[s] / window_count;
          out[s] = ClampCorrelation(cov * inv_z * invs[s]);
        }
      }
    };
    if (pool != nullptr && num_pool_threads > 1 && num_windows > 1) {
      pool->ParallelFor(num_windows, fill_window_pivots);
    } else {
      for (int64_t k = 0; k < num_windows; ++k) {
        fill_window_pivots(k);
      }
    }
    stats->pivot_evaluations += num_windows * P * (n - 1);
  }
  if (pivots_out != nullptr) {
    *pivots_out = pivots;
  }

  // Exact mode goes window-major through the sweep kernel: windows are
  // emitted while the sweep runs. The jumping path below must stay
  // pair-major — a jump decision at window k determines whether windows
  // k+1.. are even evaluated for that pair — and doubles as the scalar
  // differential oracle when use_sweep_kernel is off.
  if (!options.enable_jumping && options.use_sweep_kernel) {
    return RunWindowMajorSweep(options, index, query, pool, stats, sink,
                               base_w0, ns, m, range_sum, range_inv_css,
                               pivot_corrs);
  }

  // Pair-block decomposition: contiguous ranges of pair ids, processed
  // independently. Deterministic regardless of thread count.
  const int64_t num_blocks =
      num_pool_threads > 1
          ? std::min<int64_t>(eval_pairs,
                              static_cast<int64_t>(num_pool_threads) * 8)
          : 1;
  const int64_t block_size = num_blocks > 0 ? CeilDiv(eval_pairs, num_blocks) : 0;

  std::vector<std::vector<std::vector<Edge>>> block_windows(
      static_cast<size_t>(num_blocks));
  std::vector<EngineStats> block_stats(static_cast<size_t>(num_blocks));

  // The common approx shape takes the window-major octet walk; the others
  // (absolute thresholds, above-threshold jumps, pruning, and the scalar
  // exact oracle) walk pair by pair.
  const bool plain_jumps = options.enable_jumping &&
                           !options.enable_above_jumping && !query.absolute &&
                           !options.horizontal_pruning &&
                           options.use_sweep_kernel;
  auto run_block = [&](int64_t block) {
    const int64_t pair_begin = pair_lo + block * block_size;
    const int64_t pair_end = std::min(pair_hi, pair_begin + block_size);
    auto& local = block_windows[static_cast<size_t>(block)];
    local.assign(static_cast<size_t>(num_windows), {});
    if (plain_jumps) {
      JumpWalkOctets(index, query, pair_begin, pair_end, base_w0, ns, m,
                     options.max_jump_steps, range_sum, range_inv_css, &local,
                     &block_stats[static_cast<size_t>(block)]);
    } else {
      ProcessPairBlock(options, index, query, pair_begin, pair_end, base_w0,
                       ns, m, range_sum, range_inv_css, pivot_corrs, &local,
                       &block_stats[static_cast<size_t>(block)]);
    }
  };

  if (pool != nullptr && num_blocks > 1) {
    pool->ParallelFor(num_blocks, run_block);
  } else {
    for (int64_t block = 0; block < num_blocks; ++block) {
      run_block(block);
    }
  }

  for (const EngineStats& s : block_stats) {
    stats->cells_evaluated += s.cells_evaluated;
    stats->cells_jumped += s.cells_jumped;
    stats->cells_horizontal_pruned += s.cells_horizontal_pruned;
    stats->jumps += s.jumps;
  }

  // Emit windows in order, each as soon as it is assembled instead of
  // after the whole series is stitched. Blocks cover ascending pair ranges
  // and each appends its pairs in ascending order (a jump's skipped windows
  // are filled by the pair being walked, after every smaller pair), so the
  // concatenation in block order is already the canonical (i, j) order.
  for (int64_t k = 0; k < num_windows; ++k) {
    std::vector<Edge> window;
    if (num_blocks == 1) {
      window = std::move(block_windows[0][static_cast<size_t>(k)]);
    } else {
      size_t total = 0;
      for (const auto& local : block_windows) {
        total += local[static_cast<size_t>(k)].size();
      }
      window.reserve(total);
      for (const auto& local : block_windows) {
        const auto& edges = local[static_cast<size_t>(k)];
        window.insert(window.end(), edges.begin(), edges.end());
      }
    }
    if (!sink->OnWindow(k, std::move(window))) {
      return FinishCancelled(sink, "DangoronEngine", k);
    }
  }
  sink->OnFinish(Status::Ok());
  return Status::Ok();
}

}  // namespace dangoron
