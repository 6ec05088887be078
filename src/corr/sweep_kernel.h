#ifndef DANGORON_CORR_SWEEP_KERNEL_H_
#define DANGORON_CORR_SWEEP_KERNEL_H_

#include <cstdint>
#include <vector>

#include "corr/block_kernel.h"
#include "engine/query.h"

namespace dangoron {

/// Pair-tile granularity of the window-major exact sweep. Fixed (not derived
/// from the thread count) so the tile decomposition — and with it the exact
/// SIMD/remainder split at tile boundaries — is identical for every pool
/// size; determinism across thread counts then needs no assumptions beyond
/// per-cell arithmetic being order-free, which it is (cells are
/// independent).
inline constexpr int64_t kSweepTilePairs = 1024;

/// Windows swept per pass over the pair tiles; windows are emitted at band
/// cadence, so time-to-first-window is band/num_windows of the sweep. The
/// band loop sits inside each 8-pair octet, whose slot lines are distinct
/// per window: a band saves no prefix traffic, it amortizes the octet's
/// per-pass overhead (pointer set-up, prefetch, tile dispatch) over its
/// windows. Measured on bench_query_time (single thread, 61 windows,
/// n = 256 / 512): band 1 3.8 / 29.0 ms, band 4 2.7 / 18.6, band 8
/// 2.5 / 17.9, band 16 2.5 / 18.9, band 32 2.8 / 19.7. Band 8 is as fast as
/// any and halves band 16's time-to-first-window.
inline constexpr int64_t kSweepWindowBand = 8;

/// Immutable per-query view the exact sweep kernel reads: the index's
/// octet-interleaved pair dot-prefix block plus the engine's hoisted range
/// moments (see DangoronEngine::QueryPreparedToSink). Prefix slot w of pair
/// p sits at `dot_prefix[PairSlotOffset(octet_stride, q, w)]` with
/// q = p - pair_base (BasicWindowIndex::PairDotPrefix / PairOctetStride /
/// pair_begin — a range-built index stores octets from its first pair on);
/// callers pass global pair ids. `range_sum` / `range_inv_css` are
/// window-major `[k * num_series + s]` — the query-range sum and reciprocal
/// centered root-sum-of-squares (0 for degenerate series) of series s in
/// window k.
struct SweepView {
  const double* dot_prefix = nullptr;
  int64_t octet_stride = 0;
  int64_t pair_base = 0;
  const double* range_sum = nullptr;
  const double* range_inv_css = nullptr;
  int64_t num_series = 0;
  /// 1 / query.window — the covariance normalizer.
  double inv_count = 0.0;
  double threshold = 0.0;
  bool absolute = false;
};

/// The banded window-major exact sweep: computes the correlations of the
/// contiguous pair-id range [pair_begin, pair_end) for windows
/// [k_begin, k_end) — window k covering basic windows
/// [base_w0 + k*m, base_w0 + k*m + ns) — and appends the edges clearing the
/// threshold to `out_windows[k - k_begin]`, each window's survivors in
/// ascending pair-id order (== the canonical (i, j) edge order, so
/// concatenating tile outputs in tile order yields sorted windows with no
/// sort pass).
///
/// `i0` / `j0` are the series ids of `pair_begin` (callers already know
/// them from BasicWindowIndex::PairFromId; corr/ stays below sketch/ in the
/// layering). The range is walked octet by octet along the index's octet
/// grid: an octet whose 8 pairs share one fixed-i run (so the j-side
/// moments are contiguous loads) vectorizes — two aligned slot-line loads,
/// one fused subtract, two multiplies and a clamp per lane, then one
/// branch-free threshold compare per 8-lane group. An octet cut by a row
/// boundary or by the range's ends takes a lane-exact scalar cell per pair.
/// The window loop sits *inside* the octet so its slot lines are reused
/// across the whole band. Per-cell arithmetic is the exact operation
/// sequence of the scalar pair-major cell (DangoronEngine's jumping loop),
/// so the two paths produce bit-identical edges.
void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows);

/// The survivor arena of the banded window-major sweep: one edge buffer per
/// (pair tile, band window), cleared — not deallocated — between bands,
/// replacing the per-block `vector<vector<vector<Edge>>>` nesting whose
/// per-window inner vectors were reallocated from scratch every query
/// (allocation churn that dominates at high thresholds, where windows hold
/// a handful of edges). Tile rows are written by concurrent tile tasks
/// (disjoint slots) and assembled into flat windows on the emitting thread.
class SweepEdgeArena {
 public:
  SweepEdgeArena(int64_t num_tiles, int64_t band)
      : band_(band), tiles_(static_cast<size_t>(num_tiles)) {
    for (std::vector<std::vector<Edge>>& tile : tiles_) {
      tile.resize(static_cast<size_t>(band));
    }
  }

  int64_t num_tiles() const { return static_cast<int64_t>(tiles_.size()); }
  int64_t band() const { return band_; }

  /// Tile t's per-band-window output row, indexable [0, band).
  std::vector<Edge>* tile_windows(int64_t t) {
    return tiles_[static_cast<size_t>(t)].data();
  }

  /// Clears every buffer, retaining capacity for the next band.
  void BeginBand() {
    for (std::vector<std::vector<Edge>>& tile : tiles_) {
      for (std::vector<Edge>& window : tile) {
        window.clear();
      }
    }
  }

  /// Concatenates band slot `b` of every tile, in tile order, into one flat
  /// window — already sorted by (i, j), because tiles cover ascending
  /// pair-id ranges and each tile appends in ascending pair-id order.
  std::vector<Edge> AssembleWindow(int64_t b) const {
    size_t total = 0;
    for (const std::vector<std::vector<Edge>>& tile : tiles_) {
      total += tile[static_cast<size_t>(b)].size();
    }
    std::vector<Edge> window;
    window.reserve(total);
    for (const std::vector<std::vector<Edge>>& tile : tiles_) {
      const std::vector<Edge>& part = tile[static_cast<size_t>(b)];
      window.insert(window.end(), part.begin(), part.end());
    }
    return window;
  }

 private:
  int64_t band_;
  std::vector<std::vector<std::vector<Edge>>> tiles_;
};

}  // namespace dangoron

#endif  // DANGORON_CORR_SWEEP_KERNEL_H_
