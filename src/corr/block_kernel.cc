#include "corr/block_kernel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

// Stats of one series within one basic window, in the forms the panel
// builder needs. The degenerate-window guard compares the same centered sum
// of squares against the same kMomentVarianceEps as the scalar moment
// kernels, so the two build paths agree on which windows are dead.
struct WindowZStats {
  double mean = 0.0;
  double stddev = 0.0;  // population; 0 for a degenerate window
  double scale = 0.0;   // 1 / sqrt(centered sum of squares); 0 if degenerate
};

inline WindowZStats ComputeWindowZStats(const double* x, int64_t b) {
  double sum = 0.0;
  double sumsq = 0.0;
  for (int64_t t = 0; t < b; ++t) {
    sum += x[t];
    sumsq += x[t] * x[t];
  }
  WindowZStats stats;
  stats.mean = sum / static_cast<double>(b);
  // Centered sum of squares (b * population variance), the exact quantity
  // PearsonFromMoments guards on. A degenerate window keeps stddev and
  // scale at 0: the zero scale zeroes the z row, making its correlations 0.
  const double var_b = sumsq - sum * sum / static_cast<double>(b);
  if (var_b > kMomentVarianceEps) {
    stats.stddev = std::sqrt(var_b / static_cast<double>(b));
    stats.scale = 1.0 / std::sqrt(var_b);
  }
  return stats;
}

}  // namespace

NormalizedPanels BuildNormalizedPanels(const TimeSeriesMatrix& data,
                                       int64_t basic_window,
                                       ThreadPool* pool) {
  CHECK_GT(basic_window, 0);
  NormalizedPanels panels;
  panels.num_series = data.num_series();
  panels.basic_window = basic_window;
  panels.num_windows = data.length() / basic_window;
  panels.num_tiles = CeilDiv(panels.num_series, kCorrTile);

  const int64_t n = panels.num_series;
  const int64_t b = basic_window;
  const int64_t nb = panels.num_windows;
  panels.values.assign(
      static_cast<size_t>(nb * panels.num_tiles * b * kCorrTile), 0.0);
  panels.mean.assign(static_cast<size_t>(nb * n), 0.0);
  panels.stddev.assign(static_cast<size_t>(nb * n), 0.0);

  // One task per series tile: window stats per series, then the transposing
  // fill of the tile's panels — contiguous kCorrTile-wide writes, with the
  // tile's raw row segments cache-hot. Columns past num_series stay zero.
  auto fill_tile = [&](int64_t tile) {
    const int64_t s_begin = tile * kCorrTile;
    const int64_t s_end = std::min(n, s_begin + kCorrTile);
    double mean_c[kCorrTile];
    double scale_c[kCorrTile];
    for (int64_t w = 0; w < nb; ++w) {
      for (int64_t s = s_begin; s < s_end; ++s) {
        const WindowZStats stats =
            ComputeWindowZStats(data.Row(s).data() + w * b, b);
        panels.mean[static_cast<size_t>(w * n + s)] = stats.mean;
        panels.stddev[static_cast<size_t>(w * n + s)] = stats.stddev;
        mean_c[s - s_begin] = stats.mean;
        scale_c[s - s_begin] = stats.scale;
      }
      double* panel = panels.values.data() +
                      static_cast<size_t>((w * panels.num_tiles + tile) * b *
                                          kCorrTile);
      for (int64_t t = 0; t < b; ++t) {
        double* zrow = panel + t * kCorrTile;
        for (int64_t s = s_begin; s < s_end; ++s) {
          zrow[s - s_begin] = (data.Row(s)[static_cast<size_t>(w * b + t)] -
                               mean_c[s - s_begin]) *
                              scale_c[s - s_begin];
        }
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1 && panels.num_tiles > 1) {
    pool->ParallelFor(panels.num_tiles, fill_tile);
  } else {
    for (int64_t tile = 0; tile < panels.num_tiles; ++tile) {
      fill_tile(tile);
    }
  }
  return panels;
}

namespace {

// Register geometry of the Gram micro-kernels. 16 columns are two Vec8
// accumulators; 4 rows give 8 independent accumulator chains, enough to
// cover FMA latency on two issue ports. Accumulators are loaded from /
// stored to `out` once per time chunk; the whole t loop runs
// register-resident with one contiguous 16-wide z load per (row group, t).
// (Explicit Vec8 accumulators matter: the equivalent local-array loops
// auto-vectorize but round-trip every accumulator through the stack each
// time step.)
constexpr int64_t kRegCols = 16;
constexpr int64_t kRegRows = kGramRowGroup;

// One output row r over local columns [c_from, c_end), accumulating
// [t_begin, t_end). `out_row` points at local column 0 of row r.
inline void GramRow1(const double* zrows, int64_t row_stride,
                     const double* zcols, int64_t col_stride, int64_t t_begin,
                     int64_t t_end, int64_t r, int64_t c_from, int64_t c_end,
                     double* out_row, bool load_acc) {
  for (int64_t cb = c_from; cb < c_end; cb += kRegCols) {
    const int64_t width = std::min<int64_t>(kRegCols, c_end - cb);
    double* dst = out_row + cb;
    const double* zr = zrows + t_begin * row_stride + r;
    const double* zc = zcols + t_begin * col_stride + cb;
    if (width == kRegCols) {
      Vec8 a0 = load_acc ? LoadVec8(dst) : SplatVec8(0.0);
      Vec8 a1 = load_acc ? LoadVec8(dst + 8) : SplatVec8(0.0);
      for (int64_t t = t_begin; t < t_end;
           ++t, zr += row_stride, zc += col_stride) {
        const Vec8 zrv = SplatVec8(*zr);
        a0 += zrv * LoadVec8(zc);
        a1 += zrv * LoadVec8(zc + 8);
      }
      StoreVec8(dst, a0);
      StoreVec8(dst + 8, a1);
    } else {
      double acc[kRegCols];
      for (int64_t u = 0; u < width; ++u) {
        acc[u] = load_acc ? dst[u] : 0.0;
      }
      for (int64_t t = t_begin; t < t_end;
           ++t, zr += row_stride, zc += col_stride) {
        const double zrv = *zr;
        for (int64_t u = 0; u < width; ++u) {
          acc[u] += zrv * zc[u];
        }
      }
      for (int64_t u = 0; u < width; ++u) {
        dst[u] = acc[u];
      }
    }
  }
}

// Four output rows r .. r+3 over local columns [c_from, c_end), sharing
// each z column load across the rows.
inline void GramRow4(const double* zrows, int64_t row_stride,
                     const double* zcols, int64_t col_stride, int64_t t_begin,
                     int64_t t_end, int64_t r, int64_t c_from, int64_t c_end,
                     double* out, int64_t out_stride, bool load_acc) {
  double* out_rows[kRegRows];
  for (int64_t v = 0; v < kRegRows; ++v) {
    out_rows[v] = out + (r + v) * out_stride;
  }
  for (int64_t cb = c_from; cb < c_end; cb += kRegCols) {
    const int64_t width = std::min<int64_t>(kRegCols, c_end - cb);
    const double* zr = zrows + t_begin * row_stride + r;
    const double* zc = zcols + t_begin * col_stride + cb;
    if (width == kRegCols) {
      Vec8 a00 = load_acc ? LoadVec8(out_rows[0] + cb) : SplatVec8(0.0);
      Vec8 a01 = load_acc ? LoadVec8(out_rows[0] + cb + 8) : SplatVec8(0.0);
      Vec8 a10 = load_acc ? LoadVec8(out_rows[1] + cb) : SplatVec8(0.0);
      Vec8 a11 = load_acc ? LoadVec8(out_rows[1] + cb + 8) : SplatVec8(0.0);
      Vec8 a20 = load_acc ? LoadVec8(out_rows[2] + cb) : SplatVec8(0.0);
      Vec8 a21 = load_acc ? LoadVec8(out_rows[2] + cb + 8) : SplatVec8(0.0);
      Vec8 a30 = load_acc ? LoadVec8(out_rows[3] + cb) : SplatVec8(0.0);
      Vec8 a31 = load_acc ? LoadVec8(out_rows[3] + cb + 8) : SplatVec8(0.0);
      for (int64_t t = t_begin; t < t_end;
           ++t, zr += row_stride, zc += col_stride) {
        const Vec8 c0 = LoadVec8(zc);
        const Vec8 c1 = LoadVec8(zc + 8);
        const Vec8 zr0 = SplatVec8(zr[0]);
        a00 += zr0 * c0;
        a01 += zr0 * c1;
        const Vec8 zr1 = SplatVec8(zr[1]);
        a10 += zr1 * c0;
        a11 += zr1 * c1;
        const Vec8 zr2 = SplatVec8(zr[2]);
        a20 += zr2 * c0;
        a21 += zr2 * c1;
        const Vec8 zr3 = SplatVec8(zr[3]);
        a30 += zr3 * c0;
        a31 += zr3 * c1;
      }
      StoreVec8(out_rows[0] + cb, a00);
      StoreVec8(out_rows[0] + cb + 8, a01);
      StoreVec8(out_rows[1] + cb, a10);
      StoreVec8(out_rows[1] + cb + 8, a11);
      StoreVec8(out_rows[2] + cb, a20);
      StoreVec8(out_rows[2] + cb + 8, a21);
      StoreVec8(out_rows[3] + cb, a30);
      StoreVec8(out_rows[3] + cb + 8, a31);
    } else {
      double acc[kRegRows][kRegCols];
      for (int64_t v = 0; v < kRegRows; ++v) {
        for (int64_t u = 0; u < width; ++u) {
          acc[v][u] = load_acc ? out_rows[v][cb + u] : 0.0;
        }
      }
      for (int64_t t = t_begin; t < t_end;
           ++t, zr += row_stride, zc += col_stride) {
        const double zr0 = zr[0];
        const double zr1 = zr[1];
        const double zr2 = zr[2];
        const double zr3 = zr[3];
        for (int64_t u = 0; u < width; ++u) {
          const double zcu = zc[u];
          acc[0][u] += zr0 * zcu;
          acc[1][u] += zr1 * zcu;
          acc[2][u] += zr2 * zcu;
          acc[3][u] += zr3 * zcu;
        }
      }
      for (int64_t v = 0; v < kRegRows; ++v) {
        for (int64_t u = 0; u < width; ++u) {
          out_rows[v][cb + u] = acc[v][u];
        }
      }
    }
  }
}

}  // namespace

void GramPanelTile(const double* zrows, int64_t row_stride, int64_t nrows,
                   const double* zcols, int64_t col_stride, int64_t ncols,
                   int64_t t_begin, int64_t t_end, bool upper_only,
                   int64_t diag, double* out, int64_t out_stride,
                   bool accumulate) {
  // Time chunking bounds the streamed working set so the z blocks a
  // row-group re-reads stay cache-resident; the per-cell summation order is
  // plain ascending t, independent of every blocking choice below.
  constexpr int64_t kTimeChunk = 512;
  for (int64_t tc = t_begin; tc < t_end; tc += kTimeChunk) {
    const int64_t te = std::min(t_end, tc + kTimeChunk);
    // Only the first chunk may overwrite; later chunks always fold in.
    const bool load_acc = accumulate || tc != t_begin;
    int64_t r = 0;
    for (; r + kRegRows <= nrows; r += kRegRows) {
      // In upper_only mode the 4-row group runs over the rectangle strictly
      // right of all four rows; the triangular sliver next to the diagonal
      // is finished per row.
      const int64_t group_c0 =
          upper_only ? std::max<int64_t>(0, r + diag + kRegRows) : 0;
      if (group_c0 < ncols) {
        GramRow4(zrows, row_stride, zcols, col_stride, tc, te, r, group_c0,
                 ncols, out, out_stride, load_acc);
      }
      if (upper_only) {
        for (int64_t v = 0; v < kRegRows; ++v) {
          const int64_t c_from = std::max<int64_t>(0, r + v + diag + 1);
          if (c_from < group_c0) {
            GramRow1(zrows, row_stride, zcols, col_stride, tc, te, r + v,
                     c_from, std::min(group_c0, ncols),
                     out + (r + v) * out_stride, load_acc);
          }
        }
      }
    }
    for (; r < nrows; ++r) {
      const int64_t c0 = upper_only ? std::max<int64_t>(0, r + diag + 1) : 0;
      if (c0 < ncols) {
        GramRow1(zrows, row_stride, zcols, col_stride, tc, te, r, c0, ncols,
                 out + r * out_stride, load_acc);
      }
    }
  }
}

void GramAccumulateTile(const double* zt, int64_t num_series, int64_t t_begin,
                        int64_t t_end, int64_t row_begin, int64_t row_end,
                        int64_t col_begin, int64_t col_end, bool upper_only,
                        double* out, int64_t out_stride, bool accumulate) {
  GramPanelTile(zt + row_begin, num_series, row_end - row_begin,
                zt + col_begin, num_series, col_end - col_begin, t_begin,
                t_end, upper_only, row_begin - col_begin, out, out_stride,
                accumulate);
}

void GramUpperTriangle(const double* zt, int64_t num_series, int64_t t_begin,
                       int64_t t_end, double* matrix, ThreadPool* pool) {
  const int64_t num_row_tiles = CeilDiv(num_series, kCorrTile);
  auto run_row_tile = [&](int64_t ti) {
    const int64_t row_begin = ti * kCorrTile;
    const int64_t row_end = std::min(num_series, row_begin + kCorrTile);
    for (int64_t tj = ti; tj < num_row_tiles; ++tj) {
      const int64_t col_begin = tj * kCorrTile;
      const int64_t col_end = std::min(num_series, col_begin + kCorrTile);
      GramAccumulateTile(zt, num_series, t_begin, t_end, row_begin, row_end,
                         col_begin, col_end, /*upper_only=*/tj == ti,
                         matrix + row_begin * num_series + col_begin,
                         num_series);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_row_tiles > 1) {
    pool->ParallelFor(num_row_tiles, run_row_tile);
  } else {
    for (int64_t ti = 0; ti < num_row_tiles; ++ti) {
      run_row_tile(ti);
    }
  }
}

}  // namespace dangoron
