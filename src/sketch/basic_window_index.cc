#include "sketch/basic_window_index.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <optional>
#include <tuple>

#include "common/logging.h"
#include "common/sync.h"
#include "common/math_utils.h"
#include "corr/block_kernel.h"
#include "corr/pearson.h"

namespace dangoron {

namespace {

// Largest pair sketch (both blocks) the blocked build writes with plain
// stores: half the 32 MiB last-level cache that one chiplet of a current
// server CPU shares among its cores, so a fresh sketch and the working set
// of the query that follows its build fit together.
constexpr int64_t kCachedSketchBytes = int64_t{16} << 20;

// Process-wide recycler for the big pair-prefix blocks. A fresh allocation
// of this size is served by mmap, and every page costs a fault plus kernel
// zeroing on first touch — for production-scale sketches that is a full
// extra sweep of memory bandwidth per rebuild, larger than the build's own
// arithmetic. Keeping a handful of retired blocks warm turns rebuilds into
// pure overwrites. Thread-safe; exact-size matching.
class SketchStorageRecycler {
 public:
  static SketchStorageRecycler& Instance() {
    static SketchStorageRecycler* recycler = new SketchStorageRecycler();
    return *recycler;
  }

  std::unique_ptr<double[]> Acquire(size_t size) {
    {
      MutexLock lock(mutex_);
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->first == size) {
          std::unique_ptr<double[]> block = std::move(it->second);
          retained_bytes_ -= size * sizeof(double);
          blocks_.erase(it);
          return block;
        }
      }
    }
    return std::make_unique_for_overwrite<double[]>(size);
  }

  void Release(std::unique_ptr<double[]> block, size_t size) {
    if (block == nullptr) {
      return;
    }
    MutexLock lock(mutex_);
    // Keep the newest blocks: rebuild loops retire and re-acquire the same
    // sizes back to back, so recency, not first-come, is what predicts
    // reuse. Retention is strictly bounded by count and bytes — a build
    // whose blocks alone exceed the byte budget gets no recycling rather
    // than pinning multi-GB dead memory for the process lifetime.
    blocks_.emplace_back(size, std::move(block));
    retained_bytes_ += size * sizeof(double);
    while (!blocks_.empty() && (blocks_.size() > kMaxBlocks ||
                                retained_bytes_ > kMaxRetainedBytes)) {
      retained_bytes_ -= blocks_.front().first * sizeof(double);
      blocks_.erase(blocks_.begin());
    }
  }

  size_t retained_bytes() {
    MutexLock lock(mutex_);
    return retained_bytes_;
  }

  void Trim() {
    MutexLock lock(mutex_);
    blocks_.clear();
    retained_bytes_ = 0;
  }

 private:
  // Two builds' worth (each build retires two blocks).
  static constexpr size_t kMaxBlocks = 4;
  static constexpr size_t kMaxRetainedBytes = size_t{512} << 20;

  Mutex mutex_;
  std::vector<std::pair<size_t, std::unique_ptr<double[]>>> blocks_
      GUARDED_BY(mutex_);
  size_t retained_bytes_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

int64_t SketchRecyclerRetainedBytes() {
  return static_cast<int64_t>(SketchStorageRecycler::Instance().retained_bytes());
}

void TrimSketchRecycler() { SketchStorageRecycler::Instance().Trim(); }

BasicWindowIndex::~BasicWindowIndex() {
  SketchStorageRecycler::Instance().Release(std::move(pair_dot_storage_),
                                            pair_storage_size_);
  SketchStorageRecycler::Instance().Release(std::move(pair_omc_storage_),
                                            pair_storage_size_);
}

BasicWindowIndex& BasicWindowIndex::operator=(
    BasicWindowIndex&& other) noexcept {
  if (this != &other) {
    // Destroy-and-move-construct: the destructor recycles this index's
    // sketch storage, and the defaulted move constructor keeps tracking
    // members without a hand-maintained member list.
    this->~BasicWindowIndex();
    new (this) BasicWindowIndex(std::move(other));
  }
  return *this;
}

int64_t BasicWindowIndex::PairId(int64_t i, int64_t j, int64_t num_series) {
  DCHECK_NE(i, j);
  if (i > j) {
    std::swap(i, j);
  }
  DCHECK_GE(i, 0);
  DCHECK_LT(j, num_series);
  // Row-major upper triangle: offset of row i plus column displacement.
  return i * (2 * num_series - i - 1) / 2 + (j - i - 1);
}

void BasicWindowIndex::PairFromId(int64_t pair_id, int64_t num_series,
                                  int64_t* i, int64_t* j) {
  DCHECK_GE(pair_id, 0);
  DCHECK_LT(pair_id, num_series * (num_series - 1) / 2);
  // Closed-form inversion of the triangular layout. Counting q pairs from
  // the *end*, rows fill a lower triangle: the last row (i = n-2) holds 1
  // pair, the one before it 2, ... so the row counted-from-the-end is the
  // triangular root k of q, and (i, j) follow in O(1).
  const int64_t q = num_series * (num_series - 1) / 2 - 1 - pair_id;
  int64_t k = static_cast<int64_t>(
      (std::sqrt(8.0 * static_cast<double>(q) + 1.0) - 1.0) / 2.0);
  // The sqrt can land one off for huge ids; nudge onto the exact row.
  while ((k + 1) * (k + 2) / 2 <= q) {
    ++k;
  }
  while (k * (k + 1) / 2 > q) {
    --k;
  }
  *i = num_series - 2 - k;
  *j = num_series - 1 - (q - k * (k + 1) / 2);
}

Result<BasicWindowIndex> BasicWindowIndex::Build(
    const TimeSeriesMatrix& data, const BasicWindowIndexOptions& options,
    ThreadPool* pool) {
  if (data.empty()) {
    return Status::InvalidArgument("BasicWindowIndex: empty matrix");
  }
  if (options.basic_window <= 0) {
    return Status::InvalidArgument("BasicWindowIndex: basic_window must be > 0");
  }
  if (data.length() < options.basic_window) {
    return Status::InvalidArgument("BasicWindowIndex: series length ",
                                   data.length(),
                                   " shorter than one basic window of ",
                                   options.basic_window);
  }
  if (data.CountMissing() > 0) {
    return Status::FailedPrecondition(
        "BasicWindowIndex: data contains missing values; run "
        "InterpolateMissing first");
  }
  if (options.pair_begin < 0 || options.pair_end < 0) {
    return Status::InvalidArgument("BasicWindowIndex: pair range [",
                                   options.pair_begin, ", ", options.pair_end,
                                   ") is negative");
  }

  BasicWindowIndex index;
  index.data_ = &data;
  index.basic_window_ = options.basic_window;
  index.num_basic_windows_ = data.length() / options.basic_window;
  index.num_series_ = data.num_series();
  index.num_pairs_ = data.num_series() * (data.num_series() - 1) / 2;
  index.has_pair_sketches_ = options.build_pair_sketches;
  if (options.build_pair_sketches) {
    std::tie(index.pair_begin_, index.pair_end_) =
        StoredPairRange(options, index.num_pairs_);
  }

  const int64_t nb = index.num_basic_windows_;
  const int64_t b = index.basic_window_;
  const int64_t n = index.num_series_;

  const bool threaded = pool != nullptr && pool->num_threads() > 1;
  auto parallel_for = [&](int64_t count,
                          const std::function<void(int64_t)>& body) {
    if (threaded && count > 1) {
      pool->ParallelFor(count, body);
    } else {
      for (int64_t v = 0; v < count; ++v) {
        body(v);
      }
    }
  };

  const bool blocked = options.build_pair_sketches && options.use_blocked_kernel;

  // Per-series prefixes.
  index.series_sum_prefix_.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  index.series_sumsq_prefix_.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  std::optional<NormalizedPanels> panels;
  if (blocked) {
    // The panel normalization already computed every window's mean and
    // std-dev; the prefixes fold from those stats instead of re-scanning
    // the raw matrix (window sum = b * mean, window sum of squares =
    // b * (sd^2 + mean^2), exact up to one rounding).
    panels = BuildNormalizedPanels(data, b, pool);
    parallel_for(n, [&](int64_t s) {
      const double bw = static_cast<double>(b);
      double sum_acc = 0.0;
      double sumsq_acc = 0.0;
      index.series_sum_prefix_[index.Sx(s, 0)] = 0.0;
      index.series_sumsq_prefix_[index.Sx(s, 0)] = 0.0;
      for (int64_t w = 0; w < nb; ++w) {
        const double mean = panels->mean[static_cast<size_t>(w * n + s)];
        const double sd = panels->stddev[static_cast<size_t>(w * n + s)];
        sum_acc += bw * mean;
        sumsq_acc += bw * (sd * sd + mean * mean);
        index.series_sum_prefix_[index.Sx(s, w + 1)] = sum_acc;
        index.series_sumsq_prefix_[index.Sx(s, w + 1)] = sumsq_acc;
      }
    });
  } else {
    parallel_for(n, [&](int64_t s) {
      std::span<const double> row = data.Row(s);
      double sum_acc = 0.0;
      double sumsq_acc = 0.0;
      index.series_sum_prefix_[index.Sx(s, 0)] = 0.0;
      index.series_sumsq_prefix_[index.Sx(s, 0)] = 0.0;
      for (int64_t w = 0; w < nb; ++w) {
        for (int64_t t = w * b; t < (w + 1) * b; ++t) {
          const double v = row[static_cast<size_t>(t)];
          sum_acc += v;
          sumsq_acc += v * v;
        }
        index.series_sum_prefix_[index.Sx(s, w + 1)] = sum_acc;
        index.series_sumsq_prefix_[index.Sx(s, w + 1)] = sumsq_acc;
      }
    });
  }

  if (!options.build_pair_sketches) {
    return index;
  }

  // Pair octets: whole octets of nb + 1 slot lines each, the base aligned
  // up to 64 bytes inside a slightly oversized allocation drawn from the
  // storage recycler.
  index.pair_prefix_size_ = static_cast<size_t>(
      CeilDiv(index.pair_end_ - index.pair_begin_, kPairOctet) *
      index.PairOctetStride());
  constexpr size_t kAlignSlack = 7;  // doubles; one cache line of headroom
  index.pair_storage_size_ = index.pair_prefix_size_ + kAlignSlack;
  index.pair_dot_storage_ =
      SketchStorageRecycler::Instance().Acquire(index.pair_storage_size_);
  index.pair_omc_storage_ =
      SketchStorageRecycler::Instance().Acquire(index.pair_storage_size_);
  auto align64 = [](double* p) {
    return reinterpret_cast<double*>(
        (reinterpret_cast<uintptr_t>(p) + 63) & ~uintptr_t{63});
  };
  index.pair_dot_prefix_ = align64(index.pair_dot_storage_.get());
  index.pair_one_minus_corr_prefix_ = align64(index.pair_omc_storage_.get());

  if (blocked) {
    index.BuildPairSketchesBlocked(*panels, pool);
  } else {
    // Seed-faithful reference baseline, including the seed's
    // zero-initialized allocation of the sketch arrays.
    std::fill_n(index.pair_dot_prefix_, index.pair_prefix_size_, 0.0);
    std::fill_n(index.pair_one_minus_corr_prefix_, index.pair_prefix_size_,
                0.0);
    index.BuildPairSketchesScalar(data, pool);
  }
  return index;
}

void BasicWindowIndex::BuildPairSketchesScalar(const TimeSeriesMatrix& data,
                                               ThreadPool* pool) {
  const int64_t nb = num_basic_windows_;
  const int64_t b = basic_window_;
  const int64_t n = num_series_;

  // The seed's reference path: one scalar dot loop per (pair, basic window),
  // walking pairs row by row. Kept as the equivalence oracle for the blocked
  // kernel and as the baseline of bench_microkernels.
  auto build_row = [&](int64_t i) {
    std::span<const double> xi = data.Row(i);
    for (int64_t j = i + 1; j < n; ++j) {
      const int64_t p = PairId(i, j, n);
      if (p < pair_begin_ || p >= pair_end_) {
        continue;
      }
      std::span<const double> xj = data.Row(j);
      double dot_acc = 0.0;
      double omc_acc = 0.0;
      pair_dot_prefix_[Px(p, 0)] = 0.0;
      pair_one_minus_corr_prefix_[Px(p, 0)] = 0.0;
      for (int64_t w = 0; w < nb; ++w) {
        double dot = 0.0;
        for (int64_t t = w * b; t < (w + 1) * b; ++t) {
          dot += xi[static_cast<size_t>(t)] * xj[static_cast<size_t>(t)];
        }
        dot_acc += dot;
        pair_dot_prefix_[Px(p, w + 1)] = dot_acc;

        // Basic-window correlation c_w from the already built per-series
        // prefixes plus this window's dot.
        const double sx = SumRange(i, w, w + 1);
        const double sy = SumRange(j, w, w + 1);
        const double sxx = SumSqRange(i, w, w + 1);
        const double syy = SumSqRange(j, w, w + 1);
        const double c =
            PearsonFromMoments(static_cast<double>(b), sx, sy, sxx, syy, dot);
        omc_acc += 1.0 - c;
        pair_one_minus_corr_prefix_[Px(p, w + 1)] = omc_acc;
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(n, [&](int64_t i) { build_row(i); });
  } else {
    for (int64_t i = 0; i < n; ++i) {
      build_row(i);
    }
  }
}

void BasicWindowIndex::BuildPairSketchesBlocked(const NormalizedPanels& panels,
                                                ThreadPool* pool) {
  const int64_t nb = num_basic_windows_;
  const int64_t b = basic_window_;
  const int64_t n = num_series_;
  const bool threaded = pool != nullptr && pool->num_threads() > 1;

  // For each basic window, the N x N correlation tile is the Gram
  // matrix of the window's z panels — a blocked rank-b update. One task per
  // series-tile pair; the task sweeps *all* basic windows, carrying the
  // running prefix of every pair it owns in an L1-resident accumulator
  // block, so each prefix slot is written exactly once, in its final form.
  // Windows are processed in batches of kWinBatch: the batch's Gram planes
  // are computed first, then each 8-pair group on the octet grid folds the
  // batch into its running prefixes, one Vec8 per window — which is exactly
  // one octet slot line, so a group's batch leaves as one contiguous run of
  // kWinBatch full lines. Every (pair, window) slot is written by exactly
  // one task and the per-cell arithmetic is independent of the
  // decomposition and of the lane a pair lands in, so any thread count
  // produces bit-identical sketches.
  //
  // A pair-range build stores only pairs [pair_begin_, pair_end_): tasks
  // owning none of them are skipped, and a task restricts its Gram calls to
  // the row span owning stored pairs, widened to whole kGramRowGroup groups
  // of the tile (so every cell takes the full build's kernel path), and its
  // flush to the stored pairs. Stored slots are therefore bit-identical to
  // the full build's.
  constexpr int64_t kWinBatch = 8;
  // A cold query is a build and then a query over the new slots. Slots
  // streamed past the cache come back from memory on that first query, so
  // a sketch small enough to stay in the last-level cache is written with
  // plain stores; a larger one streams (no read-for-ownership, no
  // eviction of everything else).
  const bool stream = 2 * pair_prefix_size_ * sizeof(double) >
                      static_cast<size_t>(kCachedSketchBytes);
  // Octet-anchored groups start up to 7 lanes before a row's stored run and
  // end up to 7 past it; the tile-local buffers carry this much zeroed
  // slack on both sides so those lanes read in bounds. Their results are
  // never stored.
  constexpr int64_t kLanePad = kPairOctet;
  const int64_t num_row_tiles = panels.num_tiles;
  std::vector<std::pair<int64_t, int64_t>> tile_pairs;
  tile_pairs.reserve(
      static_cast<size_t>(num_row_tiles * (num_row_tiles + 1) / 2));
  for (int64_t ti = 0; ti < num_row_tiles; ++ti) {
    for (int64_t tj = ti; tj < num_row_tiles; ++tj) {
      tile_pairs.emplace_back(ti, tj);
    }
  }

  auto run_task = [&](int64_t task) {
    const auto [ti, tj] = tile_pairs[static_cast<size_t>(task)];
    const int64_t row_begin = ti * kCorrTile;
    const int64_t row_end = std::min(n, row_begin + kCorrTile);
    const int64_t col_begin = tj * kCorrTile;
    const int64_t col_end = std::min(n, col_begin + kCorrTile);
    const int64_t nrows = row_end - row_begin;
    const double bw = static_cast<double>(b);

    // Row i's pairs in this task are the contiguous ids
    // [PairId(i, j0), + col_end - j0); the stored ones are the local span
    // [lo, hi) of that run. Stored rows form one contiguous row span.
    struct RowSpan {
      int64_t j0 = 0, p0 = 0, lo = 0, hi = 0;
    };
    auto row_span = [&](int64_t i) {
      RowSpan r;
      r.j0 = std::max(col_begin, i + 1);
      if (r.j0 >= col_end) {
        return r;
      }
      const int64_t njs = col_end - r.j0;
      r.p0 = PairId(i, r.j0, n);
      r.lo = std::clamp<int64_t>(pair_begin_ - r.p0, 0, njs);
      r.hi = std::clamp<int64_t>(pair_end_ - r.p0, r.lo, njs);
      return r;
    };
    int64_t live_begin = row_end;
    int64_t live_end = row_begin;
    for (int64_t i = row_begin; i < row_end; ++i) {
      const RowSpan r = row_span(i);
      if (r.lo < r.hi) {
        live_begin = std::min(live_begin, i);
        live_end = i + 1;
      }
    }
    if (live_begin >= live_end) {
      return;  // owns no stored pair
    }
    const int64_t gram_begin =
        row_begin + (live_begin - row_begin) / kGramRowGroup * kGramRowGroup;
    const int64_t gram_end = std::min(
        row_end, row_begin + CeilDiv(live_end - row_begin, kGramRowGroup) *
                                 kGramRowGroup);

    double acc_dot_buf[kCorrTile * kCorrTile + 2 * kLanePad] = {};
    double acc_omc_buf[kCorrTile * kCorrTile + 2 * kLanePad] = {};
    double* const acc_dot = acc_dot_buf + kLanePad;
    double* const acc_omc = acc_omc_buf + kLanePad;
    // Window-major staging: plane k holds window wb + k's Gram tile,
    // written directly by the kernel; the flush below reads the kWinBatch
    // planes as parallel sequential streams.
    const int64_t plane = nrows * kCorrTile;
    std::vector<double> gram_buf(
        static_cast<size_t>(plane * kWinBatch + 2 * kLanePad));
    double* const gram_batch = gram_buf.data() + kLanePad;
    // Per-batch window stats. Row stats are [series-in-tile][k] (read as
    // scalars per output row) and carry the b factor of the reconstruction;
    // column stats are [k][series-in-tile] so the pair-vectorized flush
    // reads them as contiguous vectors.
    double row_bsd[kCorrTile * kWinBatch];
    double row_bm[kCorrTile * kWinBatch];
    double col_sd_buf[kWinBatch * kCorrTile + 2 * kLanePad] = {};
    double col_m_buf[kWinBatch * kCorrTile + 2 * kLanePad] = {};
    double* const col_sd = col_sd_buf + kLanePad;
    double* const col_m = col_m_buf + kLanePad;

    // Prefix slot 0 of every stored pair (the accumulators start zeroed).
    for (int64_t i = live_begin; i < live_end; ++i) {
      const RowSpan r = row_span(i);
      for (int64_t u = r.lo; u < r.hi; ++u) {
        pair_dot_prefix_[Px(r.p0 + u, 0)] = 0.0;
        pair_one_minus_corr_prefix_[Px(r.p0 + u, 0)] = 0.0;
      }
    }

    const Vec8 kOne = SplatVec8(1.0);
    const Vec8 kNegOne = SplatVec8(-1.0);
    for (int64_t wb = 0; wb < nb; wb += kWinBatch) {
      const int64_t wc = std::min<int64_t>(kWinBatch, nb - wb);
      for (int64_t k = 0; k < wc; ++k) {
        const int64_t w = wb + k;
        GramPanelTile(panels.Panel(w, ti) + (gram_begin - row_begin),
                      kCorrTile, gram_end - gram_begin, panels.Panel(w, tj),
                      kCorrTile, col_end - col_begin, 0, b,
                      /*upper_only=*/tj == ti,
                      /*diag=*/gram_begin - col_begin,
                      gram_batch + k * plane +
                          (gram_begin - row_begin) * kCorrTile,
                      kCorrTile);
        const double* means = panels.mean.data() + w * n;
        const double* stddevs = panels.stddev.data() + w * n;
        for (int64_t v = 0; v < nrows; ++v) {
          row_bsd[v * kWinBatch + k] = bw * stddevs[row_begin + v];
          row_bm[v * kWinBatch + k] = bw * means[row_begin + v];
        }
        for (int64_t u = 0; u < col_end - col_begin; ++u) {
          col_sd[k * kCorrTile + u] = stddevs[col_begin + u];
          col_m[k * kCorrTile + u] = means[col_begin + u];
        }
      }

      // Flush: fold the batch into each pair's running prefixes and write
      // slots [wb + 1, wb + wc]. The raw inner product the sketch stores is
      // reconstructed as sum x*y = b * (sd_x sd_y c + mean_x mean_y) —
      // algebraically exact; the clamped correlation feeds the Eq. 2 jump
      // budget.
      //
      // Vectorized over the 8 pairs of one octet (contiguous in the Gram
      // planes, the accumulators, and the column stats when they share a
      // row run): the k recursion is a serial dependence per pair, so
      // running it 8 pairs wide is what hides its latency, and each
      // window's Vec8 is the octet's slot line as stored. An octet wholly
      // inside the run streams its lines; one cut by the run's ends (a row,
      // tile or range boundary — its other lanes belong to another run,
      // possibly another task's) stores just its in-run lanes.
      for (int64_t i = live_begin; i < live_end; ++i) {
        const RowSpan r = row_span(i);
        if (r.lo >= r.hi) {
          continue;
        }
        const double* rbsd = row_bsd + (i - row_begin) * kWinBatch;
        const double* rbm = row_bm + (i - row_begin) * kWinBatch;
        const int64_t uc0 = r.j0 - col_begin;
        const int64_t idx0 = (i - row_begin) * kCorrTile + uc0;
        const int64_t q0 = r.p0 - pair_begin_;  // octet grid position of u = 0
        for (int64_t u = ((q0 + r.lo) & ~(kPairOctet - 1)) - q0; u < r.hi;
             u += kPairOctet) {
          const int64_t first = std::max<int64_t>(0, r.lo - u);
          const int64_t last = std::min<int64_t>(kPairOctet, r.hi - u);
          const bool whole = first == 0 && last == kPairOctet;
          const unsigned lanes = (1u << last) - (1u << first);
          auto put = [&](double* line, Vec8 value) {
            if (!whole) {
              MaskedStoreVec8(line, value, lanes);
            } else if (stream) {
              StreamVec8(line, value);
            } else {
              StoreVec8(line, value);
            }
          };
          const int64_t idx = idx0 + u;
          const int64_t uc = uc0 + u;
          double* dot_out = pair_dot_prefix_ + Px(r.p0 + u, wb + 1);
          double* omc_out = pair_one_minus_corr_prefix_ + Px(r.p0 + u, wb + 1);
          Vec8 dacc = LoadVec8(acc_dot + idx);
          Vec8 oacc = LoadVec8(acc_omc + idx);
          for (int64_t k = 0; k < wc; ++k) {
            const Vec8 raw = LoadVec8(gram_batch + k * plane + idx);
            dacc += SplatVec8(rbsd[k]) *
                        LoadVec8(col_sd + k * kCorrTile + uc) * raw +
                    SplatVec8(rbm[k]) * LoadVec8(col_m + k * kCorrTile + uc);
            const Vec8 hi = raw > kOne ? kOne : raw;
            const Vec8 clamped = hi < kNegOne ? kNegOne : hi;
            oacc += kOne - clamped;
            put(dot_out + k * kPairOctet, dacc);
            put(omc_out + k * kPairOctet, oacc);
          }
          MaskedStoreVec8(acc_dot + idx, dacc, lanes);
          MaskedStoreVec8(acc_omc + idx, oacc, lanes);
        }
      }
    }
    // Drain the non-temporal stores before the pool's completion handshake
    // publishes this task's rows to other threads.
    StreamFence();
  };
  const int64_t num_tasks = static_cast<int64_t>(tile_pairs.size());
  if (threaded && num_tasks > 1) {
    pool->ParallelFor(num_tasks, run_task);
  } else {
    for (int64_t task = 0; task < num_tasks; ++task) {
      run_task(task);
    }
  }
}

double BasicWindowIndex::WindowMean(int64_t s, int64_t w) const {
  return SumRange(s, w, w + 1) / static_cast<double>(basic_window_);
}

double BasicWindowIndex::WindowStdDev(int64_t s, int64_t w) const {
  const double n = static_cast<double>(basic_window_);
  const double mean = SumRange(s, w, w + 1) / n;
  const double var = SumSqRange(s, w, w + 1) / n - mean * mean;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double BasicWindowIndex::PairWindowCorrelation(int64_t p, int64_t w) const {
  DCHECK(has_pair_sketches_);
  // Recover c_w = 1 - [prefix(w+1) - prefix(w)].
  return 1.0 - OneMinusCorrRange(p, w, w + 1);
}

double BasicWindowIndex::PairRangeCorrelation(int64_t p, int64_t lo,
                                              int64_t hi) const {
  int64_t i = 0;
  int64_t j = 0;
  PairFromId(p, num_series_, &i, &j);
  return PairRangeCorrelationIJ(p, i, j, lo, hi);
}

double BasicWindowIndex::PairRangeCorrelationIJ(int64_t p, int64_t i,
                                                int64_t j, int64_t lo,
                                                int64_t hi) const {
  DCHECK(has_pair_sketches_);
  DCHECK_LT(lo, hi);
  DCHECK_EQ(PairId(i, j, num_series_), p);
  const double n = static_cast<double>((hi - lo) * basic_window_);
  return PearsonFromMoments(n, SumRange(i, lo, hi), SumRange(j, lo, hi),
                            SumSqRange(i, lo, hi), SumSqRange(j, lo, hi),
                            DotRange(p, lo, hi));
}

double BasicWindowIndex::RangeCorrelationFromRaw(int64_t i, int64_t j,
                                                 int64_t lo,
                                                 int64_t hi) const {
  DCHECK_LT(lo, hi);
  const int64_t start = lo * basic_window_;
  const int64_t count = (hi - lo) * basic_window_;
  std::span<const double> x = data_->RowRange(i, start, count);
  std::span<const double> y = data_->RowRange(j, start, count);
  double dot = 0.0;
  for (int64_t t = 0; t < count; ++t) {
    dot += x[static_cast<size_t>(t)] * y[static_cast<size_t>(t)];
  }
  return PearsonFromMoments(static_cast<double>(count),
                            SumRange(i, lo, hi), SumRange(j, lo, hi),
                            SumSqRange(i, lo, hi), SumSqRange(j, lo, hi),
                            dot);
}

int64_t BasicWindowIndex::MemoryBytes() const {
  // The stored pairs' slots; the final octet's slack lanes are not counted.
  const int64_t pair_slots =
      (pair_end_ - pair_begin_) * (num_basic_windows_ + 1);
  return static_cast<int64_t>(series_sum_prefix_.size() +
                              series_sumsq_prefix_.size() + 2 * pair_slots) *
         static_cast<int64_t>(sizeof(double));
}

std::pair<int64_t, int64_t> BasicWindowIndex::StoredPairRange(
    const BasicWindowIndexOptions& options, int64_t num_pairs) {
  if (options.pair_begin == 0 && options.pair_end == 0) {
    return {0, num_pairs};
  }
  const int64_t lo = std::clamp<int64_t>(options.pair_begin, 0, num_pairs);
  return {lo, std::clamp<int64_t>(options.pair_end, lo, num_pairs)};
}

int64_t BasicWindowIndex::EstimateMemoryBytes(
    int64_t num_series, int64_t length,
    const BasicWindowIndexOptions& options) {
  if (num_series <= 0 || options.basic_window <= 0 ||
      length < options.basic_window) {
    return 0;
  }
  const int64_t nb = length / options.basic_window;
  int64_t doubles = 2 * num_series * (nb + 1);  // the two series prefixes
  if (options.build_pair_sketches) {
    // Mirrors Build's stored range; MemoryBytes counts the prefix slots
    // (not the octet or alignment slack), so this matches the built index
    // exactly.
    const auto [lo, hi] =
        StoredPairRange(options, num_series * (num_series - 1) / 2);
    doubles += 2 * (hi - lo) * (nb + 1);
  }
  return doubles * static_cast<int64_t>(sizeof(double));
}

}  // namespace dangoron
