#ifndef DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_
#define DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "corr/block_kernel.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Options for building a BasicWindowIndex.
struct BasicWindowIndexOptions {
  /// Size `b` of each basic window (columns). The series is cut into
  /// floor(L / b) full basic windows; a ragged tail is ignored by the index
  /// (engines handle it from raw data when needed).
  int64_t basic_window = 24;
  /// When true, per-pair sketches (inner products and the Eq. 2 jump prefix)
  /// are built: O(N^2 * nb) memory. Engines that only need per-series
  /// statistics can turn this off.
  bool build_pair_sketches = true;
  /// Build the pair sketches with the blocked z-normalized Gram kernel
  /// (default): each basic window's N x N correlation tile is computed as a
  /// cache-blocked rank-b update over per-window z-normalized data. Turn off
  /// to use the seed's per-pair scalar loop — the equivalence oracle of the
  /// kernel tests and the baseline of bench_microkernels; both paths agree
  /// within 1e-9 and each is bit-deterministic across thread counts.
  bool use_blocked_kernel = true;
  /// Restricts the pair sketches to pair ids [pair_begin, pair_end) — a
  /// shard's slice of the canonical enumeration (the SlidingQuery pair
  /// restriction). (0, 0) builds every pair; pair_end past the pair count is
  /// clamped. Only the pair rows are restricted: per-series prefixes and the
  /// build's normalized panels cost O(N * L) and stay full.
  int64_t pair_begin = 0;
  int64_t pair_end = 0;
};

/// The basic-window sketch of the paper (Section 3): per-series and per-pair
/// statistics at basic-window granularity, with prefix sums along the
/// basic-window axis so any *aligned* range statistic is O(1).
///
/// Layout notes:
/// - Pairs (i, j), i < j, are addressed by a canonical dense id, see PairId.
/// - All prefix arrays have nb + 1 entries per series/pair, so a range
///   [lo, hi) reduces to two loads and a subtract.
/// - The two pair-prefix arrays are stored as *pair octets*: prefix slot w
///   of the 8 stored pairs 8g .. 8g + 7 (counted from pair_begin()) is one
///   64-byte-aligned cache line, and octet g holds its nb + 1 slot lines
///   contiguously (PairSlotOffset in corr/block_kernel.h). Every line a
///   reader touches serves eight consecutive pairs, and a pair's own slots
///   sit kPairOctet doubles apart. The lanes past the last stored pair of the final octet are
///   alignment slack: never written, never read, not counted.
/// - The blocked build flushes on the octet grid: an octet whose 8 pairs
///   one build task owns leaves as full-line non-temporal stores; an octet
///   cut by a row, tile or range boundary is written lane-masked by each
///   task that owns some of its pairs.
/// - A range-built index (BasicWindowIndexOptions::pair_begin/pair_end)
///   stores only the pairs [pair_begin(), pair_end()), indexed
///   relative to pair_begin(); readers still take global pair ids, and
///   callers must check CoversPairs before reading (the engine and the
///   serving layer refuse uncovered queries with a Status).
///
/// The index borrows the data matrix; it must outlive the index.
class BasicWindowIndex {
 public:
  /// Builds the index over all columns of `data`. When `pool` is non-null,
  /// pair sketches are built in parallel. Fails when the matrix is empty,
  /// contains NaN (interpolate first), is shorter than one basic window, or
  /// the pair range is negative. A range build's pair slots are
  /// bit-identical to the same pairs' slots in a full build, for any pool
  /// size.
  static Result<BasicWindowIndex> Build(
      const TimeSeriesMatrix& data, const BasicWindowIndexOptions& options,
      ThreadPool* pool = nullptr);

  /// Returns sketch storage to the process-wide recycler (see .cc): a
  /// rebuild-heavy workload re-faulting hundreds of MB of freshly mmapped
  /// pages per build would otherwise spend more time in the kernel's page
  /// zeroing than in the kernels.
  ~BasicWindowIndex();
  BasicWindowIndex(BasicWindowIndex&&) noexcept = default;
  /// Recycles the assignee's previous sketch storage before taking over
  /// `other`'s — a defaulted move would free it through plain unique_ptr
  /// deletion, silently bypassing the recycler in the engine re-Prepare
  /// loop it exists for.
  BasicWindowIndex& operator=(BasicWindowIndex&& other) noexcept;

  int64_t basic_window() const { return basic_window_; }
  int64_t num_basic_windows() const { return num_basic_windows_; }
  int64_t num_series() const { return num_series_; }
  int64_t num_pairs() const { return num_pairs_; }
  bool has_pair_sketches() const { return has_pair_sketches_; }
  /// The stored pair rows: [0, num_pairs()) unless range-built.
  int64_t pair_begin() const { return pair_begin_; }
  int64_t pair_end() const { return pair_end_; }
  /// True when every pair of [lo, hi) has a stored row (an empty range is
  /// always covered).
  bool CoversPairs(int64_t lo, int64_t hi) const {
    return lo >= hi || (pair_begin_ <= lo && hi <= pair_end_);
  }
  /// True when the index holds every pair's row (pivot scans need this).
  bool HasAllPairs() const { return CoversPairs(0, num_pairs_); }
  const TimeSeriesMatrix& data() const { return *data_; }

  /// Canonical id of pair (i, j), i != j, in [0, N*(N-1)/2).
  static int64_t PairId(int64_t i, int64_t j, int64_t num_series);

  /// Inverse of PairId, in O(1) via the closed-form triangular root.
  static void PairFromId(int64_t pair_id, int64_t num_series, int64_t* i,
                         int64_t* j);

  // --- per-series, basic-window-aligned range statistics (O(1)) ---

  /// Sum of series `s` over basic windows [lo, hi).
  double SumRange(int64_t s, int64_t lo, int64_t hi) const {
    return series_sum_prefix_[Sx(s, hi)] - series_sum_prefix_[Sx(s, lo)];
  }
  /// Sum of squares of series `s` over basic windows [lo, hi).
  double SumSqRange(int64_t s, int64_t lo, int64_t hi) const {
    return series_sumsq_prefix_[Sx(s, hi)] - series_sumsq_prefix_[Sx(s, lo)];
  }

  /// Mean of series `s` within basic window `w` (for Eq. 1).
  double WindowMean(int64_t s, int64_t w) const;
  /// Population standard deviation of series `s` within basic window `w`.
  double WindowStdDev(int64_t s, int64_t w) const;

  // --- per-pair statistics (require pair sketches) ---

  /// Inner product sum_t x_t * y_t of pair `p` over basic windows [lo, hi).
  double DotRange(int64_t p, int64_t lo, int64_t hi) const {
    return pair_dot_prefix_[Px(p, hi)] - pair_dot_prefix_[Px(p, lo)];
  }

  /// Raw view of the pair dot-prefix block for the window-major sweep
  /// kernel (corr/sweep_kernel.h): prefix slot w of pair p sits at
  /// `PairSlotOffset(PairOctetStride(), p - pair_begin(), w)` (corr/
  /// block_kernel.h), so DotRange(p, lo, hi) is the hi/lo slot difference,
  /// and every octet starts on a 64-byte boundary. Requires pair sketches;
  /// valid while the index is alive.
  const double* PairDotPrefix() const { return pair_dot_prefix_; }
  int64_t PairOctetStride() const {
    return kPairOctet * (num_basic_windows_ + 1);
  }
  /// The first pair of the octet holding pair `p`: lane l of that octet is
  /// pair OctetFirstPair(p) + l.
  int64_t OctetFirstPair(int64_t p) const {
    return p - ((p - pair_begin_) & (kPairOctet - 1));
  }
  /// First line of the octet holding pair `p` in the dot / 1 - c block:
  /// its lane l's slot w is at PairOctetSlot(l, w). The engine's octet
  /// jump walk reads all 8 lanes of a slot line at once this way.
  const double* PairDotOctet(int64_t p) const {
    return pair_dot_prefix_ + Px(OctetFirstPair(p), 0);
  }
  const double* PairOneMinusCorrOctet(int64_t p) const {
    return pair_one_minus_corr_prefix_ + Px(OctetFirstPair(p), 0);
  }
  /// One pair's prefix slots in an octet block: `lane[w]` is slot w, and
  /// DotRange(p, lo, hi) == PairDotLane(p)[hi] - PairDotLane(p)[lo]
  /// bit for bit. Per-pair readers hoist a lane once per pair.
  class PairLane {
   public:
    /// `slot0` is the pair's slot 0: its octet's first line plus its lane.
    explicit PairLane(const double* slot0) : slot0_(slot0) {}
    double operator[](int64_t w) const { return *Slot(w); }
    const double* Slot(int64_t w) const {
      return slot0_ + PairOctetSlot(0, w);
    }

   private:
    const double* slot0_;
  };
  PairLane PairDotLane(int64_t p) const {
    return PairLane(pair_dot_prefix_ + Px(p, 0));
  }
  PairLane PairOneMinusCorrLane(int64_t p) const {
    return PairLane(pair_one_minus_corr_prefix_ + Px(p, 0));
  }

  /// Pearson correlation of the pair within basic window `w` (the `c_i` of
  /// Eq. 1 / Eq. 2); 0 when either side is constant in the window.
  double PairWindowCorrelation(int64_t p, int64_t w) const;

  /// Sum over basic windows [lo, hi) of (1 - c_i): the Eq. 2 jump budget.
  /// Monotone non-negative in hi, enabling binary search.
  double OneMinusCorrRange(int64_t p, int64_t lo, int64_t hi) const {
    return pair_one_minus_corr_prefix_[Px(p, hi)] -
           pair_one_minus_corr_prefix_[Px(p, lo)];
  }

  /// Exact Pearson correlation of pair id `p` over basic windows [lo, hi),
  /// combined from the sketch in O(1) (moment form of Eq. 1). Returns 0 when
  /// either series is constant over the range.
  double PairRangeCorrelation(int64_t p, int64_t lo, int64_t hi) const;

  /// Same as PairRangeCorrelation but with the pair's series ids supplied by
  /// the caller, avoiding the O(N) id inversion — the per-cell hot path of
  /// the engines, which already track (i, j) while walking pair blocks.
  double PairRangeCorrelationIJ(int64_t p, int64_t i, int64_t j, int64_t lo,
                                int64_t hi) const;

  /// Exact Pearson correlation of (i, j) over basic windows [lo, hi) using
  /// per-series prefixes and a raw-data dot product: O(b * (hi - lo)) but
  /// requires no pair sketches (used by pivot scans and sketchless modes).
  double RangeCorrelationFromRaw(int64_t i, int64_t j, int64_t lo,
                                 int64_t hi) const;

  /// Bytes of sketch storage (diagnostics for the build benches).
  int64_t MemoryBytes() const;

  /// Bytes an index built over an `num_series x length` matrix with
  /// `options` (pair range included) will hold, without building it — the
  /// sketch cache's admission arithmetic. Matches MemoryBytes() of the built
  /// index exactly.
  static int64_t EstimateMemoryBytes(int64_t num_series, int64_t length,
                                     const BasicWindowIndexOptions& options);

 private:
  BasicWindowIndex() = default;

  /// Blocked build of the pair sketches (see
  /// BasicWindowIndexOptions::use_blocked_kernel); fills pair_dot_prefix_
  /// and pair_one_minus_corr_prefix_ from per-window z-normalized panels.
  void BuildPairSketchesBlocked(const NormalizedPanels& panels,
                                ThreadPool* pool);
  /// The seed's scalar per-pair reference build of the same sketches.
  void BuildPairSketchesScalar(const TimeSeriesMatrix& data, ThreadPool* pool);

  size_t Sx(int64_t s, int64_t w) const {
    return static_cast<size_t>(s * (num_basic_windows_ + 1) + w);
  }
  /// The octet layout (see the class comment): octet (p - pair_begin) / 8,
  /// slot line w, lane (p - pair_begin) % 8. With the 64-byte-aligned base
  /// every slot line is a full aligned cache line, so the build's octet
  /// flush can leave as non-temporal stores.
  size_t Px(int64_t p, int64_t w) const {
    return static_cast<size_t>(
        PairSlotOffset(PairOctetStride(), p - pair_begin_, w));
  }
  /// The clamped stored pair range of `options` over `num_pairs` pairs.
  static std::pair<int64_t, int64_t> StoredPairRange(
      const BasicWindowIndexOptions& options, int64_t num_pairs);

  const TimeSeriesMatrix* data_ = nullptr;
  int64_t basic_window_ = 0;
  int64_t num_basic_windows_ = 0;
  int64_t num_series_ = 0;
  int64_t num_pairs_ = 0;
  int64_t pair_begin_ = 0;
  int64_t pair_end_ = 0;
  bool has_pair_sketches_ = false;

  // Prefix arrays: one row of nb + 1 entries per series; the pair arrays
  // are octet-interleaved (see Px). The pair arrays are allocated
  // *uninitialized* (every stored slot is written during the build): at
  // scale they are the dominant allocation, and the redundant zeroing pass
  // costs a full sweep of memory bandwidth. The storage members own the
  // memory; the aligned pointers index it.
  std::vector<double> series_sum_prefix_;
  std::vector<double> series_sumsq_prefix_;
  std::unique_ptr<double[]> pair_dot_storage_;
  std::unique_ptr<double[]> pair_omc_storage_;
  double* pair_dot_prefix_ = nullptr;
  double* pair_one_minus_corr_prefix_ = nullptr;
  size_t pair_prefix_size_ = 0;  // whole octets, slack lanes included
  size_t pair_storage_size_ = 0;
};

/// Bytes currently parked in the process-wide sketch storage recycler (the
/// retired pair-prefix blocks destroyed indexes leave behind for the next
/// build). Observability hook for the serving layer's cache accounting and
/// for tests of the eviction → recycler → rebuild composition.
int64_t SketchRecyclerRetainedBytes();

/// Drops every block the recycler retains, returning the memory to the
/// allocator — e.g. after a serving layer mass-evicts sketches it does not
/// expect to rebuild.
void TrimSketchRecycler();

}  // namespace dangoron

#endif  // DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_
