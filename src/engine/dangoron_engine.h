#ifndef DANGORON_ENGINE_DANGORON_ENGINE_H_
#define DANGORON_ENGINE_DANGORON_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "bound/bounds.h"
#include "common/thread_pool.h"
#include "engine/correlation_engine.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

/// Options of the Dangoron engine.
struct DangoronOptions {
  /// Basic window size `b`; query start/window/step must be multiples of it.
  int64_t basic_window = 24;

  /// Eq. 2 temporal jumping over below-threshold stretches (the paper's core
  /// optimization, Figure 2). Off = "incremental" mode: every window is
  /// evaluated exactly in O(1) from the sketch prefixes — exact results,
  /// still far cheaper than TSUBASA's O(ns) recombination.
  bool enable_jumping = true;

  /// Extension (off by default): also skip stretches that provably (under
  /// the Eq. 2 assumption) stay *above* threshold, emitting the anchor
  /// window's value for the skipped windows. Trades value accuracy inside
  /// persistent edges for speed.
  bool enable_above_jumping = false;

  /// Cap on a single jump (0 = unbounded). Bounding jumps limits the damage
  /// of an Eq. 2 violation on non-stationary data.
  int64_t max_jump_steps = 0;

  /// Horizontal (pivot / triangle-inequality) pruning.
  bool horizontal_pruning = false;
  /// Number of pivot series when horizontal pruning is on.
  int32_t num_pivots = 8;

  /// Exact-mode (jumping off) queries run window-major through the
  /// vectorized sweep kernel (corr/sweep_kernel.h): each window's pair
  /// sweep is SIMD and branch-free, and the window is emitted to the sink
  /// the moment it completes — the engine itself streams. Plain-threshold
  /// jump queries (no absolute threshold, above-threshold jumps or
  /// pruning) walk each pair octet window-major the same way. Turn off to
  /// run the scalar pair-by-pair walk instead: the differential oracle of
  /// the sweep and octet-walk tests and the baseline of bench_query_time's
  /// BENCH_query.json. Both paths emit bit-identical edges and, with
  /// jumping, identical jump counters.
  bool use_sweep_kernel = true;

  /// Worker threads (pair-block parallelism; results are deterministic and
  /// identical to the single-threaded run).
  int32_t num_threads = 1;
};

/// The paper's contribution: sliding-window correlation-matrix construction
/// with basic-window sketches, O(1) aligned-window evaluation via prefix
/// sums, Eq. 2 bound-driven jumping across windows, and optional horizontal
/// pruning via pivot series.
///
/// Exactness: with `enable_jumping == false` results are exact (identical to
/// NaiveEngine / TsubasaEngine up to floating-point roundoff). With jumping
/// on, skipped windows are *assumed* below threshold per Eq. 2 — exact on
/// data satisfying the stationarity assumption, > 90% edge accuracy on the
/// paper's climate workloads.
class DangoronEngine : public CorrelationEngine {
 public:
  explicit DangoronEngine(const DangoronOptions& options = {});

  std::string name() const override {
    return options_.enable_jumping ? "dangoron" : "dangoron-incremental";
  }
  Status Prepare(const TimeSeriesMatrix& data) override;
  /// Emission timing depends on the mode. Exact mode (jumping off) runs
  /// window-major in bands of corr/sweep_kernel.h's kSweepWindowBand: each
  /// band's windows are emitted as soon as the band's pair sweep completes,
  /// so the first window leaves after ~band/num_windows of the work —
  /// engine-level streaming, no sub-query chopping needed. With jumping
  /// on, pair blocks sweep every window before any window is final
  /// (jumping couples consecutive windows along a pair), so windows are
  /// emitted in order only once the sweep completes.
  Status QueryToSink(const SlidingQuery& query, WindowSink* sink) override;

  const DangoronOptions& options() const { return options_; }

  /// The pivot series indices used by the last horizontally pruned query.
  const std::vector<int64_t>& pivots() const { return pivots_; }

  /// The build half of Prepare as a pure function of (data, options): the
  /// index a serving layer constructs once and shares read-only. `pool` may
  /// be null (serial build).
  static Result<BasicWindowIndex> BuildIndex(const TimeSeriesMatrix& data,
                                             const DangoronOptions& options,
                                             ThreadPool* pool);

  /// The query half against an externally owned, immutable index — the
  /// const-correct shared path of the serving layer. Touches only local
  /// state, so any number of concurrent calls may share one `index` (and one
  /// reentrant `pool`). `options.basic_window` must match the index's.
  /// `stats` and `pivots_out` are optional outputs; `pool` may be null.
  static Result<CorrelationMatrixSeries> QueryPrepared(
      const DangoronOptions& options, const BasicWindowIndex& index,
      const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
      std::vector<int64_t>* pivots_out = nullptr);

  /// Sink-driving form of QueryPrepared: same computation, windows emitted
  /// to `sink` in ascending order (after the pair-block sweep; see
  /// QueryToSink). QueryPrepared is this with a CollectingWindowSink.
  static Status QueryPreparedToSink(const DangoronOptions& options,
                                    const BasicWindowIndex& index,
                                    const SlidingQuery& query,
                                    ThreadPool* pool, EngineStats* stats,
                                    WindowSink* sink,
                                    std::vector<int64_t>* pivots_out = nullptr);

 private:
  DangoronOptions options_;
  const TimeSeriesMatrix* data_ = nullptr;
  std::optional<BasicWindowIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<int64_t> pivots_;
};

}  // namespace dangoron

#endif  // DANGORON_ENGINE_DANGORON_ENGINE_H_
