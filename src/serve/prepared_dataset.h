#ifndef DANGORON_SERVE_PREPARED_DATASET_H_
#define DANGORON_SERVE_PREPARED_DATASET_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.h"
#include "common/thread_pool.h"
#include "sketch/basic_window_index.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// An immutable (dataset, built sketch) bundle: the unit the serving layer
/// caches under its byte budget and shares read-only across concurrent
/// queries. Construction is the only mutation; afterwards every accessor is
/// const and handles may be read from any number of threads without
/// synchronization. The handle shares ownership of the data matrix, so a
/// query that outlives the dataset's registration (or a cache eviction)
/// keeps a consistent view until it drops its reference — at which point the
/// index destructor returns the sketch blocks to the process-wide storage
/// recycler.
class PreparedDataset {
 public:
  /// Builds the pair-sketch index over `data` at `basic_window` granularity
  /// (parallel across `pool` when non-null). `fingerprint` is the data's
  /// ContentFingerprint — callers (the server registers datasets by it)
  /// already hold it, and the O(N * L) hash is not worth recomputing on
  /// every cache-miss prepare. Pass std::nullopt to have it computed here.
  /// [pair_begin, pair_end) restricts the pair rows built (see
  /// BasicWindowIndexOptions); (0, 0) builds every pair.
  static Result<std::shared_ptr<const PreparedDataset>> Create(
      std::shared_ptr<const TimeSeriesMatrix> data, int64_t basic_window,
      ThreadPool* pool, std::optional<uint64_t> fingerprint = std::nullopt,
      int64_t pair_begin = 0, int64_t pair_end = 0);

  const TimeSeriesMatrix& data() const { return *data_; }
  const BasicWindowIndex& index() const { return index_; }
  uint64_t fingerprint() const { return fingerprint_; }
  int64_t basic_window() const { return index_.basic_window(); }

  /// Bytes this handle keeps alive: sketch storage plus the data matrix —
  /// the sketch cache's budget accounting unit.
  int64_t MemoryBytes() const;

 private:
  PreparedDataset(std::shared_ptr<const TimeSeriesMatrix> data,
                  BasicWindowIndex index, uint64_t fingerprint)
      : data_(std::move(data)),
        index_(std::move(index)),
        fingerprint_(fingerprint) {}

  std::shared_ptr<const TimeSeriesMatrix> data_;
  BasicWindowIndex index_;
  uint64_t fingerprint_ = 0;
};

}  // namespace dangoron

#endif  // DANGORON_SERVE_PREPARED_DATASET_H_
