#ifndef DANGORON_SERVE_SKETCH_CACHE_H_
#define DANGORON_SERVE_SKETCH_CACHE_H_

#include <cstdint>
#include <memory>

#include "serve/lru_cache.h"
#include "serve/prepared_dataset.h"

namespace dangoron {

/// Identity of a prepared sketch: what the data is, at which basic-window
/// granularity it was indexed, and which pair rows it holds — (0, 0) for a
/// full sketch, else the clamped strict sub-range [pair_begin, pair_end) a
/// sharded request asked for. Two datasets with byte-identical values share
/// one entry regardless of registration name.
struct SketchCacheKey {
  uint64_t fingerprint = 0;
  int64_t basic_window = 0;
  int64_t pair_begin = 0;
  int64_t pair_end = 0;

  bool operator==(const SketchCacheKey&) const = default;
};

struct SketchCacheKeyHash {
  size_t operator()(const SketchCacheKey& key) const {
    uint64_t h = MixHash(key.fingerprint ^
                         MixHash(static_cast<uint64_t>(key.basic_window)));
    if (key.pair_begin != 0 || key.pair_end != 0) {
      h = MixHash(h ^ static_cast<uint64_t>(key.pair_begin));
      h = MixHash(h ^ static_cast<uint64_t>(key.pair_end));
    }
    return static_cast<size_t>(h);
  }
};

/// LRU cache of PreparedDataset handles under a byte budget (each entry
/// costs PreparedDataset::MemoryBytes()). Eviction drops the cache's
/// reference only: in-flight queries keep their handle alive, and when the
/// last reference dies the index destructor returns the big pair-prefix
/// blocks to the process-wide sketch storage recycler, so re-preparing an
/// evicted dataset of similar shape overwrites warm pages instead of
/// faulting fresh ones. Thread-safe.
using SketchCache =
    LruByteCache<SketchCacheKey, PreparedDataset, SketchCacheKeyHash>;

}  // namespace dangoron

#endif  // DANGORON_SERVE_SKETCH_CACHE_H_
