#ifndef DANGORON_ROUTER_SHARD_MERGE_H_
#define DANGORON_ROUTER_SHARD_MERGE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "serve/window_stream.h"
#include "wire/wire_format.h"

namespace dangoron {

/// One shard's window stream as the merge consumes it — the seam between
/// the merge core and its transports. The production implementation wraps a
/// WireClient draining one shard's wire response (see ShardRouter); tests
/// drive synthetic sources with deterministic skew, errors, and delays.
///
/// Contract (the WindowStream/WireClient contract, restated):
/// - `Next` blocks for the shard's next window; indices arrive ascending
///   and consecutive from 0. nullopt means the shard stream is terminal —
///   read the shard's verdict from `result_status()`. An error Status is a
///   transport/protocol failure (the source is unusable).
/// - `Cancel` is thread-safe and best-effort: it asks the upstream to
///   finish early. After it, `Next` must still reach nullopt eventually
///   (cancelled upstreams finish with a terminal status) — that is what
///   lets the merge join its readers instead of abandoning them.
class ShardWindowSource {
 public:
  virtual ~ShardWindowSource() = default;

  virtual Result<std::optional<StreamedWindow>> Next() = 0;

  /// The shard's terminal verdict; meaningful once Next returned nullopt.
  virtual Status result_status() const = 0;

  /// The shard's terminal accounting; meaningful once Next returned
  /// nullopt.
  virtual WireSummary summary() const = 0;

  virtual void Cancel() = 0;
};

/// One shard stream plus the metadata the merge needs to place (and, on
/// failure, re-dispatch) its windows: the pair-id range the stream covers,
/// an operator-facing label (host:port or child pid) for error messages,
/// and the global index of the first window the stream will deliver
/// (non-zero only for failover replacements, whose upstream query was
/// re-anchored at the resume window and therefore counts windows from 0).
struct ShardSlice {
  std::unique_ptr<ShardWindowSource> source;
  int64_t pair_begin = 0;
  int64_t pair_end = 0;
  std::string label;
  /// Transport-defined identity (the router's shard index), opaque to the
  /// merge; echoed back in ShardFailover so the hook knows which backend
  /// died without parsing labels.
  int64_t shard_id = -1;
  int64_t base_window = 0;
};

/// What the merge hands its failover hook when a shard dies mid-query.
struct ShardFailover {
  /// Index of the dead slice (0..K-1 for the original shards; failover
  /// replacements get fresh indices past them).
  int shard = 0;
  /// The dead slice's transport-defined identity and label, echoed from
  /// ShardSlice.
  int64_t shard_id = -1;
  std::string label;
  /// The dead slice's pair range — the work that must be re-dispatched.
  int64_t pair_begin = 0;
  int64_t pair_end = 0;
  /// Global index of the first window the dead shard never delivered; the
  /// replacement streams resume here.
  int64_t resume_window = 0;
  /// The failure, already prefixed `shard N (label):` — what the merged
  /// stream fails with if the re-dispatch cannot be arranged.
  Status cause;
};

/// Re-dispatches a dead shard's remaining work: returns one or more
/// replacement slices that together cover [pair_begin, pair_end) and whose
/// streams deliver windows resume_window.. (locally indexed from 0 — the
/// merge applies base_window). Runs on the dead shard's reader thread with
/// no merge lock held; it may block (bounded reconnect backoff), and must
/// bound its own waits by the query deadline. An error return fails the
/// merge with the original cause.
using ShardFailoverFn =
    std::function<Result<std::vector<ShardSlice>>(const ShardFailover&)>;

struct ShardMergeOptions {
  /// Bounded reorder window: how many windows a fast shard may run ahead of
  /// the slowest shard's emission frontier before its reader blocks. This
  /// bounds the merge's buffered memory at K * max_skew_windows partial
  /// windows under adversarial shard skew.
  int64_t max_skew_windows = 8;

  /// Capacity of the merged stream's bounded delivery queue (the same knob
  /// as ServeOptions::queue_capacity).
  int64_t queue_capacity = kDefaultStreamQueueCapacity;

  /// How many mid-stream shard deaths the merge may ride out by
  /// re-dispatching the dead shard's range (each death consumes one,
  /// however many replacement slices it fans out to). 0 — or a null
  /// `failover` — restores the PR 8 behavior: the first failure cancels
  /// the survivors and fails the merged stream.
  int max_failovers = 0;

  /// Hard stop for failover attempts: past this point a shard death fails
  /// the query with its original error instead of re-dispatching (the
  /// query would blow its deadline anyway). max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// The re-dispatch hook (ShardRouter provides the production one:
  /// reconnect to the dead shard, else split across live shards).
  ShardFailoverFn failover;
};

/// Merges K per-shard window streams — each carrying the same query
/// restricted to a disjoint pair-id range — back into one window-ordered
/// stream. Window k is emitted the moment its delivered parts cover the
/// whole pair space: the parts are concatenated in ascending pair-range
/// order, which is exactly the canonical (i, j) edge order, so no re-sort
/// happens on the hot path.
///
/// Semantics preserved from the single-process stream:
/// - streaming: windows leave as they complete, never after the whole query;
/// - backpressure: the merged stream's queue is bounded; a slow consumer
///   blocks the emitter, the emitter's stall blocks readers at the skew
///   bound, and the upstream transports stall behind their sockets;
/// - cancel: `Cancel` (or destroying the merge) cancels all upstreams and
///   the merged stream finishes with Cancelled;
/// - errors: a shard failure (transport error or terminal Unavailable) is
///   first offered to the failover hook — the dead shard's undelivered
///   range re-dispatches and the delivered stream stays byte-identical —
///   and only when failovers are exhausted (or for non-retryable terminal
///   statuses, e.g. FailedPrecondition) does the failure cancel the
///   survivors and fail the merged stream, message prefixed
///   `shard N (label):`.
///
/// One reader thread per slice drains its source into a window-indexed
/// pending map (the reorder heap, std::map keeps it ordered); the reader
/// that completes the emission frontier becomes the emitter and pushes every
/// consecutively-complete window downstream. Duplicate parts (same window,
/// same pair range — possible only under failover races) are dropped, first
/// delivery wins, so re-dispatch can never double-emit an edge.
class ShardMerge {
 public:
  /// Range-aware construction: `slices` cover [0, num_pairs) disjointly.
  ShardMerge(std::vector<ShardSlice> slices, int64_t num_pairs,
             const ShardMergeOptions& options = {});

  /// Range-free construction for scripted/synthetic sources: slice i gets
  /// the unit range [i, i+1) and failover stays disabled.
  explicit ShardMerge(
      std::vector<std::unique_ptr<ShardWindowSource>> sources,
      const ShardMergeOptions& options = {});

  ~ShardMerge();

  ShardMerge(const ShardMerge&) = delete;
  ShardMerge& operator=(const ShardMerge&) = delete;

  /// Blocks for the next merged window; nullopt once the merge is terminal.
  std::optional<StreamedWindow> Next();

  /// Cancels the merged stream and all upstream shard streams.
  void Cancel();

  /// Terminal status of the merged stream; meaningful once Next returned
  /// nullopt. Ok only when every pair range delivered every window.
  Status status() const;

  /// Aggregated shard accounting (MergeShardAccounting over the slices, plus
  /// the merged window count); meaningful once Next returned nullopt. The
  /// merged stream finishes with the same fold.
  WireSummary summary() const;

  /// Mid-stream failovers performed so far (shard deaths ridden out).
  int64_t failovers() const;

  int64_t num_shards() const;

 private:
  struct Slice {
    std::unique_ptr<ShardWindowSource> source;
    int64_t pair_begin = 0;
    int64_t pair_end = 0;
    std::string label;
    /// Echoed into ShardFailover; opaque to the merge.
    int64_t shard_id = -1;
    /// Offset added to the slice's locally-indexed windows: replacements
    /// resume mid-query, so their upstream counts windows from 0 while the
    /// merge places them at base_window + local.
    int64_t base_window = 0;
    /// Global index of the next window this slice would deliver — starts
    /// at base_window, advances per delivery; the failover resume point.
    int64_t next_window = 0;
    bool done = false;
    /// Finished with an Ok verdict: its range stops arriving for good, the
    /// input to the count-mismatch detector.
    bool done_ok = false;
    /// Died and was re-dispatched: its range continues via replacement
    /// slices, so mismatch detection must not blame it.
    bool failed_over = false;
  };

  struct Pending {
    /// Parts keyed by their range's pair_begin — ascending map order is
    /// canonical (i, j) edge order, and the key dedups redelivery.
    std::map<int64_t, WindowEdges> parts;
    /// Sum of delivered parts' range widths; the window is complete when
    /// this covers the whole pair space.
    int64_t covered = 0;
  };

  bool WindowCompleteLocked(const Pending& pending) const REQUIRES(mutex_);
  void ReaderLoop(int slice_index);
  /// `shard N (label): message` — the operator-facing failure prefix.
  Status PrefixedStatus(int slice_index, const Status& status) const
      REQUIRES(mutex_);
  /// Shard death on slice `slice_index`: re-dispatch through the failover
  /// hook when the failure is retryable, a hook is configured, and budget
  /// remains — else fail the merge with `cause` (already prefixed). Drops
  /// mutex_ around the hook (which may block for seconds) and re-takes it.
  void HandleShardFailureLocked(int slice_index, const Status& cause,
                                bool retryable) REQUIRES(mutex_);
  /// Fails the merge with `status` (first failure wins) and cancels every
  /// upstream.
  void MergeFailLocked(const Status& status) REQUIRES(mutex_);
  /// Emits every consecutively-complete window at the frontier. Drops
  /// mutex_ around each Push and re-takes it (downstream backpressure must
  /// not block other readers).
  void EmitReadyLocked() REQUIRES(mutex_);
  /// Called by the last reader to exit: settles the terminal status and
  /// finishes the downstream stream.
  void FinishLocked() REQUIRES(mutex_);

  /// The fold `summary()` returns.
  WireSummary SummaryLocked() const REQUIRES(mutex_);

  const ShardMergeOptions options_;
  const int64_t num_pairs_;
  const std::shared_ptr<WindowStreamState> downstream_;

  mutable Mutex mutex_;
  CondVar progress_cv_;
  /// Grows under mutex_ when a failover adds replacement slices; entries
  /// are pointer-stable (readers hold Slice*, never an index into a
  /// reallocated vector).
  std::vector<std::unique_ptr<Slice>> slices_ GUARDED_BY(mutex_);
  std::map<int64_t, Pending> pending_ GUARDED_BY(mutex_);
  int64_t next_emit_ GUARDED_BY(mutex_) = 0;
  bool emitting_ GUARDED_BY(mutex_) = false;
  bool cancelled_ GUARDED_BY(mutex_) = false;
  bool failed_ GUARDED_BY(mutex_) = false;
  Status fail_status_ GUARDED_BY(mutex_);
  int active_readers_ GUARDED_BY(mutex_) = 0;
  int64_t windows_merged_ GUARDED_BY(mutex_) = 0;
  int64_t failovers_used_ GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> readers_ GUARDED_BY(mutex_);
};

}  // namespace dangoron

#endif  // DANGORON_ROUTER_SHARD_MERGE_H_
