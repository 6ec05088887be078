// Router tier tests: SplitPairRanges geometry, the ShardMerge core against
// scripted sources (adversarial skew, bounded reorder memory, first-error
// cancellation, window-count mismatches), WireClient transport timeouts,
// and socketpair-driven end-to-end runs of the sharded path — including
// the acceptance-critical property: a K-shard query is byte-identical to
// the single-process stream at K in {2, 4}, and a cancel (client-driven or
// disconnect) releases every shard with zero leaked window claims.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "corr/sweep_kernel.h"
#include "net/wire_server.h"
#include "router/router_server.h"
#include "router/shard_merge.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "wire/client.h"
#include "wire/wire_format.h"

namespace dangoron {
namespace {

#if DANGORON_FAILPOINTS_ENABLED
constexpr bool kFailpointsCompiled = true;
#else
constexpr bool kFailpointsCompiled = false;
#endif

// -------------------------------------------------------- SplitPairRanges --

TEST(SplitPairRangesTest, CoversDisjointTileAlignedBalanced) {
  for (const int64_t num_pairs :
       {int64_t{0}, int64_t{1}, int64_t{1023}, int64_t{1024}, int64_t{1025},
        int64_t{2016}, int64_t{4560}, int64_t{8128}, int64_t{100000}}) {
    for (const int shards : {1, 2, 4, 7}) {
      const auto ranges = SplitPairRanges(num_pairs, shards);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(static_cast<int>(ranges.size()), shards);
      // Concatenation covers [0, num_pairs) exactly, in order.
      int64_t cursor = 0;
      for (size_t s = 0; s < ranges.size(); ++s) {
        EXPECT_EQ(ranges[s].first, cursor)
            << "gap before shard " << s << " (pairs=" << num_pairs
            << ", shards=" << shards << ")";
        EXPECT_GE(ranges[s].second, ranges[s].first);
        // Every interior cut sits on a tile boundary: the shard tiling is
        // the engine's own tiling.
        if (s + 1 < ranges.size()) {
          EXPECT_EQ(ranges[s].second % kSweepTilePairs, 0);
        }
        cursor = ranges[s].second;
      }
      EXPECT_EQ(cursor, num_pairs);
      // Balanced to within one tile.
      if (ranges.size() > 1) {
        int64_t min_tiles = std::numeric_limits<int64_t>::max();
        int64_t max_tiles = 0;
        for (const auto& range : ranges) {
          const int64_t tiles =
              (range.second - range.first + kSweepTilePairs - 1) /
              kSweepTilePairs;
          min_tiles = std::min(min_tiles, tiles);
          max_tiles = std::max(max_tiles, tiles);
        }
        EXPECT_LE(max_tiles - min_tiles, 1);
      }
    }
  }
}

TEST(SplitPairRangesTest, FewerTilesThanShardsShrinksTheFanOut) {
  // 2016 pairs = 2 tiles: a 4-way router degrades to 2 live shards rather
  // than sending empty ranges.
  const auto ranges = SplitPairRanges(2016, 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 1024}));
  EXPECT_EQ(ranges[1], (std::pair<int64_t, int64_t>{1024, 2016}));
}

// ------------------------------------------------------- scripted sources --

/// Deterministic ShardWindowSource: `windows` consecutive windows, each
/// carrying one edge stamped with (shard, index) so merge-order assertions
/// can tell every part apart; optional per-window delay, a blocking gate,
/// an injected transport error, and a scripted terminal verdict.
class ScriptedSource final : public ShardWindowSource {
 public:
  struct Script {
    int64_t windows = 0;
    int64_t delay_ms = 0;            ///< before each delivery
    int64_t block_at = -1;           ///< Next blocks here until Release()
    int64_t transport_error_at = -1; ///< Next returns IoError at this index
    Status verdict = Status::Ok();   ///< terminal result_status
    /// Added to the edge-value stamp (not window_index): a failover
    /// replacement resuming at global window w scripts value_base = w so
    /// its locally-indexed windows carry globally-consistent values.
    int64_t value_base = 0;
  };

  ScriptedSource(int shard, Script script)
      : shard_(shard), script_(std::move(script)) {}

  Result<std::optional<StreamedWindow>> Next() override {
    int64_t index = 0;
    {
      MutexLock lock(mutex_);
      if (script_.block_at >= 0 && next_ == script_.block_at) {
        while (!released_ && !cancelled_) {
          cv_.Wait(mutex_);
        }
      }
      if (cancelled_ || next_ >= script_.windows) {
        finished_early_ = cancelled_ && next_ < script_.windows;
        return std::optional<StreamedWindow>();
      }
      if (next_ == script_.transport_error_at) {
        return Status::IoError("scripted transport failure");
      }
      index = next_++;
    }
    if (script_.delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(script_.delay_ms));
    }
    StreamedWindow window;
    window.window_index = index;
    auto edges = std::make_shared<std::vector<Edge>>();
    Edge edge;
    edge.i = shard_;
    edge.j = shard_ + 1;
    edge.value =
        shard_ * 1000.0 + static_cast<double>(script_.value_base + index);
    edges->push_back(edge);
    window.edges = std::move(edges);
    return std::optional<StreamedWindow>(std::move(window));
  }

  Status result_status() const override {
    MutexLock lock(mutex_);
    if (finished_early_ && script_.verdict.ok()) {
      return Status::Cancelled("scripted source cancelled");
    }
    return script_.verdict;
  }

  WireSummary summary() const override {
    WireSummary summary;
    MutexLock lock(mutex_);
    summary.windows_delivered = next_;
    summary.windows_computed = next_;
    return summary;
  }

  void Cancel() override {
    MutexLock lock(mutex_);
    cancelled_ = true;
    ++cancels_;
    cv_.NotifyAll();
  }

  void Release() {
    MutexLock lock(mutex_);
    released_ = true;
    cv_.NotifyAll();
  }

  /// Windows handed to the merge so far (the skew-bound observable).
  int64_t delivered() const {
    MutexLock lock(mutex_);
    return next_;
  }

  int64_t cancels() const {
    MutexLock lock(mutex_);
    return cancels_;
  }

 private:
  const int shard_;
  const Script script_;
  mutable Mutex mutex_;
  CondVar cv_;
  int64_t next_ GUARDED_BY(mutex_) = 0;
  int64_t cancels_ GUARDED_BY(mutex_) = 0;
  bool released_ GUARDED_BY(mutex_) = false;
  bool cancelled_ GUARDED_BY(mutex_) = false;
  bool finished_early_ GUARDED_BY(mutex_) = false;
};

std::vector<std::unique_ptr<ShardWindowSource>> MakeSources(
    std::vector<ScriptedSource*>* handles,
    const std::vector<ScriptedSource::Script>& scripts) {
  std::vector<std::unique_ptr<ShardWindowSource>> sources;
  for (size_t s = 0; s < scripts.size(); ++s) {
    auto source =
        std::make_unique<ScriptedSource>(static_cast<int>(s), scripts[s]);
    handles->push_back(source.get());
    sources.push_back(std::move(source));
  }
  return sources;
}

// ------------------------------------------------------------- ShardMerge --

TEST(ShardMergeTest, MergesSkewedSourcesInWindowOrderShardOrderParts) {
  constexpr int64_t kWindows = 20;
  std::vector<ScriptedSource*> handles;
  // Shard 1 is the straggler: every delivery waits a beat, so the fast
  // shards run into the skew bound and the pending map genuinely reorders.
  ShardMergeOptions options;
  options.max_skew_windows = 2;
  ShardMerge merge(
      MakeSources(&handles, {{.windows = kWindows},
                             {.windows = kWindows, .delay_ms = 1},
                             {.windows = kWindows}}),
      options);

  int64_t expected_index = 0;
  while (std::optional<StreamedWindow> window = merge.Next()) {
    EXPECT_EQ(window->window_index, expected_index);
    ASSERT_EQ(window->edges->size(), 3u);
    for (int s = 0; s < 3; ++s) {
      // Parts concatenate in shard order — the canonical edge order when
      // shards are ascending pair ranges.
      EXPECT_EQ((*window->edges)[static_cast<size_t>(s)].value,
                s * 1000.0 + static_cast<double>(expected_index));
    }
    ++expected_index;
  }
  EXPECT_EQ(expected_index, kWindows);
  EXPECT_TRUE(merge.status().ok()) << merge.status().message();
  EXPECT_EQ(merge.summary().windows_delivered, kWindows);
}

TEST(ShardMergeTest, SkewBoundBlocksTheFastShard) {
  constexpr int64_t kWindows = 50;
  constexpr int64_t kSkew = 4;
  std::vector<ScriptedSource*> handles;
  ShardMergeOptions options;
  options.max_skew_windows = kSkew;
  ShardMerge merge(
      MakeSources(&handles, {{.windows = kWindows},
                             {.windows = kWindows, .block_at = 0}}),
      options);

  // With shard 1 stalled before its first window, nothing can emit
  // (next_emit stays 0), so shard 0's reader must stop pulling at the skew
  // bound instead of buffering all 50 windows.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(handles[0]->delivered(), kSkew + 1)
      << "fast shard ran past the bounded reorder window";

  handles[1]->Release();
  int64_t windows = 0;
  while (std::optional<StreamedWindow> window = merge.Next()) {
    EXPECT_EQ(window->window_index, windows);
    ++windows;
  }
  EXPECT_EQ(windows, kWindows);
  EXPECT_TRUE(merge.status().ok()) << merge.status().message();
}

TEST(ShardMergeTest, FirstShardFailureCancelsSurvivorsAndWins) {
  std::vector<ScriptedSource*> handles;
  // Shard 1 fails terminally (the fingerprint-drift shape: zero windows,
  // FailedPrecondition verdict); shard 0 would happily stream forever.
  ShardMerge merge(MakeSources(
      &handles,
      {{.windows = 1000, .delay_ms = 1},
       {.windows = 0,
        .verdict = Status::FailedPrecondition("dataset fingerprint "
                                              "drifted")}}));

  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(merge.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(merge.status().message().find("shard 1:"), std::string::npos)
      << merge.status().message();
  EXPECT_GE(handles[0]->cancels(), 1)
      << "the surviving shard was never released";
}

TEST(ShardMergeTest, TransportErrorFailsWithTheShardNamed) {
  std::vector<ScriptedSource*> handles;
  ShardMerge merge(MakeSources(
      &handles, {{.windows = 10, .transport_error_at = 3},
                 {.windows = 10, .delay_ms = 1}}));
  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(merge.status().code(), StatusCode::kIoError);
  EXPECT_NE(merge.status().message().find("shard 0:"), std::string::npos)
      << merge.status().message();
  EXPECT_GE(handles[1]->cancels(), 1);
}

TEST(ShardMergeTest, WindowCountMismatchIsInternal) {
  std::vector<ScriptedSource*> handles;
  ShardMerge merge(
      MakeSources(&handles, {{.windows = 3}, {.windows = 2}}));
  int64_t windows = 0;
  while (merge.Next().has_value()) {
    ++windows;
  }
  // How many complete windows emit before the mismatch is caught is a
  // race (0..2); the guarantee is that the stream never ends Ok.
  EXPECT_LE(windows, 2);
  EXPECT_EQ(merge.status().code(), StatusCode::kInternal)
      << merge.status().message();
}

TEST(ShardMergeTest, CancelReleasesEveryUpstream) {
  std::vector<ScriptedSource*> handles;
  ShardMerge merge(MakeSources(&handles, {{.windows = 1000, .delay_ms = 1},
                                          {.windows = 1000, .delay_ms = 1},
                                          {.windows = 1000, .delay_ms = 1}}));
  std::optional<StreamedWindow> first = merge.Next();
  ASSERT_TRUE(first.has_value());
  merge.Cancel();
  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(merge.status().code(), StatusCode::kCancelled);
  for (ScriptedSource* source : handles) {
    EXPECT_GE(source->cancels(), 1);
  }
}

TEST(ShardMergeTest, EmptyMergeIsAnEmptyOkStream) {
  ShardMerge merge({});
  EXPECT_FALSE(merge.Next().has_value());
  EXPECT_TRUE(merge.status().ok());
  EXPECT_EQ(merge.num_shards(), 0);
}

// ----------------------------------------------------- ShardMerge failover --

ShardSlice MakeSlice(std::unique_ptr<ShardWindowSource> source,
                     int64_t pair_begin, int64_t pair_end,
                     std::string label = "", int64_t shard_id = -1) {
  ShardSlice slice;
  slice.source = std::move(source);
  slice.pair_begin = pair_begin;
  slice.pair_end = pair_end;
  slice.label = std::move(label);
  slice.shard_id = shard_id;
  return slice;
}

TEST(ShardMergeFailoverTest, ReconnectResumesTheDeadRangeSeamlessly) {
  constexpr int64_t kWindows = 10;
  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(0, ScriptedSource::Script{
                                              .windows = kWindows}),
      0, 1));
  // Shard 1 delivers windows 0..2, then its transport dies at index 3.
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          1, ScriptedSource::Script{.windows = kWindows,
                                    .transport_error_at = 3}),
      1, 2, "backend-1", /*shard_id=*/7));

  ShardFailover seen;
  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [&](const ShardFailover& f) -> Result<std::vector<ShardSlice>> {
    seen = f;
    // The replacement's upstream is re-anchored at the resume window, so
    // it indexes windows locally from 0; value_base keeps the edge stamps
    // globally consistent so the byte-identity assertion below is real.
    std::vector<ShardSlice> out;
    out.push_back(MakeSlice(
        std::make_unique<ScriptedSource>(
            1, ScriptedSource::Script{.windows = kWindows - f.resume_window,
                                      .value_base = f.resume_window}),
        f.pair_begin, f.pair_end, "backend-1b", f.shard_id));
    return out;
  };

  ShardMerge merge(std::move(slices), /*num_pairs=*/2, options);
  int64_t expected_index = 0;
  while (std::optional<StreamedWindow> window = merge.Next()) {
    EXPECT_EQ(window->window_index, expected_index);
    ASSERT_EQ(window->edges->size(), 2u);
    // The stream the consumer sees is exactly what the healthy run would
    // deliver: same windows, same parts, same values.
    EXPECT_EQ((*window->edges)[0].value,
              static_cast<double>(expected_index));
    EXPECT_EQ((*window->edges)[1].value,
              1000.0 + static_cast<double>(expected_index));
    ++expected_index;
  }
  EXPECT_EQ(expected_index, kWindows);
  EXPECT_TRUE(merge.status().ok()) << merge.status().message();
  EXPECT_EQ(merge.failovers(), 1);

  // The hook saw the dead shard's identity, range, and resume point.
  EXPECT_EQ(seen.shard, 1);
  EXPECT_EQ(seen.shard_id, 7);
  EXPECT_EQ(seen.label, "backend-1");
  EXPECT_EQ(seen.pair_begin, 1);
  EXPECT_EQ(seen.pair_end, 2);
  EXPECT_EQ(seen.resume_window, 3);
  EXPECT_EQ(seen.cause.code(), StatusCode::kIoError);
  EXPECT_NE(seen.cause.message().find("shard 1 (backend-1)"),
            std::string::npos)
      << seen.cause.message();
}

TEST(ShardMergeFailoverTest, SplitsTheDeadRangeAcrossReplacements) {
  constexpr int64_t kWindows = 8;
  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(0, ScriptedSource::Script{
                                              .windows = kWindows}),
      0, 1));
  // The dead shard covered two pair units; its takeover splits in two.
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          1, ScriptedSource::Script{.windows = kWindows,
                                    .transport_error_at = 2}),
      1, 3));

  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [&](const ShardFailover& f) -> Result<std::vector<ShardSlice>> {
    std::vector<ShardSlice> out;
    out.push_back(MakeSlice(
        std::make_unique<ScriptedSource>(
            1, ScriptedSource::Script{.windows = kWindows - f.resume_window,
                                      .value_base = f.resume_window}),
        1, 2));
    out.push_back(MakeSlice(
        std::make_unique<ScriptedSource>(
            2, ScriptedSource::Script{.windows = kWindows - f.resume_window,
                                      .value_base = f.resume_window}),
        2, 3));
    return out;
  };

  ShardMerge merge(std::move(slices), /*num_pairs=*/3, options);
  int64_t expected_index = 0;
  while (std::optional<StreamedWindow> window = merge.Next()) {
    EXPECT_EQ(window->window_index, expected_index);
    // Windows the dead shard delivered carry its one wide part; windows
    // past the failover carry the two replacement parts — in ascending
    // pair-range order either way.
    if (expected_index < 2) {
      ASSERT_EQ(window->edges->size(), 2u);
    } else {
      ASSERT_EQ(window->edges->size(), 3u);
      EXPECT_EQ((*window->edges)[1].value,
                1000.0 + static_cast<double>(expected_index));
      EXPECT_EQ((*window->edges)[2].value,
                2000.0 + static_cast<double>(expected_index));
    }
    EXPECT_EQ((*window->edges)[0].value,
              static_cast<double>(expected_index));
    ++expected_index;
  }
  EXPECT_EQ(expected_index, kWindows);
  EXPECT_TRUE(merge.status().ok()) << merge.status().message();
  EXPECT_EQ(merge.failovers(), 1);
}

TEST(ShardMergeFailoverTest, BudgetExhaustedFailsWithThePrefixedCause) {
  constexpr int64_t kWindows = 10;
  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(0, ScriptedSource::Script{
                                              .windows = kWindows}),
      0, 1));
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          1, ScriptedSource::Script{.windows = kWindows,
                                    .transport_error_at = 2}),
      1, 2, "backend-1"));

  std::atomic<int> hook_calls{0};
  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [&](const ShardFailover& f) -> Result<std::vector<ShardSlice>> {
    ++hook_calls;
    // The replacement dies too (local index 1 = global window 3): the
    // second death finds the budget spent and must fail the merge.
    std::vector<ShardSlice> out;
    out.push_back(MakeSlice(
        std::make_unique<ScriptedSource>(
            1, ScriptedSource::Script{.windows = kWindows - f.resume_window,
                                      .transport_error_at = 1,
                                      .value_base = f.resume_window}),
        f.pair_begin, f.pair_end, "replacement"));
    return out;
  };

  ShardMerge merge(std::move(slices), /*num_pairs=*/2, options);
  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(merge.failovers(), 1);
  EXPECT_EQ(merge.status().code(), StatusCode::kIoError);
  // The terminal error names the slice that died with no budget left —
  // the replacement, at its fresh index past the original shards.
  EXPECT_NE(merge.status().message().find("shard 2 (replacement)"),
            std::string::npos)
      << merge.status().message();
}

TEST(ShardMergeFailoverTest, TerminalUnavailableVerdictIsRetryable) {
  constexpr int64_t kWindows = 10;
  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(0, ScriptedSource::Script{
                                              .windows = kWindows}),
      0, 1));
  // The shard's stream ends cleanly but its verdict is Unavailable — the
  // "process killed between frames" shape. Retryable, unlike other codes.
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          1, ScriptedSource::Script{
                 .windows = 4,
                 .verdict = Status::Unavailable("shard went away")}),
      1, 2));

  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [&](const ShardFailover& f) -> Result<std::vector<ShardSlice>> {
    EXPECT_EQ(f.resume_window, 4);
    EXPECT_EQ(f.cause.code(), StatusCode::kUnavailable);
    std::vector<ShardSlice> out;
    out.push_back(MakeSlice(
        std::make_unique<ScriptedSource>(
            1, ScriptedSource::Script{.windows = kWindows - f.resume_window,
                                      .value_base = f.resume_window}),
        f.pair_begin, f.pair_end));
    return out;
  };

  ShardMerge merge(std::move(slices), /*num_pairs=*/2, options);
  int64_t windows = 0;
  while (merge.Next().has_value()) {
    ++windows;
  }
  EXPECT_EQ(windows, kWindows);
  EXPECT_TRUE(merge.status().ok()) << merge.status().message();
  EXPECT_EQ(merge.failovers(), 1);
}

TEST(ShardMergeFailoverTest, NonRetryableVerdictBypassesTheHook) {
  std::atomic<int> hook_calls{0};
  ShardMergeOptions options;
  options.max_failovers = 2;
  options.failover =
      [&](const ShardFailover&) -> Result<std::vector<ShardSlice>> {
    ++hook_calls;
    return Status::Internal("must never be called");
  };

  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(0, ScriptedSource::Script{
                                              .windows = 100,
                                              .delay_ms = 1}),
      0, 1));
  // Fingerprint drift would recur on any replacement: fail fast instead
  // of burning the failover budget on a deterministic error.
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          1, ScriptedSource::Script{
                 .windows = 0,
                 .verdict = Status::FailedPrecondition("drifted")}),
      1, 2));

  ShardMerge merge(std::move(slices), /*num_pairs=*/2, options);
  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(hook_calls.load(), 0);
  EXPECT_EQ(merge.failovers(), 0);
  EXPECT_EQ(merge.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardMergeFailoverTest, HookErrorAnnotatesTheOriginalCause) {
  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [](const ShardFailover&) -> Result<std::vector<ShardSlice>> {
    return Status::Unavailable("no live shard to take over");
  };

  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          0, ScriptedSource::Script{.windows = 5,
                                    .transport_error_at = 1}),
      0, 1));

  ShardMerge merge(std::move(slices), /*num_pairs=*/1, options);
  while (merge.Next().has_value()) {
  }
  // The stream fails with the shard's original error — the re-dispatch
  // failure rides along as an annotation, it does not replace the cause.
  EXPECT_EQ(merge.status().code(), StatusCode::kIoError);
  EXPECT_NE(merge.status().message().find("scripted transport failure"),
            std::string::npos)
      << merge.status().message();
  EXPECT_NE(
      merge.status().message().find("failover failed: no live shard"),
      std::string::npos)
      << merge.status().message();
}

TEST(ShardMergeFailoverTest, ReplacementCoverageMismatchIsInternal) {
  ShardMergeOptions options;
  options.max_failovers = 1;
  options.failover =
      [](const ShardFailover& f) -> Result<std::vector<ShardSlice>> {
    // Covers only half the dead range: a bug the merge must catch rather
    // than hang waiting for pairs nobody will deliver.
    std::vector<ShardSlice> out;
    out.push_back(MakeSlice(std::make_unique<ScriptedSource>(
                                1, ScriptedSource::Script{.windows = 5}),
                            f.pair_begin, f.pair_begin + 1));
    return out;
  };

  std::vector<ShardSlice> slices;
  slices.push_back(MakeSlice(
      std::make_unique<ScriptedSource>(
          0, ScriptedSource::Script{.windows = 5,
                                    .transport_error_at = 1}),
      0, 2));

  ShardMerge merge(std::move(slices), /*num_pairs=*/2, options);
  while (merge.Next().has_value()) {
  }
  EXPECT_EQ(merge.status().code(), StatusCode::kInternal)
      << merge.status().message();
}

// ---------------------------------------------------- WireClient timeouts --

TEST(WireClientTimeoutTest, ConnectTimesOutOnANeverAcceptingListener) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);  // minimal queue, never accepted
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  // The kernel completes a few handshakes into the (never-drained) accept
  // queue; once it is full, further SYNs are dropped and the connect can
  // only hang — exactly what the timeout exists for. Keep each queued
  // connection open so it goes on occupying its slot.
  WireClientOptions options;
  options.connect_timeout_ms = 200;
  std::vector<std::unique_ptr<WireClient>> queued;
  Status verdict = Status::Ok();
  for (int attempt = 0; attempt < 32; ++attempt) {
    auto client = WireClient::ConnectTcp("127.0.0.1", port, options);
    if (!client.ok()) {
      verdict = client.status();
      break;
    }
    queued.push_back(std::move(*client));
  }
  EXPECT_EQ(verdict.code(), StatusCode::kUnavailable) << verdict.ToString();
  ::close(listener);
}

TEST(WireClientTimeoutTest, ReadTimesOutOnASilentServer) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  // Accepts, reads, never answers: a live but silent peer — from the
  // client's side indistinguishable from a dead one, which is the point.
  std::thread silent_server([listener] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    char buf[256];
    while (::recv(conn, buf, sizeof(buf), 0) > 0) {
    }
    ::close(conn);
  });

  {
    WireClientOptions options;
    options.connect_timeout_ms = 1000;
    options.read_timeout_ms = 150;
    auto client = WireClient::ConnectTcp("127.0.0.1", port, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    WireRequest request;
    request.dataset = "d";
    request.query.window = 24;
    request.query.step = 24;
    request.query.end = 96;
    request.query.threshold = 0.5;
    ASSERT_TRUE((*client)->Submit(request).ok());
    auto window = (*client)->Next();
    EXPECT_FALSE(window.ok());
    EXPECT_EQ(window.status().code(), StatusCode::kUnavailable)
        << window.status().ToString();
  }  // closing the client unblocks the server thread's recv

  silent_server.join();
  ::close(listener);
}

// --------------------------------------------------- WireClient reconnect --

/// Open descriptors in this process (includes the scan's own dirfd, which
/// cancels out in before/after comparisons).
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (::readdir(dir) != nullptr) {
    ++count;
  }
  ::closedir(dir);
  return count;
}

TEST(WireClientReconnectTest, RetriedRefusedConnectsLeakNoFds) {
  // A loopback port with nothing behind it: bind, read the port back,
  // close — connects are refused immediately, the router's reconnect-storm
  // shape.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  WireClientOptions options;
  options.connect_timeout_ms = 200;
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto client = WireClient::ConnectTcp("127.0.0.1", port, options);
    EXPECT_FALSE(client.ok());
  }
  // Every failed attempt closed its socket: a reconnect loop (ShardRouter
  // retries, supervisor probes) must not bleed descriptors.
  EXPECT_EQ(CountOpenFds(), baseline);
}

// ------------------------------------------------------------- end to end --

constexpr int64_t kBasicWindow = 24;
// 96 series = 4560 pairs = 5 sweep tiles: enough tiles for a genuine 4-way
// fan-out (a 2-tile dataset would silently shrink K=4 to K=2).
constexpr int64_t kNumSeries = 96;

class RouterE2ETest : public ::testing::Test {
 protected:
  static DangoronServerOptions ServerOptions() {
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = kBasicWindow;
    return options;
  }

  SlidingQuery TestQuery() const {
    SlidingQuery query;
    query.start = 0;
    query.end = length_;
    query.window = 4 * kBasicWindow;
    query.step = kBasicWindow;
    query.threshold = 0.1;
    query.absolute = true;  // dense edge sets
    return query;
  }

  int64_t ExpectedWindows() const {
    return (length_ - TestQuery().window) / TestQuery().step + 1;
  }

  static int64_t NumPairs() { return kNumSeries * (kNumSeries - 1) / 2; }

  void AddShard(std::shared_ptr<const TimeSeriesMatrix> data) {
    auto server = std::make_unique<DangoronServer>(ServerOptions());
    CHECK(server->AddDataset("d", std::move(data)).ok());
    WireServerOptions wire_options;
    wire_options.port = -1;  // connections arrive only via AddConnection
    wire_options.outbuf_high_watermark = shard_outbuf_watermark_;
    auto wire = std::make_unique<WireServer>(server.get(), wire_options);
    CHECK(wire->Start().ok());
    servers_.push_back(std::move(server));
    wires_.push_back(std::move(wire));
  }

  void StartShards(int shards, int64_t num_basic_windows = 8) {
    length_ = num_basic_windows * kBasicWindow;
    Rng rng(5);
    data_ = std::make_shared<const TimeSeriesMatrix>(
        GenerateWhiteNoise(kNumSeries, length_, &rng));
    for (int s = 0; s < shards; ++s) {
      AddShard(data_);
    }
  }

  /// Router options whose connections are socketpairs into the in-process
  /// shard WireServers — the whole sharded path with no network stack.
  /// Killed shards (KillShard) refuse with Unavailable, like a host whose
  /// process is gone.
  ShardRouterOptions RouterOptions() {
    ShardRouterOptions options;
    options.shards.resize(wires_.size());  // endpoints unused: override
    options.connect_backoff_ms = 1;        // keep reconnect retries fast
    options.connect_override =
        [this](int shard) -> Result<std::unique_ptr<WireClient>> {
      if (IsDead(shard)) {
        return Status::Unavailable("shard ", shard, " is down (test kill)");
      }
      int fds[2];
      CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
      CHECK(wires_[static_cast<size_t>(shard)]->AddConnection(fds[0]).ok());
      return WireClient::Adopt(fds[1]);
    };
    return options;
  }

  /// The in-process SIGKILL analog: the shard's WireServer stops (closing
  /// its in-flight connections mid-frame) and every later connect to it is
  /// refused.
  void KillShard(int shard) {
    {
      MutexLock lock(dead_mutex_);
      if (dead_.size() < wires_.size()) {
        dead_.resize(wires_.size(), false);
      }
      dead_[static_cast<size_t>(shard)] = true;
    }
    wires_[static_cast<size_t>(shard)]->Stop();
  }

  bool IsDead(int shard) {
    MutexLock lock(dead_mutex_);
    return static_cast<size_t>(shard) < dead_.size() &&
           dead_[static_cast<size_t>(shard)];
  }

  WireRequest TestRequest() const {
    WireRequest request;
    request.dataset = "d";
    request.query = TestQuery();
    return request;
  }

  /// Bytes an AF_UNIX socketpair can hold for a peer that stops reading:
  /// the sender's SO_SNDBUF plus the receiver's SO_RCVBUF (an upper bound —
  /// stream unix sockets charge only the sender).
  static int64_t SocketpairBufferBytes() {
    int fds[2];
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    int sndbuf = 0;
    int rcvbuf = 0;
    socklen_t len = sizeof(sndbuf);
    CHECK(getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len) == 0);
    len = sizeof(rcvbuf);
    CHECK(getsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len) == 0);
    close(fds[0]);
    close(fds[1]);
    return int64_t{sndbuf} + int64_t{rcvbuf};
  }

  /// Encoded Window-frame sizes of `query`'s in-process answer over data_:
  /// the bytes of every window after the first `consumed` (what a client
  /// that read that many windows leaves undelivered) and the largest frame.
  void AnswerFrameBytes(const SlidingQuery& query, int64_t consumed,
                        int64_t* remainder_bytes, int64_t* max_frame) {
    *remainder_bytes = 0;
    *max_frame = 0;
    DangoronServer reference(ServerOptions());
    ASSERT_TRUE(reference.AddDataset("d", data_).ok());
    auto answer = reference.Query("d", query);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    for (int64_t k = 0; k < answer->series.num_windows(); ++k) {
      std::string frame;
      EncodeWindowFrame(k, answer->series.WindowEdges(k), &frame);
      *max_frame = std::max(*max_frame, static_cast<int64_t>(frame.size()));
      if (k >= consumed) {
        *remainder_bytes += static_cast<int64_t>(frame.size());
      }
    }
  }

  /// Checked precondition of the shard-kill tests: shard `shard` of a
  /// `shards`-way split cannot have sent its whole answer by the time the
  /// consumer has read `consumed` merged windows. The windows after those
  /// encode to more than everything between its producer and the consumer
  /// can hold: the socketpair's buffers, the shard's outbuf watermark, two
  /// 64 KiB client read chunks, and whole frames in the shard's stream
  /// queue and run, its wire worker, the outbuf overshoot, the client's
  /// partial read, the merge's skew window, emitter and downstream queue.
  void AssertShardCannotFinishBefore(const WireRequest& request, int shards,
                                     int shard, int64_t consumed) {
    const auto [pair_begin, pair_end] =
        SplitPairRanges(NumPairs(), shards)[static_cast<size_t>(shard)];
    SlidingQuery slice = request.query;
    slice.pair_begin = pair_begin;
    slice.pair_end = pair_end;
    int64_t remainder_bytes = 0;
    int64_t max_frame = 0;
    AnswerFrameBytes(slice, consumed, &remainder_bytes, &max_frame);
    const int64_t frames =
        consumed + 2 * request.options.queue_capacity +
        request.options.max_batch_windows +
        ShardMergeOptions().max_skew_windows + 5;
    const int64_t absorbable = SocketpairBufferBytes() +
                               shard_outbuf_watermark_ +
                               2 * (int64_t{64} << 10) + frames * max_frame;
    ASSERT_GT(remainder_bytes, absorbable)
        << "shard " << shard << " (pairs [" << pair_begin << ", " << pair_end
        << ")): the rest of its answer fits in the buffers";
  }

  static bool PollFor(const std::function<bool()>& predicate) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return predicate();
  }

  /// Drains a K-shard merge and the in-process reference stream side by
  /// side, comparing the encoded frame bytes of every window. `on_window`
  /// (optional) runs after each comparison — the failover tests use it to
  /// kill a shard at a known point mid-stream.
  void ExpectShardedMatchesInProcess(
      ShardMerge* merge,
      const std::function<void(int64_t)>& on_window = nullptr) {
    DangoronServer reference(ServerOptions());
    ASSERT_TRUE(reference.AddDataset("d", data_).ok());
    QueryRequest in_process;
    in_process.dataset = "d";
    in_process.query = TestQuery();
    auto ref_stream = reference.SubmitStreaming(in_process);

    int64_t windows = 0;
    while (true) {
      std::optional<StreamedWindow> merged = merge->Next();
      auto ref = ref_stream->Next();
      if (!merged.has_value()) {
        EXPECT_FALSE(ref.has_value());
        break;
      }
      ASSERT_TRUE(ref.has_value());
      std::string merged_bytes;
      std::string ref_bytes;
      EncodeWindowFrame(merged->window_index, *merged->edges, &merged_bytes);
      EncodeWindowFrame(ref->window_index, *ref->edges, &ref_bytes);
      ASSERT_EQ(merged_bytes.size(), ref_bytes.size())
          << "window " << ref->window_index;
      ASSERT_EQ(std::memcmp(merged_bytes.data(), ref_bytes.data(),
                            merged_bytes.size()),
                0)
          << "window " << ref->window_index
          << " differs between sharded and in-process delivery";
      if (on_window) {
        on_window(ref->window_index);
      }
      ++windows;
    }
    EXPECT_TRUE(ref_stream->status().ok());
    EXPECT_TRUE(merge->status().ok()) << merge->status().message();
    EXPECT_EQ(windows, ExpectedWindows());
    EXPECT_EQ(merge->summary().windows_delivered, windows);
  }

  int64_t length_ = 0;
  /// Outbuf watermark of shard WireServers added from now on.
  int64_t shard_outbuf_watermark_ = WireServerOptions().outbuf_high_watermark;
  std::shared_ptr<const TimeSeriesMatrix> data_;
  std::vector<std::unique_ptr<DangoronServer>> servers_;
  std::vector<std::unique_ptr<WireServer>> wires_;  // after servers_: stops
                                                    // before they die
  Mutex dead_mutex_;
  std::vector<bool> dead_ GUARDED_BY(dead_mutex_);
};

TEST_F(RouterE2ETest, TwoShardsAreByteIdenticalToInProcess) {
  StartShards(2);
  ShardRouter router(RouterOptions());
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  ExpectShardedMatchesInProcess(merge->get());
  for (const auto& wire : wires_) {
    EXPECT_EQ(wire->stats().requests, 1);  // every shard saw the fan-out
  }
  for (const auto& server : servers_) {
    EXPECT_EQ(server->stats().inflight_window_claims, 0);
  }
}

TEST_F(RouterE2ETest, FourShardsAreByteIdenticalToInProcess) {
  StartShards(4);
  ShardRouter router(RouterOptions());
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  ExpectShardedMatchesInProcess(merge->get());
  for (const auto& wire : wires_) {
    EXPECT_EQ(wire->stats().requests, 1);
  }
}

TEST_F(RouterE2ETest, FingerprintDriftOnOneShardFailsTheQuery) {
  StartShards(1);
  // Shard 1's replica drifted: same name, different content.
  Rng rng(99);
  AddShard(std::make_shared<const TimeSeriesMatrix>(
      GenerateWhiteNoise(kNumSeries, length_, &rng)));

  ShardRouter router(RouterOptions());
  WireRequest request = TestRequest();
  request.expected_fingerprint = data_->ContentFingerprint();
  auto merge = router.Submit(request, NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  while ((*merge)->Next().has_value()) {
  }
  EXPECT_EQ((*merge)->status().code(), StatusCode::kFailedPrecondition)
      << (*merge)->status().message();
  // The failure prefix names the shard's endpoint, not just its index.
  EXPECT_NE((*merge)->status().message().find("shard 1 ("),
            std::string::npos)
      << (*merge)->status().message();
  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }));
  }
}

TEST_F(RouterE2ETest, CancelMidStreamReleasesAllShardsWithNoLeakedClaims) {
  // A small shard outbuf: the shard's wire worker blocks early.
  shard_outbuf_watermark_ = int64_t{1} << 14;
  StartShards(2, /*num_basic_windows=*/128);  // 125 windows: genuinely mid-
                                              // stream when the cancel lands
  ShardRouter router(RouterOptions());
  WireRequest request = TestRequest();
  request.options.queue_capacity = 2;  // tight downstream queue
  // Near-dense edge sets, so each shard's undelivered remainder is large.
  request.query.threshold = 0.01;

  // Checked precondition: no shard's producer can slip to a clean Ok
  // finish before the cancel frame reaches it.
  for (int shard = 0; shard < 2; ++shard) {
    AssertShardCannotFinishBefore(request, 2, shard, /*consumed=*/1);
  }

  auto merge = router.Submit(request, NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();

  std::optional<StreamedWindow> first = (*merge)->Next();
  ASSERT_TRUE(first.has_value());
  (*merge)->Cancel();
  while ((*merge)->Next().has_value()) {
  }
  EXPECT_EQ((*merge)->status().code(), StatusCode::kCancelled);

  // Every shard's producer unwinds with zero leaked window claims, and the
  // shards still serve: a fresh sharded query completes in full.
  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }))
        << "a shard leaked window claims after the fanned-out cancel";
    EXPECT_TRUE(
        PollFor([&] { return server->stats().streams_cancelled >= 1; }));
  }
  auto rerun = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(rerun.ok());
  int64_t windows = 0;
  while ((*rerun)->Next().has_value()) {
    ++windows;
  }
  EXPECT_TRUE((*rerun)->status().ok()) << (*rerun)->status().message();
  EXPECT_EQ(windows, ExpectedWindows());
}

// A routed query's terminal accounting is the fold of its shards': the
// cold query paid builds, and a repeat in another threshold family reuses
// every shard's sketch (prepared_from_cache) while recomputing its windows,
// reporting exactly the windows the shards computed.
TEST_F(RouterE2ETest, RoutedAccountingFoldsCachedPrepareAndShardComputeSum) {
  StartShards(2);
  ShardRouter router(RouterOptions());
  auto run = [&](const WireRequest& request) -> WireSummary {
    auto merge = router.Submit(request, NumPairs());
    EXPECT_TRUE(merge.ok()) << merge.status().message();
    if (!merge.ok()) {
      return WireSummary{};
    }
    while ((*merge)->Next().has_value()) {
    }
    EXPECT_TRUE((*merge)->status().ok()) << (*merge)->status().message();
    return (*merge)->summary();
  };
  auto shard_windows_computed = [&] {
    int64_t total = 0;
    for (const auto& server : servers_) {
      total += server->stats().windows_computed;
    }
    return total;
  };

  const WireSummary cold = run(TestRequest());
  EXPECT_FALSE(cold.prepared_from_cache);  // the shards built
  EXPECT_EQ(cold.windows_computed, shard_windows_computed());

  WireRequest repeat = TestRequest();
  repeat.query.threshold = 0.5;  // another family: no window-cache hits
  const int64_t computed_before = shard_windows_computed();
  const WireSummary warm = run(repeat);
  EXPECT_TRUE(warm.prepared_from_cache);
  EXPECT_EQ(warm.windows_computed, shard_windows_computed() - computed_before);
  EXPECT_EQ(warm.windows_computed,
            static_cast<int64_t>(servers_.size()) * ExpectedWindows());
  EXPECT_EQ(warm.windows_delivered, ExpectedWindows());
}

TEST_F(RouterE2ETest, TryPushSkewFailpointStillMergesByteIdentically) {
  if (!kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
  }
  StartShards(2);
  ShardRouter router(RouterOptions());
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();

  // Adversarial skew on the real delivery path: every shard's TryPush
  // spuriously fails 40% of the time (process-global site), kicking the
  // producers onto their slow claim-safe fallback at uncorrelated moments.
  // The merged stream must not show it: same bytes, same order.
  struct DisarmOnExit {
    ~DisarmOnExit() { FailpointRegistry::Instance().DisarmAll(); }
  } disarm_on_exit;
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("stream.try_push=wake%40")
                  .ok());
  ExpectShardedMatchesInProcess(merge->get());
}

// ---------------------------------------------------------- E2E failover --

TEST_F(RouterE2ETest, KilledShardMidStreamFailsOverByteIdentical) {
  // 253 windows behind small shard outbufs: when the kill lands at window
  // 2, the dying shard cannot have sent its whole answer — the failover
  // genuinely resumes mid-query, and the merged bytes must not show it.
  shard_outbuf_watermark_ = int64_t{1} << 14;
  StartShards(3, /*num_basic_windows=*/256);
  AssertShardCannotFinishBefore(TestRequest(), 3, 1, /*consumed=*/3);
  ShardRouter router(RouterOptions());
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();

  std::atomic<bool> killed{false};
  ExpectShardedMatchesInProcess(merge->get(), [&](int64_t window) {
    if (window == 2 && !killed.exchange(true)) {
      KillShard(1);  // reconnects refuse: the range splits over survivors
    }
  });
  EXPECT_TRUE(killed.load());
  EXPECT_GE((*merge)->failovers(), 1);

  // Nobody leaked a window claim: not the dead shard (its server cancelled
  // the stream when the connection died), not the survivors that absorbed
  // its range.
  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }))
        << "a shard leaked window claims across the failover";
  }
}

TEST_F(RouterE2ETest, FailoverBuildsSurvivorsOnlyTheDeadRangesSketches) {
  // Three shards own [0, 2048), [2048, 4096) and [4096, 4560). When shard 1
  // dies, its range splits tile-aligned over the survivors, and each
  // survivor prepares a range sketch of exactly its new piece — never a
  // full sketch — while the merged bytes stay those of the unsharded run.
  shard_outbuf_watermark_ = int64_t{1} << 14;
  StartShards(3, /*num_basic_windows=*/256);
  AssertShardCannotFinishBefore(TestRequest(), 3, 1, /*consumed=*/3);
  ShardRouter router(RouterOptions());
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  std::atomic<bool> killed{false};
  ExpectShardedMatchesInProcess(merge->get(), [&](int64_t window) {
    if (window == 2 && !killed.exchange(true)) {
      KillShard(1);
    }
  });
  ASSERT_GE((*merge)->failovers(), 1);

  auto range_query = [&](int64_t lo, int64_t hi) {
    SlidingQuery query = TestQuery();
    query.pair_begin = lo;
    query.pair_end = hi;
    return query;
  };
  for (const int s : {0, 2}) {
    EXPECT_FALSE(servers_[static_cast<size_t>(s)]->HasPreparedSketch("d"))
        << "survivor " << s << " built a full sketch";
  }
  EXPECT_TRUE(servers_[0]->HasPreparedSketch("d", range_query(0, 2048)));
  EXPECT_TRUE(servers_[2]->HasPreparedSketch("d", range_query(4096, 4560)));
  for (const auto& [lo, hi] :
       {std::pair<int64_t, int64_t>{2048, 3072}, {3072, 4096}}) {
    EXPECT_TRUE(servers_[0]->HasPreparedSketch("d", range_query(lo, hi)) ||
                servers_[2]->HasPreparedSketch("d", range_query(lo, hi)))
        << "no survivor holds the re-dispatched range [" << lo << ", " << hi
        << ")";
  }
}

TEST_F(RouterE2ETest, KilledShardWithFailoverDisabledFailsPrefixed) {
  shard_outbuf_watermark_ = int64_t{1} << 14;
  StartShards(3, /*num_basic_windows=*/256);
  ShardRouterOptions options = RouterOptions();
  options.max_failovers = 0;  // the PR 8 behavior: first death is fatal
  ShardRouter router(options);
  WireRequest request = TestRequest();
  request.options.queue_capacity = 2;
  AssertShardCannotFinishBefore(request, 3, 1, /*consumed=*/1);
  auto merge = router.Submit(request, NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();

  ASSERT_TRUE((*merge)->Next().has_value());
  KillShard(1);
  while ((*merge)->Next().has_value()) {
  }
  const Status status = (*merge)->status();
  EXPECT_FALSE(status.ok());
  // How the kill surfaces depends on where the read was when the socket
  // died: mid-frame EOF (DataLoss), recv error (IoError), or a stalled
  // read timing out (Unavailable). All are transport deaths.
  EXPECT_TRUE(status.code() == StatusCode::kIoError ||
              status.code() == StatusCode::kUnavailable ||
              status.code() == StatusCode::kDataLoss)
      << status.ToString();
  EXPECT_NE(status.message().find("shard 1 ("), std::string::npos)
      << status.message();
  EXPECT_EQ((*merge)->failovers(), 0);

  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }))
        << "a shard leaked window claims after the fatal shard death";
  }
}

TEST_F(RouterE2ETest, StreamReadFailpointFailsOverAndStaysByteIdentical) {
  if (!kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
  }
  // 29 windows with a tight merged queue: the readers stall at the skew
  // bound until the drain below starts, so the one-shot fault always lands
  // while the stream is genuinely in flight.
  StartShards(2, /*num_basic_windows=*/32);
  ShardRouter router(RouterOptions());
  struct DisarmOnExit {
    ~DisarmOnExit() { FailpointRegistry::Instance().DisarmAll(); }
  } disarm_on_exit;
  WireRequest request = TestRequest();
  request.options.queue_capacity = 2;
  auto merge = router.Submit(request, NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();

  // Exactly one stream read is poisoned with the shard-died code; the
  // backend is healthy, so the failover's reconnect leg resumes the same
  // shard from the first undelivered window.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("router.stream_read=error:unavailable*1")
                  .ok());
  ExpectShardedMatchesInProcess(merge->get());
  EXPECT_EQ((*merge)->failovers(), 1);
  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }));
  }
}

TEST_F(RouterE2ETest, BreakerTripsAndSkipsTheDeadShardAtPlanTime) {
  StartShards(3);
  ShardRouterOptions options = RouterOptions();
  std::atomic<int> shard1_connects{0};
  const auto inner = options.connect_override;
  options.connect_override =
      [&shard1_connects,
       inner](int shard) -> Result<std::unique_ptr<WireClient>> {
    if (shard == 1) {
      ++shard1_connects;
    }
    return inner(shard);
  };
  ShardRouter router(options);
  KillShard(1);

  // Each failed plan drops the dead shard, re-plans over the survivors,
  // and still answers — byte-identical to the unsharded run.
  auto merge = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(merge.ok()) << merge.status().message();
  ExpectShardedMatchesInProcess(merge->get());
  EXPECT_EQ(router.health(1), ShardHealth::kSuspect);

  auto again = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(again.ok());
  int64_t windows = 0;
  while ((*again)->Next().has_value()) {
    ++windows;
  }
  EXPECT_TRUE((*again)->status().ok()) << (*again)->status().message();
  EXPECT_EQ(windows, ExpectedWindows());
  // Two consecutive failures: the breaker opens.
  EXPECT_EQ(router.health(1), ShardHealth::kDown);

  // With the circuit open, planning skips the shard without paying its
  // connect timeout: not a single connect attempt reaches it.
  const int connects_before = shard1_connects.load();
  auto skipped = router.Submit(TestRequest(), NumPairs());
  ASSERT_TRUE(skipped.ok());
  while ((*skipped)->Next().has_value()) {
  }
  EXPECT_TRUE((*skipped)->status().ok());
  EXPECT_EQ(shard1_connects.load(), connects_before);

  // The supervisor's respawn-ready signal closes the circuit immediately.
  router.MarkShardUp(1);
  EXPECT_EQ(router.health(1), ShardHealth::kHealthy);
}

TEST(ShardRouterHealthTest, MarkShardUpBoundsCheckIsSafeUnderConcurrency) {
  // Regression: MarkShardUp used to read health_.size() before taking the
  // health lock — flagged the moment the field was GUARDED_BY-annotated.
  // The contract under test: out-of-range signals (a supervisor racing a
  // reconfiguration) are safe no-ops, in-range signals heal the shard, and
  // concurrent callers never race the health machine (TSan covers this
  // test in CI).
  ShardRouterOptions options;
  options.shards.resize(2);
  ShardRouter router(options);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&router, t] {
      for (int i = 0; i < 500; ++i) {
        router.MarkShardUp(t % 2);
        router.MarkShardUp(-1);                // below range: no-op
        router.MarkShardUp(2 + (i % 7));       // above range: no-op
        (void)router.health(t % 2);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(router.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(router.health(1), ShardHealth::kHealthy);
}

TEST_F(RouterE2ETest, ReconnectAfterAnAbandonedStreamStartsClean) {
  // Real TCP this time: the reconnect semantics under test are exactly
  // what the router's failover leans on — a fresh ConnectTcp after a
  // mid-stream abandon must carry no FrameReader state from the old
  // connection.
  StartShards(1);
  WireServerOptions tcp_options;
  tcp_options.port = 0;  // ephemeral
  WireServer tcp(servers_[0].get(), tcp_options);
  ASSERT_TRUE(tcp.Start().ok());
  const int port = tcp.port();
  WireClientOptions client_options;
  client_options.connect_timeout_ms = 1000;
  client_options.read_timeout_ms = 5000;

  {
    auto abandoned =
        WireClient::ConnectTcp("127.0.0.1", port, client_options);
    ASSERT_TRUE(abandoned.ok()) << abandoned.status().ToString();
    WireRequest request = TestRequest();
    request.options.queue_capacity = 1;
    ASSERT_TRUE((*abandoned)->Submit(request).ok());
    auto first = (*abandoned)->Next();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->has_value());
  }  // dropped mid-stream: frames half-read on the wire die with the fd

  auto fresh = WireClient::ConnectTcp("127.0.0.1", port, client_options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE((*fresh)->Submit(TestRequest()).ok());
  int64_t windows = 0;
  while (true) {
    auto window = (*fresh)->Next();
    ASSERT_TRUE(window.ok()) << window.status().ToString();
    if (!window->has_value()) {
      break;
    }
    EXPECT_EQ((*window)->window_index, windows);
    ++windows;
  }
  EXPECT_TRUE((*fresh)->result_status().ok())
      << (*fresh)->result_status().message();
  EXPECT_EQ(windows, ExpectedWindows());
  tcp.Stop();
}

// ----------------------------------------------------------- RouterServer --

TEST_F(RouterE2ETest, RouterServerSpeaksTheWireProtocolTransparently) {
  StartShards(2);
  ShardRouter router(RouterOptions());
  RouterServerOptions options;
  options.port = -1;
  RouterServer front(&router, options);
  front.RegisterDataset("d", kNumSeries, data_->ContentFingerprint());
  ASSERT_TRUE(front.Start().ok());

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(front.AddConnection(fds[0]).ok());
  auto client = WireClient::Adopt(fds[1]);

  // A wire client cannot tell the router from a single shard: same
  // protocol, byte-identical windows.
  ASSERT_TRUE(client->Submit(TestRequest()).ok());
  DangoronServer reference(ServerOptions());
  ASSERT_TRUE(reference.AddDataset("d", data_).ok());
  QueryRequest in_process;
  in_process.dataset = "d";
  in_process.query = TestQuery();
  auto ref_stream = reference.SubmitStreaming(in_process);
  int64_t windows = 0;
  while (true) {
    auto from_router = client->Next();
    ASSERT_TRUE(from_router.ok()) << from_router.status().message();
    auto from_ref = ref_stream->Next();
    if (!from_router->has_value()) {
      EXPECT_FALSE(from_ref.has_value());
      break;
    }
    ASSERT_TRUE(from_ref.has_value());
    std::string router_bytes;
    std::string ref_bytes;
    EncodeWindowFrame((*from_router)->window_index,
                      *(*from_router)->edges, &router_bytes);
    EncodeWindowFrame(from_ref->window_index, *from_ref->edges, &ref_bytes);
    ASSERT_EQ(router_bytes, ref_bytes)
        << "window " << from_ref->window_index;
    ++windows;
  }
  EXPECT_TRUE(client->result_status().ok())
      << client->result_status().message();
  EXPECT_EQ(windows, ExpectedWindows());
  EXPECT_EQ(client->summary().windows_delivered, windows);

  // Unknown dataset: NotFound, and the connection stays usable.
  WireRequest unknown = TestRequest();
  unknown.dataset = "nope";
  ASSERT_TRUE(client->Submit(unknown).ok());
  auto window = client->Next();
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->has_value());
  EXPECT_EQ(client->result_status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(client->Submit(TestRequest()).ok());
  int64_t rerun_windows = 0;
  while (true) {
    auto rerun = client->Next();
    ASSERT_TRUE(rerun.ok());
    if (!rerun->has_value()) {
      break;
    }
    ++rerun_windows;
  }
  EXPECT_TRUE(client->result_status().ok());
  EXPECT_EQ(rerun_windows, ExpectedWindows());

  front.Stop();
  const RouterServerStats stats = front.stats();
  EXPECT_EQ(stats.connections_adopted, 1);
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST_F(RouterE2ETest, RouterServerPinsTheRegisteredFingerprint) {
  StartShards(1);
  Rng rng(99);
  AddShard(std::make_shared<const TimeSeriesMatrix>(
      GenerateWhiteNoise(kNumSeries, length_, &rng)));  // drifted replica

  ShardRouter router(RouterOptions());
  RouterServerOptions options;
  options.port = -1;
  RouterServer front(&router, options);
  front.RegisterDataset("d", kNumSeries, data_->ContentFingerprint());
  ASSERT_TRUE(front.Start().ok());
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(front.AddConnection(fds[0]).ok());
  auto client = WireClient::Adopt(fds[1]);

  // The client pins nothing; the router stamps the registered fingerprint
  // onto every shard request, so the drifted shard still fails the query.
  ASSERT_TRUE(client->Submit(TestRequest()).ok());
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
  }
  EXPECT_EQ(client->result_status().code(), StatusCode::kFailedPrecondition)
      << client->result_status().message();
  front.Stop();
}

TEST_F(RouterE2ETest, RouterServerAnswersWhenTheMergeEnds) {
  StartShards(2);
  ShardRouter router(RouterOptions());
  RouterServerOptions options;
  options.port = -1;
  RouterServer front(&router, options);
  front.RegisterDataset("d", kNumSeries, data_->ContentFingerprint());
  ASSERT_TRUE(front.Start().ok());
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(front.AddConnection(fds[0]).ok());
  auto client = WireClient::Adopt(fds[1]);

  // The terminal status must follow the merge's end at once. A watcher
  // that polled the socket on a timer held it back until its next poll
  // (50 ms period, 25 ms mean residual) on every request, so time the gap
  // between each request's last window and its status: it is the relay's
  // own cost, small even under the sanitizers' slowdown.
  std::vector<double> gaps_ms;
  for (int r = 0; r < 20; ++r) {
    ASSERT_TRUE(client->Submit(TestRequest()).ok());
    auto last_window = std::chrono::steady_clock::now();
    while (true) {
      auto window = client->Next();
      ASSERT_TRUE(window.ok()) << window.status().message();
      if (!window->has_value()) {
        break;
      }
      last_window = std::chrono::steady_clock::now();
    }
    ASSERT_TRUE(client->result_status().ok())
        << client->result_status().message();
    gaps_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - last_window)
                          .count());
  }
  std::sort(gaps_ms.begin(), gaps_ms.end());
  EXPECT_LT(gaps_ms[gaps_ms.size() / 2], 10.0)
      << "median gap between the last window and the terminal status";
  front.Stop();
  EXPECT_EQ(front.stats().requests, 20);
}

TEST_F(RouterE2ETest, RouterServerDisconnectCancelsEveryShard) {
  // A small shard outbuf: the shards' wire workers block early.
  shard_outbuf_watermark_ = int64_t{1} << 14;
  StartShards(2, /*num_basic_windows=*/128);
  ShardRouter router(RouterOptions());
  RouterServerOptions options;
  options.port = -1;
  RouterServer front(&router, options);
  front.RegisterDataset("d", kNumSeries, data_->ContentFingerprint());
  ASSERT_TRUE(front.Start().ok());
  WireRequest request = TestRequest();
  request.options.queue_capacity = 2;
  request.query.threshold = 0.01;  // near-dense edge sets: a large answer

  // Checked precondition: the relay cannot finish before the client
  // vanishes. After the first window, the merged answer encodes to more
  // than everything between the shards' producers and the client can
  // hold: per shard, the socketpair's buffers, the outbuf watermark, two
  // 64 KiB read chunks and whole frames in its stream queue, wire worker,
  // outbuf overshoot and partial read; in the router, the merge's skew
  // window, emitter and downstream queue, the relay's frame, the client
  // socketpair's buffers, and the client's 64 KiB read chunk and partial
  // frame. Every frame is bounded by the largest merged frame.
  {
    int64_t remainder_bytes = 0;
    int64_t max_frame = 0;
    AnswerFrameBytes(request.query, /*consumed=*/1, &remainder_bytes,
                     &max_frame);
    const int64_t frames = 3 * request.options.queue_capacity +
                           ShardMergeOptions().max_skew_windows + 12;
    const int64_t absorbable =
        3 * SocketpairBufferBytes() + 2 * shard_outbuf_watermark_ +
        5 * (int64_t{64} << 10) + frames * max_frame;
    ASSERT_GT(remainder_bytes, absorbable)
        << "the merged remainder fits in the buffers";
  }

  {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(front.AddConnection(fds[0]).ok());
    auto client = WireClient::Adopt(fds[1]);
    ASSERT_TRUE(client->Submit(request).ok());
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(window->has_value());
  }  // the client vanishes mid-stream (destructor closes the socket)

  EXPECT_TRUE(PollFor([&] { return front.stats().disconnect_cancels >= 1; }))
      << "the router never mapped the disconnect to a cancel";
  for (const auto& server : servers_) {
    EXPECT_TRUE(PollFor(
        [&] { return server->stats().inflight_window_claims == 0; }))
        << "a shard leaked window claims after the client disconnect";
  }
  front.Stop();
}

}  // namespace
}  // namespace dangoron
