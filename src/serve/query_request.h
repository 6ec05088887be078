#ifndef DANGORON_SERVE_QUERY_REQUEST_H_
#define DANGORON_SERVE_QUERY_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/query.h"

namespace dangoron {

/// Service tier of one submission.
///
/// - `kExact`: incremental exact evaluation (no Eq. 2 jumping) through the
///   shared window-result cache — byte-stable results that match NaiveEngine
///   under every cache interleaving, and every evaluated window is reusable
///   by overlapping queries. The historical default.
/// - `kApprox`: Eq. 2 temporal jumping per request — the paper's core
///   optimization, for latency-critical clients. Shares the prepared sketch
///   with the exact tier but *bypasses the window-result cache entirely*
///   (reads and writes): a jumped window's edge set depends on the query's
///   range, so publishing it would poison cross-query reuse.
/// - `kAuto`: the server picks — approx when the request's deadline is
///   tighter than its estimate of the exact evaluation cost, exact
///   otherwise (and always exact without a deadline).
enum class ServeTier : int8_t {
  kExact = 0,
  kApprox = 1,
  kAuto = 2,
};

/// Admission policy for a prepare that does not fit the sketch-cache budget.
///
/// - `kRefuse`: reject with ResourceExhausted up front (the PR 3 policy;
///   only active when the server's `refuse_oversized_prepares` is on —
///   otherwise oversized prepares are built and immediately evicted).
/// - `kQueue`: park the request in a bounded deadline-aware wait queue until
///   sketch-cache evictions (or released in-flight handles) free enough
///   budget, the request's deadline passes (DeadlineExceeded), or its
///   stream is cancelled.
enum class AdmissionPolicy : int8_t {
  kRefuse = 0,
  kQueue = 1,
};

/// Graceful-degradation policy of an exact-tier request under pressure.
///
/// - `kOff`: a blown deadline estimate or a mid-query ResourceExhausted
///   surfaces as the failure it is (the historical behavior).
/// - `kAuto`: the server degrades exact -> approx instead of failing: a
///   request whose deadline is tighter than the exact cost estimate is
///   served approx up front, and an exact plan that fails with
///   ResourceExhausted mid-query (admission refusal, budget pressure) is
///   retried on the approx tier while the deadline still has budget.
///   Degraded requests report `tier_used = kApprox` and bump the server's
///   `degraded_to_approx` counter — a late exact answer is worse than an
///   on-time approximate one, but the substitution is never silent.
enum class DegradePolicy : int8_t {
  kOff = 0,
  kAuto = 1,
};

std::string_view ServeTierName(ServeTier tier);
std::string_view AdmissionPolicyName(AdmissionPolicy policy);
std::string_view DegradePolicyName(DegradePolicy policy);
Result<ServeTier> ParseServeTier(const std::string& text);
Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& text);
Result<DegradePolicy> ParseDegradePolicy(const std::string& text);

/// Defaults of the per-stream delivery knobs of `ServeOptions`.
inline constexpr int64_t kDefaultStreamQueueCapacity = 8;
inline constexpr int64_t kDefaultMaxBatchWindows = 4;

/// Per-request serving options. Unset optionals fall back to the server's
/// configured defaults (`default_tier` / `admission` in
/// DangoronServerOptions), so a default-constructed ServeOptions reproduces
/// the server's historical behavior exactly.
struct ServeOptions {
  /// Service tier; unset -> the server's `default_tier` (exact by default).
  std::optional<ServeTier> tier;

  /// Latency budget in milliseconds, measured from submission; unset = no
  /// deadline (set values must be > 0 — `Validate` rejects the rest). The
  /// deadline governs admission (a queued request is refused with
  /// DeadlineExceeded once it passes; a request whose deadline already
  /// passed when its task starts fails the same way), the `kAuto` tier
  /// choice, and — since the hard-deadline work — evaluation itself: an
  /// exact sweep checks the deadline at band/window cadence and aborts
  /// mid-run with DeadlineExceeded, delivering (and caching) every window
  /// completed before it.
  std::optional<int64_t> deadline_ms;

  /// Admission policy for oversized prepares; unset -> the server's
  /// `admission` default (refuse by default).
  std::optional<AdmissionPolicy> admission;

  /// Degradation policy under pressure (exact tier only); unset -> the
  /// server's `degrade` default (off by default).
  std::optional<DegradePolicy> degrade;

  // Streaming-delivery knobs (SubmitStreaming only: `Submit` collects every
  // window into an unbounded queue and evaluates in maximal runs).
  /// Capacity of the bounded delivery queue between the query's producer
  /// and the consumer. When it is full the producer blocks (backpressure):
  /// a slow consumer bounds the stream's memory at `queue_capacity` windows
  /// instead of the whole result.
  int64_t queue_capacity = kDefaultStreamQueueCapacity;
  /// Cap on the contiguous window run one engine pass claims and evaluates
  /// (0 = unbounded). Within a run the exact engine emits window by window
  /// — each window is cached, claim-fulfilled and delivered (non-blocking)
  /// the moment it lands — but delivery only *waits* for a slow consumer
  /// between runs, so the cap bounds the undelivered backlog at
  /// queue_capacity plus one run (0 trades that bound for maximal
  /// sweep-band locality). It also bounds claim granularity toward
  /// concurrent identical queries and the stream's cancel latency. Exact
  /// tier only — the approx tier takes no claims — and it never changes
  /// results.
  int64_t max_batch_windows = kDefaultMaxBatchWindows;
};

/// One submission against the serving layer: the dataset to query, the
/// sliding-window question, and how to serve it. This is the server's
/// primary entry point (`Submit` / `SubmitStreaming` / `Query` all take
/// one); the bare `(dataset, query)` overloads are thin wrappers building a
/// default request. Plain data, cheap to copy — and the unit a sharding
/// router would serialize to fan a query out across server processes.
struct QueryRequest {
  std::string dataset;
  SlidingQuery query;
  ServeOptions options;

  /// Structural validation of the request envelope — the checks that need
  /// no server state (the query itself is validated against the dataset at
  /// plan time): non-empty dataset name, a set deadline_ms > 0, a positive
  /// queue capacity, a non-negative batch cap. Called by the server on
  /// every submission; exposed so clients can reject bad requests before
  /// paying a round trip.
  Status Validate() const;
};

/// Where one query's answer came from and what it cost. Every serving hop
/// reports this one struct: `ServeResult` (in-process), the stream's
/// terminal `WindowStream::summary`, the wire status frame (`WireSummary`)
/// and a routed query's fold over its shards (`ShardMerge::summary`).
struct QueryAccounting {
  /// The tier that actually answered (`kAuto` requests resolve to one of
  /// the two before evaluation; never `kAuto` here).
  ServeTier tier_used = ServeTier::kExact;
  /// The prepared sketch was a cache (or in-flight dedup) hit — this query
  /// paid no index build.
  bool prepared_from_cache = false;
  int64_t windows_from_cache = 0;  ///< served from the window-result cache
  int64_t windows_computed = 0;    ///< evaluated by this query
  int64_t windows_joined = 0;      ///< awaited from a concurrent query
  /// Eq. 2 jump accounting from EngineStats (approx tier only — the exact
  /// tier never jumps): pair-window cells skipped, and jump decisions.
  int64_t cells_jumped = 0;
  int64_t jumps = 0;
  /// The request asked exact but was served (partly) approx by
  /// `DegradePolicy::kAuto` (blown deadline estimate or mid-query resource
  /// exhaustion). Never set by kAuto's own tier choice — that is selection,
  /// not degradation.
  bool degraded = false;
};

/// The accounting of one query answered by several shards: the counters
/// sum; the tier is approx, and `degraded` set, when any shard's is; and
/// `prepared_from_cache` holds only when every shard's does — a routed
/// query paid no build only if no shard built. No shards fold to the
/// default.
QueryAccounting MergeShardAccounting(std::span<const QueryAccounting> shards);

/// The absolute deadline of `options` measured from `now`;
/// time_point::max() when the request has none.
inline std::chrono::steady_clock::time_point RequestDeadline(
    const ServeOptions& options,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now()) {
  if (!options.deadline_ms.has_value() || *options.deadline_ms <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + std::chrono::milliseconds(*options.deadline_ms);
}

}  // namespace dangoron

#endif  // DANGORON_SERVE_QUERY_REQUEST_H_
