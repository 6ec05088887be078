// Shared pieces of the end-to-end benchmark program: in-memory span tracing,
// the in-process serving stacks it drives (single node and routed fleet),
// the load generator with honest failure counting, and small statistics
// helpers. Everything here calls the library through its public headers
// only; nothing under src/ knows it is being measured.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire_server.h"
#include "router/router_server.h"
#include "router/shard_router.h"
#include "serve/server.h"
#include "ts/time_series_matrix.h"
#include "wire/client.h"

namespace perfbench {

using dangoron::Result;
using dangoron::Status;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- stats --

/// Linear-interpolated percentile `p` in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Peak resident set size of this process, in MB.
double PeakRssMb();
double SecondsBetween(Clock::time_point a, Clock::time_point b);

// --------------------------------------------------------------- tracing --

/// One timed call: name, start/end (ns since the tracer's epoch), the span
/// that caused it (-1 for a root) and the request it belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request_id = -1;
};

/// In-memory span recorder for one thread. Disabled tracers record nothing
/// and return -1 from Begin, so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int32_t Begin(const char* name, int32_t parent, int64_t request_id);
  void End(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by the span's direct children.
  std::vector<int64_t> SelfNs() const;
  /// Writes every span as one JSON array.
  Status WriteJson(const std::string& path) const;

 private:
  int64_t Now() const;
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- requests --

struct Dataset {
  std::string name;
  std::shared_ptr<const dangoron::TimeSeriesMatrix> data;
};

/// One request of a workload: which dataset, the sliding query, the tier.
struct Request {
  int64_t id = 0;
  std::string dataset;
  dangoron::SlidingQuery query;
  dangoron::ServeTier tier = dangoron::ServeTier::kExact;
  /// Pair count of the dataset (the router needs it to split).
  int64_t num_pairs = 0;

  int64_t Cells() const { return num_pairs * query.NumWindows(); }
  dangoron::WireRequest ToWire() const;
  dangoron::QueryRequest ToServe() const;
};

// ---------------------------------------------------------------- stacks --

struct NodeOptions {
  int32_t server_threads = 0;
  int32_t wire_workers = 0;
  int64_t basic_window = 24;
  int64_t sketch_cache_bytes = int64_t{1} << 30;
  int64_t result_cache_bytes = int64_t{64} << 20;
};

using Connector =
    std::function<Result<std::unique_ptr<dangoron::WireClient>>()>;

/// The stack a client connects to: either one DangoronServer behind one
/// WireServer (listening on an ephemeral loopback port), or a RouterServer
/// over a ShardRouter fanning out to K in-process shards, each a
/// DangoronServer plus WireServer reached over socketpairs.
class Stack {
 public:
  /// Single node: server + wire front end on a loopback TCP port.
  static Result<std::unique_ptr<Stack>> Direct(
      const std::vector<Dataset>& datasets, const NodeOptions& options);
  /// Routed: K shard nodes (listener-less), the router and its front end on
  /// a loopback TCP port. With `shared_server` the K shard front ends sit
  /// on one DangoronServer, so the fleet holds one sketch instead of K.
  static Result<std::unique_ptr<Stack>> Routed(
      const std::vector<Dataset>& datasets, const NodeOptions& shard_options,
      int shards, bool shared_server);
  ~Stack();

  /// A fresh TCP connection to the stack's front door.
  Result<std::unique_ptr<dangoron::WireClient>> ConnectTcp() const;
  /// A fresh socketpair connection to the stack's front door.
  Result<std::unique_ptr<dangoron::WireClient>> ConnectPair() const;
  Connector TcpConnector() const;

  /// The first serving server (the only one of a direct stack).
  dangoron::DangoronServer* server() const { return servers_[0].get(); }
  /// Serving counters summed over every server of the stack.
  dangoron::DangoronServerStats ServerStats() const;
  /// Front-end counters summed over every WireServer of the stack (the
  /// shards' when routed).
  dangoron::WireServerStats WireStats() const;
  dangoron::RouterServerStats RouterStats() const;
  int64_t shard_connects() const { return shard_connects_.load(); }
  /// Mean sketch-cache bytes per retained entry, averaged over servers.
  double SketchBytesPerEntry() const;

 private:
  Stack() = default;
  std::vector<std::unique_ptr<dangoron::DangoronServer>> servers_;
  std::vector<std::unique_ptr<dangoron::WireServer>> wires_;
  std::unique_ptr<dangoron::ShardRouter> router_;
  std::unique_ptr<dangoron::RouterServer> front_;
  std::atomic<int64_t> shard_connects_{0};
  int port_ = 0;
};

// ------------------------------------------------------------- responses --

/// Drains one request over a wire client. Every response is checked: the
/// terminal status, the window count, ascending window indices and the
/// server's windows_delivered accounting.
struct Response {
  bool transport_ok = false;  ///< false: the connection died mid-request
  /// The server's terminal status, or the transport error that ended the
  /// request.
  Status status;
  bool accounting_ok = false; ///< window count, order and delivered count
  int64_t windows = 0;
  Clock::time_point first_window{};
  Clock::time_point done{};
  std::vector<dangoron::StreamedWindow> kept;  ///< only when asked to keep
  /// Non-OK when the server refused a first attempt with this status and
  /// the rest of the response is the retry's (see Session).
  Status refusal;
  bool ok() const { return transport_ok && status.ok() && accounting_ok; }
  /// Answered, but with a wrong window count, order or delivered count.
  bool wrong() const { return transport_ok && status.ok() && !accounting_ok; }
};

/// Submits `request` on `client` and drains it. `tracer` (may be disabled)
/// gets one span per Submit/Next call under `parent`.
Response RunWire(dangoron::WireClient* client, const Request& request,
                 bool keep_windows, Tracer* tracer = nullptr,
                 int32_t parent = -1);

/// One client's connection to a stack, reconnecting after any failure.
///
/// The wire server can refuse a well-formed request on a connection that
/// has already answered one: it clears its in-flight flag only after it
/// queues the previous terminal status, so a client that sends its next
/// request at once can be taken for pipelining, answered
/// FailedPrecondition and hung up on (ROADMAP, "Fix first"). A request
/// refused that way -- on a reused connection, before any window, with
/// FailedPrecondition or a dropped connection -- is sent once more on a
/// fresh connection, where it cannot be taken for pipelining, and its
/// response is marked `refused`. Any other failure is final. The retry adds
/// no delay; its cost lands in the request's latency.
class Session {
 public:
  explicit Session(Connector connect) : connect_(std::move(connect)) {}
  /// Runs `request` as RunWire does, connecting first if needed.
  Response Run(const Request& request, bool keep_windows,
               Tracer* tracer = nullptr, int32_t parent = -1);
  /// Connections opened after the first.
  int64_t reconnects() const { return connects_ > 0 ? connects_ - 1 : 0; }

 private:
  Response Attempt(const Request& request, bool keep_windows, Tracer* tracer,
                   int32_t parent);
  Connector connect_;
  /// Null, or a connection whose every request so far succeeded.
  std::unique_ptr<dangoron::WireClient> client_;
  int64_t connects_ = 0;
};

/// The wire encoding of a whole answer, window by window — what
/// byte-identity checks compare.
std::string EncodeAnswer(const std::vector<dangoron::StreamedWindow>& windows);

// ------------------------------------------------------------------ load --

/// Schedule of one load run. A closed loop sends each connection's next
/// request when the previous one finishes; an open loop sends request k of
/// connection c at t0 + (k + c / connections) * connections / rate,
/// regardless of completions, and times it from that due time.
struct LoadPlan {
  int connections = 1;
  bool open_loop = false;
  double rate_rps = 0.0;        ///< open loop only
  double seconds = 1.0;
  double latency_limit_ms = 0.0;
  /// Request generator of connection `c`: the k-th call gives its k-th
  /// request (seeded, so the same plan replays the same requests).
  std::function<Request(int connection, int64_t k)> request_at;
  /// Keeps the windows of requests for which this returns true.
  std::function<bool(const Request&)> keep;
};

struct KeptAnswer {
  Request request;
  std::vector<dangoron::StreamedWindow> windows;
};

struct LoadResult {
  int64_t attempted = 0;
  int64_t failed = 0;         ///< transport, status and accounting failures
  int64_t mismatched = 0;     ///< of which accounting failures (incorrect)
  /// Requests the server refused on their first attempt (Session); each
  /// one is in `failed` too if its retry failed.
  int64_t refused = 0;
  /// Requests whose first attempt failed: refused or failed.
  int64_t failed_first_try = 0;
  /// Status of the first failed attempt, for the notes.
  std::string first_error;
  int64_t within_limit = 0;
  int64_t reconnects = 0;
  double wall_s = 0.0;
  /// One entry per completed request.
  std::vector<double> latency_ms;
  std::vector<double> ttfw_ms;  ///< NaN for an answer without windows
  std::vector<double> done_s;   ///< completion, s since the load began
  std::vector<int64_t> cells;   ///< pair x window cells answered
  std::vector<double> late_ms;  ///< send time minus due time, all sends
  std::vector<KeptAnswer> kept;
};

/// A statistic of the completed requests `in` (indices into LoadResult's
/// per-request vectors) that finished within a stretch of `seconds`.
using SliceStat =
    std::function<double(const std::vector<size_t>& in, double seconds)>;

/// The median, over `slices` equal stretches of the run's wall time, of
/// `stat` on the requests completed in each stretch. A burst of CPU steal
/// or a stall that hits a minority of stretches does not move it.
double MedianOverSlices(const LoadResult& load, int slices,
                        const SliceStat& stat);

/// Runs the plan against `connect`, one Session per connection. A request
/// whose connection dies (transport error, or a non-OK terminal status
/// after which the server may have closed it) fails, unless the server
/// refused it and its retry succeeded (counted in `refused`); the client
/// reconnects for the next request and keeps to its schedule, so every
/// attempted request is counted. A refused request is never within the
/// latency limit.
LoadResult RunLoad(const LoadPlan& plan, const Connector& connect);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
