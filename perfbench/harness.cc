#include "harness.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "wire/wire_format.h"

namespace perfbench {

using dangoron::DangoronServer;
using dangoron::DangoronServerOptions;
using dangoron::DangoronServerStats;
using dangoron::StreamedWindow;
using dangoron::WireClient;
using dangoron::WireServer;
using dangoron::WireServerOptions;
using dangoron::WireServerStats;

// ----------------------------------------------------------------- stats --

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --------------------------------------------------------------- tracing --

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t request_id) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{name, Now(), 0, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end_ns = Now();
  }
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t s = 0; s < spans_.size(); ++s) {
    self[s] = spans_[s].end_ns - spans_[s].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot write ", path);
  }
  std::fprintf(out, "[\n");
  for (size_t s = 0; s < spans_.size(); ++s) {
    const Span& span = spans_[s];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}%s\n",
                 s, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.request_id),
                 s + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0 ? Status::Ok()
                               : Status::IoError("cannot write ", path);
}

// -------------------------------------------------------------- requests --

dangoron::WireRequest Request::ToWire() const {
  dangoron::WireRequest wire;
  wire.dataset = dataset;
  wire.query = query;
  wire.options.tier = tier;
  return wire;
}

dangoron::QueryRequest Request::ToServe() const {
  dangoron::QueryRequest serve;
  serve.dataset = dataset;
  serve.query = query;
  serve.options.tier = tier;
  return serve;
}

// ---------------------------------------------------------------- stacks --

namespace {

DangoronServerOptions ServerOptionsFor(const NodeOptions& options) {
  DangoronServerOptions server;
  server.num_threads = options.server_threads;
  server.basic_window = options.basic_window;
  server.sketch_cache_bytes = options.sketch_cache_bytes;
  server.result_cache_bytes = options.result_cache_bytes;
  return server;
}

Result<std::unique_ptr<WireClient>> SocketpairInto(
    const std::function<Status(int)>& add_connection) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError("socketpair failed");
  }
  if (Status added = add_connection(fds[0]); !added.ok()) {
    ::close(fds[1]);  // fds[0] belongs to the server even on failure
    return added;
  }
  return WireClient::Adopt(fds[1]);
}

void AddCache(const dangoron::LruCacheStats& from,
              dangoron::LruCacheStats* to) {
  to->hits += from.hits;
  to->misses += from.misses;
  to->insertions += from.insertions;
  to->evictions += from.evictions;
  to->bytes += from.bytes;
  to->entries += from.entries;
}

}  // namespace

Result<std::unique_ptr<Stack>> Stack::Direct(
    const std::vector<Dataset>& datasets, const NodeOptions& options) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->servers_.push_back(
      std::make_unique<DangoronServer>(ServerOptionsFor(options)));
  for (const Dataset& dataset : datasets) {
    RETURN_IF_ERROR(stack->servers_[0]->AddDataset(dataset.name, dataset.data));
  }
  WireServerOptions wire_options;
  wire_options.port = 0;  // ephemeral loopback port
  wire_options.worker_threads = options.wire_workers;
  stack->wires_.push_back(
      std::make_unique<WireServer>(stack->servers_[0].get(), wire_options));
  RETURN_IF_ERROR(stack->wires_[0]->Start());
  stack->port_ = stack->wires_[0]->port();
  return stack;
}

Result<std::unique_ptr<Stack>> Stack::Routed(
    const std::vector<Dataset>& datasets, const NodeOptions& shard_options,
    int shards, bool shared_server) {
  std::unique_ptr<Stack> stack(new Stack());
  const int num_servers = shared_server ? 1 : shards;
  for (int s = 0; s < num_servers; ++s) {
    stack->servers_.push_back(
        std::make_unique<DangoronServer>(ServerOptionsFor(shard_options)));
    for (const Dataset& dataset : datasets) {
      RETURN_IF_ERROR(
          stack->servers_.back()->AddDataset(dataset.name, dataset.data));
    }
  }
  for (int s = 0; s < shards; ++s) {
    WireServerOptions wire_options;
    wire_options.port = -1;  // listener-less: socketpairs only
    wire_options.worker_threads = shard_options.wire_workers;
    stack->wires_.push_back(std::make_unique<WireServer>(
        stack->servers_[shared_server ? 0 : s].get(), wire_options));
    RETURN_IF_ERROR(stack->wires_.back()->Start());
  }

  dangoron::ShardRouterOptions router_options;
  router_options.shards.resize(static_cast<size_t>(shards));
  Stack* raw = stack.get();
  router_options.connect_override =
      [raw](int shard) -> Result<std::unique_ptr<WireClient>> {
    raw->shard_connects_.fetch_add(1);
    WireServer* wire = raw->wires_[static_cast<size_t>(shard)].get();
    return SocketpairInto([wire](int fd) { return wire->AddConnection(fd); });
  };
  stack->router_ =
      std::make_unique<dangoron::ShardRouter>(std::move(router_options));
  dangoron::RouterServerOptions front_options;
  front_options.port = 0;
  stack->front_ = std::make_unique<dangoron::RouterServer>(
      stack->router_.get(), front_options);
  for (const Dataset& dataset : datasets) {
    stack->front_->RegisterDataset(dataset.name, dataset.data->num_series(),
                                   dataset.data->ContentFingerprint());
  }
  RETURN_IF_ERROR(stack->front_->Start());
  stack->port_ = stack->front_->bound_port();
  return stack;
}

Stack::~Stack() {
  if (front_ != nullptr) {
    front_->Stop();
  }
  front_.reset();
  router_.reset();
  for (auto& wire : wires_) {
    wire->Stop();
  }
  wires_.clear();
  servers_.clear();
}

Result<std::unique_ptr<WireClient>> Stack::ConnectTcp() const {
  return WireClient::ConnectTcp("127.0.0.1", port_);
}

Result<std::unique_ptr<WireClient>> Stack::ConnectPair() const {
  if (front_ != nullptr) {
    dangoron::RouterServer* front = front_.get();
    return SocketpairInto([front](int fd) { return front->AddConnection(fd); });
  }
  WireServer* wire = wires_[0].get();
  return SocketpairInto([wire](int fd) { return wire->AddConnection(fd); });
}

Connector Stack::TcpConnector() const {
  return [this] { return ConnectTcp(); };
}

DangoronServerStats Stack::ServerStats() const {
  DangoronServerStats total;
  for (const auto& server : servers_) {
    const DangoronServerStats s = server->stats();
    total.queries += s.queries;
    total.prepares_built += s.prepares_built;
    total.prepares_shared += s.prepares_shared;
    total.prepares_queued += s.prepares_queued;
    total.degraded_to_approx += s.degraded_to_approx;
    total.windows_computed += s.windows_computed;
    total.windows_from_cache += s.windows_from_cache;
    total.windows_joined += s.windows_joined;
    AddCache(s.sketch_cache, &total.sketch_cache);
    AddCache(s.result_cache, &total.result_cache);
  }
  return total;
}

WireServerStats Stack::WireStats() const {
  WireServerStats total;
  for (const auto& wire : wires_) {
    const WireServerStats s = wire->stats();
    total.requests += s.requests;
    total.protocol_errors += s.protocol_errors;
    total.bytes_out += s.bytes_out;
    for (int lane = 0; lane < dangoron::kNumTaskLanes; ++lane) {
      total.lanes.executed[lane] += s.lanes.executed[lane];
    }
  }
  return total;
}

dangoron::RouterServerStats Stack::RouterStats() const {
  return front_ != nullptr ? front_->stats() : dangoron::RouterServerStats{};
}

double Stack::SketchBytesPerEntry() const {
  double sum = 0.0;
  for (const auto& server : servers_) {
    const dangoron::LruCacheStats cache = server->stats().sketch_cache;
    sum += cache.entries > 0 ? static_cast<double>(cache.bytes) /
                                   static_cast<double>(cache.entries)
                             : 0.0;
  }
  return sum / static_cast<double>(servers_.size());
}

// ------------------------------------------------------------- responses --

Response RunWire(WireClient* client, const Request& request,
                 bool keep_windows, Tracer* tracer, int32_t parent) {
  Response response;
  Tracer disabled(false);
  Tracer* trace = tracer != nullptr ? tracer : &disabled;
  const int32_t submit_span = trace->Begin("submit", parent, request.id);
  const Status submitted = client->Submit(request.ToWire());
  trace->End(submit_span);
  if (!submitted.ok()) {
    response.status = submitted;
    response.done = Clock::now();
    return response;
  }
  const int64_t expected = request.query.NumWindows();
  bool in_order = true;
  while (true) {
    const int32_t next_span = trace->Begin("next", parent, request.id);
    auto window = client->Next();
    trace->End(next_span);
    if (!window.ok()) {
      response.status = window.status();
      response.done = Clock::now();
      return response;  // transport_ok stays false
    }
    if (!window->has_value()) {
      break;
    }
    if (response.windows == 0) {
      response.first_window = Clock::now();
    }
    StreamedWindow& got = **window;
    in_order = in_order && got.window_index == response.windows;
    ++response.windows;
    if (keep_windows) {
      response.kept.push_back(std::move(got));
    }
  }
  response.done = Clock::now();
  response.transport_ok = true;
  response.status = client->result_status();
  response.accounting_ok =
      in_order && response.windows == expected &&
      client->summary().windows_delivered == response.windows;
  return response;
}

Response Session::Attempt(const Request& request, bool keep_windows,
                          Tracer* tracer, int32_t parent) {
  if (client_ == nullptr) {
    auto connected = connect_();
    if (!connected.ok()) {
      Response response;
      response.status = connected.status();
      response.done = Clock::now();
      return response;
    }
    client_ = std::move(*connected);
    ++connects_;
  }
  Response response =
      RunWire(client_.get(), request, keep_windows, tracer, parent);
  if (!response.ok()) {
    client_.reset();
  }
  return response;
}

Response Session::Run(const Request& request, bool keep_windows,
                      Tracer* tracer, int32_t parent) {
  const bool reused = client_ != nullptr;
  Response response = Attempt(request, keep_windows, tracer, parent);
  const bool refused =
      reused && response.windows == 0 &&
      (!response.transport_ok ||
       response.status.code() == dangoron::StatusCode::kFailedPrecondition);
  if (!refused) {
    return response;
  }
  Response retried = Attempt(request, keep_windows, tracer, parent);
  retried.refusal = response.status;
  return retried;
}

std::string EncodeAnswer(const std::vector<StreamedWindow>& windows) {
  std::string bytes;
  const std::vector<dangoron::Edge> empty;
  for (const StreamedWindow& window : windows) {
    dangoron::EncodeWindowFrame(
        window.window_index, window.edges != nullptr ? *window.edges : empty,
        &bytes);
  }
  return bytes;
}

// ------------------------------------------------------------------ load --

double MedianOverSlices(const LoadResult& load, int slices,
                        const SliceStat& stat) {
  const double stretch = load.wall_s / slices;
  std::vector<std::vector<size_t>> members(static_cast<size_t>(slices));
  for (size_t i = 0; i < load.done_s.size(); ++i) {
    const int slice = std::min(
        slices - 1, static_cast<int>(load.done_s[i] / stretch));
    members[static_cast<size_t>(slice)].push_back(i);
  }
  std::vector<double> per_slice;
  for (const std::vector<size_t>& in : members) {
    per_slice.push_back(stat(in, stretch));
  }
  return Median(std::move(per_slice));
}

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void RunConnection(const LoadPlan& plan, const Connector& connect, int c,
                   Clock::time_point t0, LoadResult* result) {
  LoadResult& out = *result;
  const auto run_for = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.seconds));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          plan.open_loop ? plan.connections / plan.rate_rps : 0.0));
  const auto offset = plan.open_loop ? interval * c / plan.connections
                                     : Clock::duration::zero();
  Session session(connect);
  Clock::time_point previous_done = t0;
  for (int64_t k = 0;; ++k) {
    Clock::time_point due;
    if (plan.open_loop) {
      due = t0 + offset + interval * k;
      if (due >= t0 + run_for) {
        break;
      }
      std::this_thread::sleep_until(due);
    } else {
      due = previous_done;
      if (due >= t0 + run_for) {
        break;
      }
    }
    const Request request = plan.request_at(c, k);
    const Clock::time_point sent = Clock::now();
    ++out.attempted;
    out.late_ms.push_back(std::max(0.0, Ms(sent - due)));
    const bool keep = plan.keep != nullptr && plan.keep(request);
    Response response = session.Run(request, keep);
    previous_done = response.done;
    const bool refused = !response.refusal.ok();
    out.failed_first_try += refused || !response.ok() ? 1 : 0;
    if (refused) {
      ++out.refused;
      if (out.first_error.empty()) {
        out.first_error = response.refusal.ToString();
      }
    }
    if (!response.ok()) {
      ++out.failed;
      out.mismatched += response.wrong() ? 1 : 0;
      if (out.first_error.empty()) {
        out.first_error = response.wrong() ? "window accounting mismatch"
                                           : response.status.ToString();
      }
      continue;
    }
    const double latency = Ms(response.done - (plan.open_loop ? due : sent));
    out.latency_ms.push_back(latency);
    out.ttfw_ms.push_back(
        response.windows > 0
            ? Ms(response.first_window - (plan.open_loop ? due : sent))
            : std::nan(""));
    out.done_s.push_back(SecondsBetween(t0, response.done));
    out.cells.push_back(request.Cells());
    if (latency <= plan.latency_limit_ms && !refused) {
      ++out.within_limit;
    }
    if (keep) {
      out.kept.push_back(KeptAnswer{request, std::move(response.kept)});
    }
  }
  out.reconnects = session.reconnects();
}

}  // namespace

LoadResult RunLoad(const LoadPlan& plan, const Connector& connect) {
  std::vector<LoadResult> per_connection(static_cast<size_t>(plan.connections));
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < plan.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(plan), std::cref(connect), c,
                         t0, &per_connection[static_cast<size_t>(c)]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  LoadResult total;
  total.wall_s = SecondsBetween(t0, Clock::now());
  for (LoadResult& r : per_connection) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.mismatched += r.mismatched;
    total.within_limit += r.within_limit;
    total.reconnects += r.reconnects;
    total.refused += r.refused;
    total.failed_first_try += r.failed_first_try;
    if (total.first_error.empty()) {
      total.first_error = r.first_error;
    }
    total.latency_ms.insert(total.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
    total.ttfw_ms.insert(total.ttfw_ms.end(), r.ttfw_ms.begin(),
                         r.ttfw_ms.end());
    total.done_s.insert(total.done_s.end(), r.done_s.begin(), r.done_s.end());
    total.cells.insert(total.cells.end(), r.cells.begin(), r.cells.end());
    total.late_ms.insert(total.late_ms.end(), r.late_ms.begin(),
                         r.late_ms.end());
    for (KeptAnswer& kept : r.kept) {
      total.kept.push_back(std::move(kept));
    }
  }
  return total;
}

}  // namespace perfbench
