// End-to-end benchmark of the whole serving stack.
//
//   perfbench --workload <explore|dashboard|cold_sharded> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Builds the stack in-process from the public APIs (DangoronServer,
// WireServer, ShardRouter, RouterServer, WireClient), generates the
// workload's data and requests from the seed, drives the load for the
// given seconds and checks every answer. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it also replays a seeded sample of
// the workload's requests at every layer boundary (engine, in-process
// serve, wire over a socketpair, router at K=1 and K=4), records one span
// per call, and reports the per-layer ledger. The last line of standard
// output is one JSON object; lines before it starting with '#' give every
// metric with its unit and sample count. Exits 1 when an answer is wrong.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/window_sink.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dangoron::DangoronServer;
using dangoron::Edge;
using dangoron::Rng;
using dangoron::ServeTier;
using dangoron::StreamedWindow;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  bool in_json = true;
};

class Report {
 public:
  /// `in_json` puts the metric in the JSON line as well as the '#' lines.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples, bool in_json = true) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                              samples, in_json});
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// '#' lines for people, then the one machine-readable JSON line.
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    for (const std::string& note : notes_) {
      std::printf("# %s\n", note.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("# %-36s %.6g %s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    const char* separator = "";
    for (const Metric& m : metrics_) {
      if (m.in_json) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    separator, m.name.c_str(), m.value, m.unit.c_str());
        separator = ", ";
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------------- setup --

struct Deployment {
  std::vector<Dataset> datasets;
  std::unique_ptr<Stack> stack;
};

/// Requests made outside the timed load: warming, replays, checks.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  int64_t refused = 0;  ///< first attempts refused, then retried (Session)

  /// Counts one response; true if it answered.
  bool Count(const Response& response) {
    ++attempted;
    refused += response.refusal.ok() ? 0 : 1;
    failed += response.ok() ? 0 : 1;
    mismatched += response.wrong() ? 1 : 0;
    return response.ok();
  }
};

/// Warms a fresh stack through its own front door; a stack that cannot be
/// warmed is a fatal error.
void Warm(const Workload& w, const std::vector<Dataset>& datasets,
          const Stack& stack, Tally* tally) {
  Session session([&stack] { return stack.ConnectTcp(); });
  for (const Request& request : w.warm(datasets)) {
    const Response response = session.Run(request, false);
    const bool answered = tally->Count(response);
    CHECK(answered) << "warming failed: " << response.status.ToString();
  }
}

std::unique_ptr<Stack> StartStack(const Workload& w,
                                  const std::vector<Dataset>& datasets,
                                  Tally* tally) {
  auto stack = w.routed ? Stack::Routed(datasets, w.node, w.shards, false)
                        : Stack::Direct(datasets, w.node);
  CHECK(stack.ok());
  Warm(w, datasets, **stack, tally);
  return std::move(*stack);
}

/// The workload's set-up, timed: generate the data, start the stack, warm
/// it. Repeated `reps` times; the last deployment is kept.
Deployment SetUp(const Workload& w, uint64_t seed, int reps,
                 std::vector<double>* seconds, Tally* tally) {
  Deployment deployment;
  for (int rep = 0; rep < reps; ++rep) {
    deployment = Deployment{};  // tear the previous one down first
    const Clock::time_point start = Clock::now();
    deployment.datasets = w.make_data(seed);
    deployment.stack = StartStack(w, deployment.datasets, tally);
    seconds->push_back(SecondsBetween(start, Clock::now()));
  }
  return deployment;
}

const Dataset& DatasetOf(const std::vector<Dataset>& datasets,
                         const std::string& name) {
  for (const Dataset& dataset : datasets) {
    if (dataset.name == name) {
      return dataset;
    }
  }
  LOG(FATAL) << "unknown dataset " << name;
  return datasets[0];
}

// ------------------------------------------------------------------ load --

LoadPlan PlanFor(const Workload& w, const std::vector<Dataset>& datasets,
                 uint64_t seed, double seconds,
                 std::vector<Rng>* request_rngs) {
  request_rngs->clear();
  for (int c = 0; c < w.connections; ++c) {
    request_rngs->emplace_back(seed * 7919 + static_cast<uint64_t>(c));
  }
  LoadPlan plan;
  plan.connections = w.connections;
  plan.open_loop = w.open_loop;
  plan.rate_rps = w.rate_rps;
  plan.seconds = seconds;
  plan.latency_limit_ms = w.latency_limit_ms;
  const int64_t keep_every = 8;
  const int64_t keep_limit = w.keep_per_connection * keep_every;
  plan.request_at = [&w, &datasets, request_rngs](int c, int64_t k) {
    Request request =
        w.draw(datasets, &(*request_rngs)[static_cast<size_t>(c)], k);
    request.id = (int64_t{c} << 40) | k;
    return request;
  };
  plan.keep = [keep_every, keep_limit](const Request& request) {
    const int64_t k = request.id & ((int64_t{1} << 40) - 1);
    return k % keep_every == 0 && k < keep_limit;
  };
  return plan;
}

// ---------------------------------------------------------- verification --

/// Drains one in-process streaming answer.
std::vector<StreamedWindow> AnswerInProcess(DangoronServer* server,
                                            const Request& request,
                                            Status* status) {
  std::vector<StreamedWindow> windows;
  auto stream = server->SubmitStreaming(request.ToServe());
  while (std::optional<StreamedWindow> window = stream->Next()) {
    windows.push_back(std::move(*window));
  }
  *status = stream->status();
  return windows;
}

int64_t PairKey(const Edge& e) {
  return (static_cast<int64_t>(e.i) << 32) | static_cast<uint32_t>(e.j);
}

/// Accuracy of the exact tier against the two-pass NaiveEngine oracle:
/// the largest |r_served - r_oracle| over the served edges of a window,
/// plus, for edges the oracle has over the threshold but the answer lacks,
/// how far over the threshold the oracle put them (a lower bound on that
/// pair's error).
struct OracleCheck {
  std::vector<double> window_max_err;
  int64_t flipped = 0;
};

void CompareWithOracle(const dangoron::TimeSeriesMatrix& data,
                       const Request& request,
                       const std::vector<StreamedWindow>& served,
                       const std::vector<int64_t>& windows,
                       OracleCheck* check) {
  constexpr double kMargin = 0.05;
  dangoron::NaiveEngine naive;
  CHECK(naive.Prepare(data).ok());
  for (int64_t k : windows) {
    dangoron::SlidingQuery one = request.query;
    one.start = request.query.start + k * request.query.step;
    one.end = one.start + one.window;
    one.step = one.window;
    one.threshold = request.query.threshold - kMargin;
    dangoron::CollectingWindowSink sink;
    CHECK(naive.QueryToSink(one, &sink).ok());
    const dangoron::CorrelationMatrixSeries oracle = sink.TakeSeries();
    std::unordered_map<int64_t, double> truth;
    for (const Edge& e : oracle.WindowEdges(0)) {
      truth.emplace(PairKey(e), e.value);
    }
    double max_err = 0.0;
    std::unordered_set<int64_t> seen;
    const auto& edges = *served[static_cast<size_t>(k)].edges;
    for (const Edge& e : edges) {
      const auto it = truth.find(PairKey(e));
      const double err = it != truth.end() ? std::abs(e.value - it->second)
                                           : e.value - one.threshold;
      if (it == truth.end()) {
        ++check->flipped;
      }
      seen.insert(PairKey(e));
      max_err = std::max(max_err, err);
    }
    for (const Edge& e : oracle.WindowEdges(0)) {
      if (e.value >= request.query.threshold && !seen.count(PairKey(e))) {
        ++check->flipped;
        max_err = std::max(max_err, e.value - request.query.threshold);
      }
    }
    check->window_max_err.push_back(max_err);
  }
}

struct Verification {
  int64_t checked = 0;
  int64_t mismatched = 0;
  OracleCheck oracle;
  int64_t exact_edges = 0;
  int64_t recalled_edges = 0;
};

/// Off the clock: every kept answer is answered again by a fresh unsharded
/// in-process server with its result cache off and must match byte for
/// byte; the same server answers each kept request at both tiers for the
/// recall of approx edges; exact answers are checked against the oracle.
Verification VerifyKept(const Workload& w, const std::vector<Dataset>& datasets,
                        const std::vector<KeptAnswer>& kept, uint64_t seed) {
  Verification v;
  dangoron::DangoronServerOptions options;
  options.basic_window = w.node.basic_window;
  options.result_cache_bytes = 0;
  options.sketch_cache_bytes = int64_t{4} << 30;
  DangoronServer reference(options);
  for (const Dataset& dataset : datasets) {
    CHECK(reference.AddDataset(dataset.name, dataset.data).ok());
  }
  Rng pick(seed ^ 0x0dac1eULL);
  for (const KeptAnswer& answer : kept) {
    ++v.checked;
    Request exact = answer.request;
    exact.tier = ServeTier::kExact;
    Request approx = answer.request;
    approx.tier = ServeTier::kApprox;
    Status exact_status;
    Status approx_status;
    const auto exact_windows =
        AnswerInProcess(&reference, exact, &exact_status);
    const auto approx_windows =
        AnswerInProcess(&reference, approx, &approx_status);
    if (!exact_status.ok() || !approx_status.ok()) {
      ++v.mismatched;
      continue;
    }
    const auto& same_tier =
        answer.request.tier == ServeTier::kExact ? exact_windows
                                                 : approx_windows;
    if (EncodeAnswer(answer.windows) != EncodeAnswer(same_tier)) {
      ++v.mismatched;
      std::fprintf(stderr, "answer %lld differs from the in-process one\n",
                   static_cast<long long>(answer.request.id));
      continue;
    }
    for (size_t k = 0; k < exact_windows.size(); ++k) {
      std::unordered_set<int64_t> exact_set;
      for (const Edge& e : *exact_windows[k].edges) {
        exact_set.insert(PairKey(e));
      }
      v.exact_edges += static_cast<int64_t>(exact_windows[k].edges->size());
      for (const Edge& e : *approx_windows[k].edges) {
        v.recalled_edges += exact_set.count(PairKey(e)) ? 1 : 0;
      }
    }
    if (answer.request.tier == ServeTier::kExact &&
        !answer.windows.empty()) {
      const int64_t n = static_cast<int64_t>(answer.windows.size());
      CompareWithOracle(*DatasetOf(datasets, answer.request.dataset).data,
                        answer.request, answer.windows,
                        {0, pick.NextInt(0, n - 1)}, &v.oracle);
    }
  }
  return v;
}

// ------------------------------------------------------------ end to end --

/// End-to-end metrics of the timed load. The ones BENCHMARK.json gates go
/// into the JSON line; the rest are printed with their units and sample
/// counts only, because their run-to-run spread on a small shared machine
/// is wider than any bound worth gating (see perfbench/README.md).
void ReportLoad(const Workload& w, const LoadResult& load,
                const std::vector<double>& setup_s, double peak_rss_mb,
                const Verification& verification, Report* report) {
  constexpr bool kGated = true;
  constexpr bool kPrinted = false;
  const int64_t completed = static_cast<int64_t>(load.latency_ms.size());
  const int64_t attempted = load.attempted;
  int64_t with_window = 0;
  for (double ttfw : load.ttfw_ms) {
    with_window += std::isnan(ttfw) ? 0 : 1;
  }
  // Latency and rate figures are medians over ten stretches of the run, so
  // a burst of CPU steal on a shared machine moves them only when it covers
  // half the run. A p99 stretch holds >= 1000 requests, so at least ten
  // lie beyond its p99; a shorter run is one stretch.
  constexpr int kSlices = 10;
  const int tail_slices = static_cast<int>(
      std::clamp<int64_t>(completed / 1000, 1, kSlices));
  const auto percentile_of = [](const std::vector<double>& values,
                                     double p) {
    return [&values, p](const std::vector<size_t>& in, double) {
      std::vector<double> picked;
      for (size_t i : in) {
        if (!std::isnan(values[i])) {
          picked.push_back(values[i]);
        }
      }
      return Percentile(std::move(picked), p);
    };
  };
  report->Add("latency_p50_ms",
              MedianOverSlices(load, kSlices,
                               percentile_of(load.latency_ms, 50)),
              "ms", completed, kGated);
  report->Add("latency_p99_ms",
              MedianOverSlices(load, tail_slices,
                               percentile_of(load.latency_ms, 99)),
              "ms", completed, kPrinted);
  report->Add("ttfw_p50_ms",
              MedianOverSlices(load, kSlices, percentile_of(load.ttfw_ms, 50)),
              "ms", with_window, kGated);
  report->Add("ttfw_p99_ms",
              MedianOverSlices(load, tail_slices,
                               percentile_of(load.ttfw_ms, 99)),
              "ms", with_window, kPrinted);
  report->Add("throughput_rps",
              MedianOverSlices(load, kSlices,
                               [](const std::vector<size_t>& in,
                                  double seconds) {
                                 return static_cast<double>(in.size()) /
                                        seconds;
                               }),
              "1/s", completed, kGated);
  report->Add("cells_per_s",
              MedianOverSlices(load, kSlices,
                               [&load](const std::vector<size_t>& in,
                                       double seconds) {
                                 double cells = 0.0;
                                 for (size_t i : in) {
                                   cells += static_cast<double>(load.cells[i]);
                                 }
                                 return cells / seconds;
                               }),
              "1/s", completed, kGated);
  report->Add("slo_attainment",
              Ratio(static_cast<double>(load.within_limit), attempted),
              "share", attempted, kGated);
  report->Add("failure_rate",
              Ratio(static_cast<double>(load.failed_first_try), attempted),
              "share", attempted, kPrinted);
  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()), kGated);
  report->Add("peak_rss_mb", peak_rss_mb, "MB", 1, kGated);
  // The per-window maximum error is an extreme value and swings with the
  // windows sampled; its median over the sampled windows is the steadier
  // figure, and the overall maximum goes to the notes.
  const std::vector<double>& window_err = verification.oracle.window_max_err;
  report->Add("exact_max_abs_err", Median(window_err), "abs_r",
              static_cast<int64_t>(window_err.size()), kPrinted);
  report->Add("approx_edge_recall",
              Ratio(static_cast<double>(verification.recalled_edges),
                    static_cast<double>(verification.exact_edges)),
              "share", verification.exact_edges, kGated);
  char line[512];
  std::snprintf(line, sizeof(line),
                "%lld of %lld attempted requests failed on the first try: "
                "%lld refused by the server and answered on a retry, %lld "
                "failed (%lld reconnects, %lld wrong answers)%s%s",
                static_cast<long long>(load.failed_first_try),
                static_cast<long long>(attempted),
                static_cast<long long>(load.failed_first_try - load.failed),
                static_cast<long long>(load.failed),
                static_cast<long long>(load.reconnects),
                static_cast<long long>(load.mismatched +
                                       verification.mismatched),
                load.first_error.empty() ? "" : "; first: ",
                load.first_error.c_str());
  report->Note(line);
  const std::string rate =
      w.open_loop ? ", " + std::to_string(static_cast<int>(w.rate_rps)) +
                        " req/s offered"
                  : "";
  std::snprintf(line, sizeof(line),
                "workload %s: %s loop, %d connection(s)%s, latency limit "
                "%.1f ms; %lld answers re-checked, %lld oracle windows "
                "(largest error %.3g), %lld edges flipped vs oracle",
                w.name.c_str(), w.open_loop ? "open" : "closed",
                w.connections, rate.c_str(), w.latency_limit_ms,
                static_cast<long long>(verification.checked),
                static_cast<long long>(window_err.size()),
                Percentile(window_err, 100),
                static_cast<long long>(verification.oracle.flipped));
  report->Note(line);
}

// ---------------------------------------------------------------- traced --

/// Counts and timestamps an engine's windows; one span per emitted window.
class SpanSink final : public dangoron::WindowSink {
 public:
  SpanSink(Tracer* tracer, int32_t parent, int64_t request_id)
      : tracer_(tracer), parent_(parent), request_id_(request_id) {}
  bool OnWindow(int64_t, std::vector<Edge>) override {
    tracer_->End(tracer_->Begin("window", parent_, request_id_));
    return true;
  }

 private:
  Tracer* tracer_;
  int32_t parent_;
  int64_t request_id_;
};

struct EngineRun {
  ServeTier tier = ServeTier::kExact;
  double ms = 0.0;
  int64_t cells = 0;
  dangoron::EngineStats stats;
};

EngineRun RunEngine(const Workload& w, const dangoron::BasicWindowIndex& index,
                    const Request& request, ServeTier tier,
                    dangoron::ThreadPool* pool, Tracer* tracer) {
  dangoron::DangoronOptions options;
  options.basic_window = w.node.basic_window;
  options.enable_jumping = tier == ServeTier::kApprox;
  options.num_threads = pool->num_threads();
  EngineRun run;
  run.tier = tier;
  const Clock::time_point start = Clock::now();
  const int32_t span = tracer->Begin("engine", -1, request.id);
  SpanSink sink(tracer, span, request.id);
  CHECK(dangoron::DangoronEngine::QueryPreparedToSink(
            options, index, request.query, pool, &run.stats, &sink)
            .ok());
  tracer->End(span);
  run.ms = SecondsBetween(start, Clock::now()) * 1e3;
  run.cells = request.Cells();
  return run;
}

/// Per-request durations (ms) of the root spans called `name`.
std::map<int64_t, double> RootDurations(const Tracer& tracer,
                                        std::string_view name) {
  std::map<int64_t, double> out;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0 && name == span.name) {
      out[span.request_id] = (span.end_ns - span.start_ns) / 1e6;
    }
  }
  return out;
}

/// Median over requests of `outer - inner`: the self time of the layer
/// between two nested boundaries.
double MedianGap(const std::map<int64_t, double>& outer,
                 const std::map<int64_t, double>& inner,
                 const std::map<int64_t, double>* per = nullptr) {
  std::vector<double> gaps;
  for (const auto& [id, ms] : outer) {
    const auto it = inner.find(id);
    if (it == inner.end()) {
      continue;
    }
    double gap = ms - it->second;
    if (per != nullptr) {
      gap /= std::max(1.0, per->at(id));
    }
    gaps.push_back(gap);
  }
  return Median(gaps);
}

std::vector<double> Values(const std::map<int64_t, double>& by_request) {
  std::vector<double> values;
  for (const auto& [id, ms] : by_request) {
    values.push_back(ms);
  }
  return values;
}

/// Replays `sample` over one connection of `stack` as root spans called
/// `name`, checking each answer against `expected` (bytes by request id).
void ReplayOverWire(const Stack& stack, const std::vector<Request>& sample,
                    const char* name,
                    const std::map<int64_t, std::string>& expected,
                    Tracer* tracer, std::map<int64_t, double>* windows,
                    Tally* tally) {
  Session session([&stack] { return stack.ConnectPair(); });
  for (const Request& request : sample) {
    const int32_t span = tracer->Begin(name, -1, request.id);
    Response response = session.Run(request, true, tracer, span);
    tracer->End(span);
    if (!tally->Count(response)) {
      continue;
    }
    if (EncodeAnswer(response.kept) != expected.at(request.id)) {
      ++tally->failed;
      ++tally->mismatched;
      std::fprintf(stderr, "%s answer %lld differs from in-process serve\n",
                   name, static_cast<long long>(request.id));
    }
    if (windows != nullptr) {
      (*windows)[request.id] = static_cast<double>(response.windows);
    }
  }
}

/// Closed-loop requests per second over `connections` TCP connections,
/// cycling through `sample`.
double ClosedLoopRps(const Stack& stack, const std::vector<Request>& sample,
                     int connections, double seconds, Tally* tally) {
  LoadPlan plan;
  plan.connections = connections;
  plan.seconds = seconds;
  plan.latency_limit_ms = 0.0;
  plan.request_at = [&sample](int c, int64_t k) {
    Request request = sample[static_cast<size_t>(
        (k + c * 7) % static_cast<int64_t>(sample.size()))];
    request.id = (int64_t{c} << 40) | k;
    return request;
  };
  const LoadResult load = RunLoad(plan, stack.TcpConnector());
  tally->attempted += load.attempted;
  tally->failed += load.failed;
  tally->mismatched += load.mismatched;
  tally->refused += load.refused;
  return Ratio(static_cast<double>(load.latency_ms.size()), load.wall_s);
}

/// Engine boundary: BuildIndex per dataset, then QueryPreparedToSink per
/// request, traced and untraced in alternating order, plus an untraced run
/// at the other tier for the per-cell costs of both tiers.
void ReplayEngine(const Workload& w, const std::vector<Dataset>& datasets,
                  const std::vector<Request>& sample, Tracer* tracer,
                  Report* report) {
  const int64_t m = static_cast<int64_t>(sample.size());
  dangoron::ThreadPool pool(w.node.server_threads);
  dangoron::DangoronOptions build_options;
  build_options.basic_window = w.node.basic_window;
  std::map<std::string, dangoron::BasicWindowIndex> indexes;
  std::vector<double> build_ms;
  std::vector<double> ns_per_pair_window;
  double sketch_bytes = 0.0;
  for (const Request& request : sample) {
    if (indexes.count(request.dataset) != 0) {
      continue;
    }
    const auto& data = *DatasetOf(datasets, request.dataset).data;
    const Clock::time_point start = Clock::now();
    auto index =
        dangoron::DangoronEngine::BuildIndex(data, build_options, &pool);
    const double seconds = SecondsBetween(start, Clock::now());
    CHECK(index.ok());
    build_ms.push_back(seconds * 1e3);
    ns_per_pair_window.push_back(
        seconds * 1e9 /
        static_cast<double>(index->num_pairs() *
                            index->num_basic_windows()));
    sketch_bytes = static_cast<double>(index->MemoryBytes());
    indexes.emplace(request.dataset, std::move(*index));
  }
  report->Add("sketch.build_ms", Median(build_ms), "ms",
              static_cast<int64_t>(build_ms.size()));
  report->Add("sketch.ns_per_pair_window", Median(ns_per_pair_window), "ns",
              static_cast<int64_t>(build_ms.size()));
  report->Add("sketch.bytes", sketch_bytes, "bytes", 1);

  Tracer untraced(false);
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  double exact_ns = 0.0, approx_ns = 0.0;
  int64_t exact_cells = 0, approx_cells = 0;
  int64_t jumped = 0, approx_total = 0, jumps = 0, approx_runs = 0;
  for (size_t r = 0; r < sample.size(); ++r) {
    const Request& request = sample[r];
    const auto& index = indexes.at(request.dataset);
    // Alternate which of the traced and untraced runs goes first.
    EngineRun first = RunEngine(w, index, request, request.tier, &pool,
                                r % 2 == 0 ? &untraced : tracer);
    EngineRun second = RunEngine(w, index, request, request.tier, &pool,
                                 r % 2 == 0 ? tracer : &untraced);
    traced_ms.push_back(r % 2 == 0 ? second.ms : first.ms);
    untraced_ms.push_back(r % 2 == 0 ? first.ms : second.ms);
    const ServeTier other = request.tier == ServeTier::kExact
                                ? ServeTier::kApprox
                                : ServeTier::kExact;
    const EngineRun other_run =
        RunEngine(w, index, request, other, &pool, &untraced);
    const EngineRun& own_run = r % 2 == 0 ? first : second;
    for (const EngineRun* run : {&own_run, &other_run}) {
      if (run->tier == ServeTier::kApprox) {
        approx_ns += run->ms * 1e6;
        approx_cells += run->cells;
        jumped += run->stats.cells_jumped;
        approx_total += run->stats.cells_total;
        jumps += run->stats.jumps;
        ++approx_runs;
      } else {
        exact_ns += run->ms * 1e6;
        exact_cells += run->cells;
      }
    }
  }
  report->Add("engine.exact_ns_per_cell",
              Ratio(exact_ns, static_cast<double>(exact_cells)), "ns", m);
  report->Add("engine.approx_ns_per_cell",
              Ratio(approx_ns, static_cast<double>(approx_cells)), "ns", m);
  std::vector<double> ttfw_ms;
  std::vector<double> self_ms;
  const std::vector<int64_t> self = tracer->SelfNs();
  for (size_t s = 0; s < tracer->spans().size(); ++s) {
    const Span& span = tracer->spans()[s];
    if (span.parent < 0 && std::string_view(span.name) == "engine") {
      self_ms.push_back(static_cast<double>(self[s]) / 1e6);
    } else if (span.parent >= 0 &&
               std::string_view(span.name) == "window" &&
               (s == 0 || tracer->spans()[s - 1].parent < 0)) {
      ttfw_ms.push_back(
          (span.end_ns -
           tracer->spans()[static_cast<size_t>(span.parent)].start_ns) /
          1e6);
    }
  }
  report->Add("engine.ttfw_ms", Median(ttfw_ms), "ms",
              static_cast<int64_t>(ttfw_ms.size()));
  report->Add("engine.self_ms", Median(self_ms), "ms",
              static_cast<int64_t>(self_ms.size()));
  report->Add("bound.jumped_fraction",
              Ratio(static_cast<double>(jumped),
                    static_cast<double>(approx_total)),
              "share", approx_runs);
  report->Add("bound.jumps",
              Ratio(static_cast<double>(jumps),
                    static_cast<double>(approx_runs)),
              "1/req", approx_runs);
  report->Add("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
              "ms", m);
}

/// Serve boundary: in-process SubmitStreaming, drained, on a fresh warmed
/// node. Returns each answer's wire encoding, which the outer boundaries
/// must reproduce byte for byte.
std::map<int64_t, std::string> ReplayServe(const Workload& w,
                                           const std::vector<Dataset>& datasets,
                                           const std::vector<Request>& sample,
                                           Tracer* tracer, Report* report,
                                           Tally* tally) {
  std::map<int64_t, std::string> expected;
  auto stack = Stack::Direct(datasets, w.node);
  CHECK(stack.ok());
  Warm(w, datasets, **stack, tally);
  DangoronServer* server = (*stack)->server();
  for (const Request& request : sample) {
    const int32_t span = tracer->Begin("serve", -1, request.id);
    const int32_t submit = tracer->Begin("submit", span, request.id);
    auto stream = server->SubmitStreaming(request.ToServe());
    tracer->End(submit);
    std::vector<StreamedWindow> windows;
    while (true) {
      const int32_t next = tracer->Begin("next", span, request.id);
      std::optional<StreamedWindow> window = stream->Next();
      tracer->End(next);
      if (!window.has_value()) {
        break;
      }
      windows.push_back(std::move(*window));
    }
    tracer->End(span);
    ++tally->attempted;
    if (!stream->status().ok() ||
        static_cast<int64_t>(windows.size()) !=
            request.query.NumWindows()) {
      ++tally->failed;
      ++tally->mismatched;
    }
    expected[request.id] = EncodeAnswer(windows);
  }
  const int64_t m = static_cast<int64_t>(sample.size());
  const auto serve_ms = RootDurations(*tracer, "serve");
  report->Add("serve.inproc_latency_ms", Median(Values(serve_ms)), "ms", m);
  report->Add("serve.overhead_ms",
              MedianGap(serve_ms, RootDurations(*tracer, "engine")), "ms", m);
  return expected;
}

/// Wire boundary: one WireClient over a socketpair into a fresh warmed
/// node, then closed-loop connection scaling over TCP on the same node.
void ReplayWire(const Workload& w, const std::vector<Dataset>& datasets,
                const std::vector<Request>& sample,
                const std::map<int64_t, std::string>& expected,
                Tracer* tracer, Report* report, Tally* tally) {
  const int64_t m = static_cast<int64_t>(sample.size());
  std::map<int64_t, double> windows;
  auto stack = Stack::Direct(datasets, w.node);
  CHECK(stack.ok());
  Warm(w, datasets, **stack, tally);
  const int64_t bytes_before = (*stack)->WireStats().bytes_out;
  ReplayOverWire(**stack, sample, "wire", expected, tracer, &windows,
                 tally);
  report->Add("wire.bytes_per_request",
              Ratio(static_cast<double>((*stack)->WireStats().bytes_out -
                                        bytes_before),
                    static_cast<double>(m)),
              "bytes", m);
  // Warm every sampled answer first so both legs see the same caches.
  ClosedLoopRps(**stack, sample, 1, 0.5, tally);
  const double one = ClosedLoopRps(**stack, sample, 1, 1.0, tally);
  const double four = ClosedLoopRps(**stack, sample, 4, 1.0, tally);
  report->Add("net.conn_scaling", Ratio(four, one), "x", 2);
  report->Note("closed-loop capacity over TCP: " +
               std::to_string(static_cast<int64_t>(one)) +
               " req/s on 1 connection, " +
               std::to_string(static_cast<int64_t>(four)) + " on 4");
  report->Add("net.protocol_errors",
              static_cast<double>((*stack)->WireStats().protocol_errors),
              "count", 1);
  const auto wire_ms = RootDurations(*tracer, "wire");
  const auto serve_ms = RootDurations(*tracer, "serve");
  report->Add("wire.unloaded_latency_ms", Median(Values(wire_ms)), "ms", m);
  report->Add("wire.overhead_ms", MedianGap(wire_ms, serve_ms), "ms", m);
  report->Add("wire.us_per_window",
              MedianGap(wire_ms, serve_ms, &windows) * 1e3, "us", m);
}

/// Router boundary: RouterServer over ShardRouter over K = 1 and K = 4
/// fresh warmed shard nodes.
void ReplayRouter(const Workload& w, const std::vector<Dataset>& datasets,
                  const std::vector<Request>& sample,
                  const std::map<int64_t, std::string>& expected,
                  Tracer* tracer, Report* report, Tally* tally) {
  const int64_t m = static_cast<int64_t>(sample.size());
  for (const int k : {1, 4}) {
    auto stack = Stack::Routed(datasets, w.node, k,
                               w.traced_router_shares_server);
    CHECK(stack.ok());
    Warm(w, datasets, **stack, tally);
    const int64_t connects_before = (*stack)->shard_connects();
    const int64_t builds_before = (*stack)->ServerStats().prepares_built;
    ReplayOverWire(**stack, sample, k == 1 ? "router.k1" : "router.k4",
                   expected, tracer, nullptr, tally);
    if (k == 4) {
      report->Add("router.shard_connections_per_request",
                  Ratio(static_cast<double>((*stack)->shard_connects() -
                                            connects_before),
                        static_cast<double>(m)),
                  "1/req", m);
      report->Add("router.shard_builds_per_request",
                  Ratio(static_cast<double>(
                            (*stack)->ServerStats().prepares_built -
                            builds_before),
                        static_cast<double>(m)),
                  "1/req", m);
      report->Add("router.failovers",
                  static_cast<double>((*stack)->RouterStats().failovers),
                  "count", m);
      report->Add("router.shard_sketch_bytes", (*stack)->SketchBytesPerEntry(),
                  "bytes", k);
    }
  }
  const auto k1_ms = RootDurations(*tracer, "router.k1");
  const auto k4_ms = RootDurations(*tracer, "router.k4");
  report->Add("router.k1_overhead_ms",
              MedianGap(k1_ms, RootDurations(*tracer, "wire")), "ms", m);
  report->Add("router.k4_speedup",
              Ratio(Median(Values(k1_ms)), Median(Values(k4_ms))), "x", m);
}

/// The traced pass: replays a seeded sample of the workload's requests at
/// each layer boundary in turn, each on a freshly set-up stack so every
/// boundary sees the workload's own cache state, and reports the ledger.
void ReportLayers(const Workload& w, const std::vector<Dataset>& datasets,
                  uint64_t seed, Tracer* tracer, Report* report,
                  Tally* tally) {
  std::vector<Request> sample;
  Rng rng(seed ^ 0x5a4b1eULL);
  for (int64_t k = 0; k < w.trace_sample; ++k) {
    sample.push_back(w.draw(datasets, &rng, k));
  }
  ReplayEngine(w, datasets, sample, tracer, report);
  const auto expected =
      ReplayServe(w, datasets, sample, tracer, report, tally);
  ReplayWire(w, datasets, sample, expected, tracer, report, tally);
  ReplayRouter(w, datasets, sample, expected, tracer, report, tally);
}

/// Per-layer counters of the timed load: serving-cache behaviour, lane mix
/// and how late the load generator sent.
void ReportLoadLayers(const dangoron::DangoronServerStats& before,
                      const dangoron::DangoronServerStats& after,
                      const dangoron::WireServerStats& wire_before,
                      const dangoron::WireServerStats& wire_after,
                      const LoadResult& load, Report* report) {
  const double requests = static_cast<double>(load.attempted);
  const auto hit_ratio = [](const dangoron::LruCacheStats& b,
                            const dangoron::LruCacheStats& a) {
    return Ratio(static_cast<double>(a.hits - b.hits),
                 static_cast<double>(a.hits - b.hits + a.misses - b.misses));
  };
  report->Add("serve.window_cache_hit_ratio",
              hit_ratio(before.result_cache, after.result_cache), "share",
              load.attempted);
  report->Add("serve.sketch_cache_hit_ratio",
              hit_ratio(before.sketch_cache, after.sketch_cache), "share",
              load.attempted);
  const auto per_request = [&](int64_t b, int64_t a) {
    return Ratio(static_cast<double>(a - b), requests);
  };
  report->Add("serve.prepares_built",
              per_request(before.prepares_built, after.prepares_built),
              "1/req", load.attempted);
  report->Add("serve.sketch_evictions",
              per_request(before.sketch_cache.evictions,
                          after.sketch_cache.evictions),
              "1/req", load.attempted);
  report->Add("serve.windows_joined",
              per_request(before.windows_joined, after.windows_joined),
              "1/req", load.attempted);
  report->Add("serve.prepares_queued",
              per_request(before.prepares_queued, after.prepares_queued),
              "1/req", load.attempted);
  report->Add("serve.degraded_to_approx",
              per_request(before.degraded_to_approx, after.degraded_to_approx),
              "1/req", load.attempted);
  double executed = 0.0;
  for (int lane = 0; lane < dangoron::kNumTaskLanes; ++lane) {
    executed += static_cast<double>(wire_after.lanes.executed[lane] -
                                    wire_before.lanes.executed[lane]);
  }
  const char* lane_names[] = {"net.lane_high", "net.lane_medium",
                              "net.lane_low"};
  for (int lane = 0; lane < dangoron::kNumTaskLanes; ++lane) {
    report->Add(lane_names[lane],
                Ratio(static_cast<double>(wire_after.lanes.executed[lane] -
                                          wire_before.lanes.executed[lane]),
                      executed),
                "share", static_cast<int64_t>(executed));
  }
  report->Add("loadgen.late_p99_ms", Percentile(load.late_ms, 99), "ms",
              static_cast<int64_t>(load.late_ms.size()));
}

// ------------------------------------------------------------------ main --

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag(argv[i]);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

int Run(const Args& args) {
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  Report report;
  std::vector<double> setup_s;
  Tally outside;  // every request made outside the timed load
  Deployment deployment =
      SetUp(w, args.seed, args.trace ? 1 : w.setup_reps, &setup_s, &outside);

  std::vector<Rng> request_rngs;
  const LoadPlan plan =
      PlanFor(w, deployment.datasets, args.seed, args.seconds, &request_rngs);
  const auto server_before = deployment.stack->ServerStats();
  const auto wire_before = deployment.stack->WireStats();
  const LoadResult load = RunLoad(plan, deployment.stack->TcpConnector());
  const auto server_after = deployment.stack->ServerStats();
  const auto wire_after = deployment.stack->WireStats();
  const double peak_rss_mb = PeakRssMb();  // set-up and load, not the checks
  deployment.stack.reset();  // free its sketches before the checks

  const Verification verification =
      VerifyKept(w, deployment.datasets, load.kept, args.seed);
  if (!args.trace) {
    ReportLoad(w, load, setup_s, peak_rss_mb, verification, &report);
  } else {
    Tracer tracer(true);
    ReportLoadLayers(server_before, server_after, wire_before, wire_after,
                     load, &report);
    ReportLayers(w, deployment.datasets, args.seed, &tracer, &report,
                 &outside);
    report.Add("net.refused_requests",
               static_cast<double>(load.refused + outside.refused), "count",
               load.attempted + outside.attempted);
    if (!args.spans_path.empty()) {
      CHECK(tracer.WriteJson(args.spans_path).ok());
    }
  }
  report.Note("outside the timed load (set-up, replays, scaling legs): " +
              std::to_string(outside.failed) + " of " +
              std::to_string(outside.attempted) + " requests failed, " +
              std::to_string(outside.refused) +
              " refused by the server and retried");
  const bool correct =
      load.mismatched + verification.mismatched + outside.mismatched == 0;
  report.Print(correct, load.attempted + outside.attempted,
               load.failed + verification.mismatched + outside.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
