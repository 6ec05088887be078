// Serving demo: the multi-user face of the library (see src/serve/README.md
// for the full usage guide).
//
//   1. Stand up a DangoronServer from a config string.
//   2. Register a dataset (cheap — the first query pays the prepare).
//   3. Play three "clients": concurrent submissions, an identical repeat,
//      and an overlapping shifted range — and read off what each reused.
//   4. Wire a live stream into the server's window cache so historical
//      queries over streamed data start warm.
//   5. Stream a query's windows as they are evaluated (SubmitStreaming):
//      the first window arrives at time-to-first-window, far before the
//      materialized result would.
//   6. Speak the full QueryRequest surface: an approx-tier request (Eq. 2
//      jumping, bypassing the shared window cache), an auto-tier request
//      under a deadline, and the tier/jump accounting they report.
//
// Build and run:
//   cmake -B build && cmake --build build
//   ./build/serving_demo

#include <cstdio>
#include <cstring>
#include <future>
#include <vector>

#include "common/stopwatch.h"
#include "engine/factory.h"
#include "serve/server.h"
#include "serve_flags.h"
#include "stream/streaming_builder.h"
#include "ts/generators.h"

int main(int argc, char** argv) {
  using namespace dangoron;

  // The demo itself is argument-free; any argument prints the request
  // options it demonstrates (section 6) as run_query accepts them. The
  // text renders from examples/serve_flags.h — the same table run_query
  // and dangoron_serverd use — so the three tools cannot drift.
  if (argc > 1) {
    const bool help = std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0;
    std::fprintf(help ? stdout : stderr,
                 "usage: %s   (no arguments — a scripted tour)\n"
                 "request options demonstrated here, as run_query and\n"
                 "'dangoron_serverd query' accept them: %s\n%s"
                 "exit codes (run_query / dangoron_serverd query):\n%s",
                 argv[0], ServeFlagUsage().c_str(),
                 ServeFlagHelp("  ").c_str(), ExitCodeHelp("  ").c_str());
    return help ? 0 : 2;
  }

  // 1. Server: 24h basic windows, hardware-concurrency pool, default cache
  // budgets. The same string could come from a flag or a config file.
  auto server_or = CreateServer("threads=0,basic_window=24");
  if (!server_or.ok()) {
    std::fprintf(stderr, "server construction failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  DangoronServer& server = **server_or;

  // 2. Dataset: 32 weather stations, 120 days of hourly temperatures.
  ClimateSpec spec;
  spec.num_stations = 32;
  spec.num_hours = 24 * 120;
  spec.seed = 21;
  auto dataset = GenerateClimate(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const TimeSeriesMatrix data = dataset->data;  // keep a copy for streaming
  if (auto status = server.AddDataset("climate", dataset->data);
      !status.ok()) {
    std::fprintf(stderr, "AddDataset failed: %s\n", status.ToString().c_str());
    return 1;
  }

  SlidingQuery query;
  query.start = 0;
  query.end = 24 * 120;
  query.window = 24 * 30;  // 30-day windows
  query.step = 24;         // sliding daily
  query.threshold = 0.85;

  auto describe = [](const char* who, const ServeResult& result) {
    std::printf(
        "%-28s windows=%lld  prepare=%s  computed=%lld  cached=%lld  "
        "joined=%lld\n",
        who, static_cast<long long>(result.series.num_windows()),
        result.prepared_from_cache ? "shared" : "built",
        static_cast<long long>(result.windows_computed),
        static_cast<long long>(result.windows_from_cache),
        static_cast<long long>(result.windows_joined));
  };

  // 3a. Three concurrent clients ask the same question at once: one builds
  // the sketch and evaluates each window, the others join its work in
  // flight rather than duplicating it.
  std::vector<std::future<Result<ServeResult>>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(server.Submit("climate", query));
  }
  for (size_t c = 0; c < clients.size(); ++c) {
    auto result = clients[c].get();
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    char who[32];
    std::snprintf(who, sizeof(who), "concurrent client %zu:", c);
    describe(who, *result);
  }

  // 3b. A repeat of the same query is pure cache: no build, no evaluation.
  auto repeat = server.Query("climate", query);
  if (!repeat.ok()) {
    return 1;
  }
  describe("identical repeat:", *repeat);

  // 3c. An overlapping range reuses every shared window and evaluates only
  // the new tail.
  SlidingQuery shifted = query;
  shifted.start = 24 * 30;
  auto overlap = server.Query("climate", shifted);
  if (!overlap.ok()) {
    return 1;
  }
  describe("overlapping shifted range:", *overlap);

  // 4. Live + historical sharing: a stream that publishes into the server's
  // window cache. Replaying the same data (in production: the live feed)
  // leaves every emitted window warm for historical queries at the stream's
  // threshold.
  StreamingOptions stream_options;
  stream_options.basic_window = 24;
  stream_options.window = 24 * 30;
  stream_options.step = 24;
  stream_options.threshold = 0.9;  // a threshold no query asked yet
  auto builder =
      StreamingNetworkBuilder::Create(data.num_series(), stream_options);
  auto fingerprint = server.DatasetFingerprint("climate");
  if (!builder.ok() || !fingerprint.ok()) {
    return 1;
  }
  builder->PublishTo(server.mutable_result_cache(), *fingerprint);
  if (!builder->AppendColumns(data, 0, data.length()).ok()) {
    return 1;
  }
  SlidingQuery at_stream_threshold = query;
  at_stream_threshold.threshold = 0.9;
  auto warm = server.Query("climate", at_stream_threshold);
  if (!warm.ok()) {
    return 1;
  }
  describe("historical after stream:", *warm);

  // 5. Streaming: a fresh dataset (cold caches) consumed window by window.
  // The first window lands after the prepare plus one evaluation batch —
  // not after the full sweep — and every delivered window is already in the
  // shared cache for the next client.
  ClimateSpec cold_spec = spec;
  cold_spec.seed = 99;
  auto cold = GenerateClimate(cold_spec);
  if (!cold.ok() ||
      !server.AddDataset("climate-live", std::move(cold->data)).ok()) {
    return 1;
  }
  ServeOptions stream_submit;
  stream_submit.queue_capacity = 8;
  stream_submit.max_batch_windows = 4;
  Stopwatch ttfw_timer;
  auto window_stream = server.SubmitStreaming(
      QueryRequest{"climate-live", query, stream_submit});
  double ttfw_ms = 0.0;
  int64_t streamed = 0;
  while (auto window = window_stream->Next()) {
    if (streamed == 0) {
      ttfw_ms = ttfw_timer.ElapsedSeconds() * 1e3;
    }
    ++streamed;
  }
  const double total_ms = ttfw_timer.ElapsedSeconds() * 1e3;
  if (!window_stream->status().ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 window_stream->status().ToString().c_str());
    return 1;
  }
  std::printf(
      "streaming submit:            windows=%lld  first window %.2f ms, all "
      "windows %.2f ms\n",
      static_cast<long long>(streamed), ttfw_ms, total_ms);

  // 6. The QueryRequest surface: tiers and deadlines. An approx-tier
  // request answers with Eq. 2 temporal jumping — the paper's core
  // optimization — sharing the prepared sketch with the exact tier but
  // bypassing the shared window cache (jumped windows depend on the
  // request's range, so they must never be published). An auto-tier
  // request with a deadline lets the server pick: approx when the deadline
  // is tighter than its exact-cost estimate.
  QueryRequest approx_request;
  approx_request.dataset = "climate-live";
  approx_request.query = query;
  approx_request.options.tier = ServeTier::kApprox;
  Stopwatch approx_timer;
  auto approx = server.Query(approx_request);
  if (!approx.ok()) {
    std::fprintf(stderr, "approx query failed: %s\n",
                 approx.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "approx tier:                 windows=%lld  %.2f ms  tier=%s  "
      "jumped %lld of %lld cells in %lld jumps\n",
      static_cast<long long>(approx->series.num_windows()),
      approx_timer.ElapsedSeconds() * 1e3,
      std::string(ServeTierName(approx->tier_used)).c_str(),
      static_cast<long long>(approx->cells_jumped),
      static_cast<long long>(approx->series.num_windows() *
                             data.num_series() * (data.num_series() - 1) / 2),
      static_cast<long long>(approx->jumps));

  // Auto under a tight deadline, twice: the streamed range above left every
  // window of this query cached, so the cost estimate discounts them all
  // and the server stays exact even at 1 ms — while an uncached threshold
  // family prices a full sweep above the deadline and routes to approx.
  QueryRequest auto_request = approx_request;
  auto_request.options.tier = ServeTier::kAuto;
  auto_request.options.deadline_ms = 1;
  auto warm_auto = server.Query(auto_request);
  if (warm_auto.ok()) {
    std::printf("auto, 1 ms deadline, warm:   served by the %s tier\n",
                std::string(ServeTierName(warm_auto->tier_used)).c_str());
  }
  auto_request.query.threshold = 0.8;  // an uncached threshold family
  auto cold_auto = server.Query(auto_request);
  if (cold_auto.ok()) {
    std::printf("auto, 1 ms deadline, cold:   served by the %s tier\n",
                std::string(ServeTierName(cold_auto->tier_used)).c_str());
  }

  const DangoronServerStats stats = server.stats();
  std::printf(
      "\nserver totals: queries=%lld (approx=%lld) prepares_built=%lld "
      "prepares_shared=%lld windows computed=%lld cached=%lld joined=%lld\n",
      static_cast<long long>(stats.queries),
      static_cast<long long>(stats.queries_approx),
      static_cast<long long>(stats.prepares_built),
      static_cast<long long>(stats.prepares_shared),
      static_cast<long long>(stats.windows_computed),
      static_cast<long long>(stats.windows_from_cache),
      static_cast<long long>(stats.windows_joined));
  std::printf("sketch cache: %lld entries, %.1f MiB; window cache: %lld "
              "entries, %.2f MiB\n",
              static_cast<long long>(stats.sketch_cache.entries),
              static_cast<double>(stats.sketch_cache.bytes) / (1 << 20),
              static_cast<long long>(stats.result_cache.entries),
              static_cast<double>(stats.result_cache.bytes) / (1 << 20));
  return 0;
}
