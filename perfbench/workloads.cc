#include "workloads.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace perfbench {
namespace {

using dangoron::Rng;
using dangoron::ServeTier;
using dangoron::SlidingQuery;
using dangoron::TimeSeriesMatrix;

int64_t PairsOf(const Dataset& dataset) {
  const int64_t n = dataset.data->num_series();
  return n * (n - 1) / 2;
}

Request MakeRequest(const Dataset& dataset, const SlidingQuery& query,
                    ServeTier tier, int64_t k) {
  Request request;
  request.id = k;
  request.dataset = dataset.name;
  request.query = query;
  request.tier = tier;
  request.num_pairs = PairsOf(dataset);
  return request;
}

Dataset Climate(const std::string& name, int64_t stations, int64_t hours,
                double region_degrees, uint64_t seed) {
  dangoron::ClimateSpec spec;
  spec.num_stations = stations;
  spec.num_hours = hours;
  spec.region_degrees = region_degrees;
  spec.seed = seed;
  auto generated = dangoron::GenerateClimate(spec);
  CHECK(generated.ok());
  return Dataset{name, std::make_shared<const TimeSeriesMatrix>(
                           std::move(generated->data))};
}

// --------------------------------------------------------------- explore --
//
// One analyst exploring a year of hourly readings from 512 stations spread
// over a 50-degree box (a sparse network: the engine, not edge traffic,
// dominates a request). Every
// request picks its own range, window (7-60 days), step, threshold
// (0.6-0.9) and tier (3/4 exact, 1/4 approx), so most windows miss the
// result cache and the time goes to the sweep, the jump walk and the
// engine.

constexpr int64_t kDay = 24;  // hourly samples
constexpr int64_t kExploreDays = 365;

Workload Explore() {
  Workload w;
  w.name = "explore";
  w.connections = 1;
  w.open_loop = false;
  w.latency_limit_ms = 100.0;
  w.setup_reps = 3;
  w.node.basic_window = kDay;
  w.traced_router_shares_server = true;  // one 512-station sketch is ~0.8 GB
  w.trace_sample = 16;
  w.keep_per_connection = 24;
  w.make_data = [](uint64_t seed) {
    return std::vector<Dataset>{
        Climate("climate", 512, kExploreDays * kDay, 50.0, seed)};
  };
  w.warm = [](const std::vector<Dataset>& data) {
    // One single-window request: prepares the sketch, caches one window.
    SlidingQuery query;
    query.start = 0;
    query.end = 7 * kDay;
    query.window = 7 * kDay;
    query.step = kDay;
    query.threshold = 0.9;
    return std::vector<Request>{
        MakeRequest(data[0], query, ServeTier::kExact, -1)};
  };
  w.draw = [](const std::vector<Dataset>& data, Rng* rng, int64_t k) {
    static constexpr int64_t kSteps[] = {1, 2, 3, 7};
    const int64_t window = rng->NextInt(7, 60);
    const int64_t step = kSteps[rng->NextInt(0, 3)];
    // The window count cycles through 4..24 and every fourth request is
    // approx, so every run sees the same mix of request sizes and tiers;
    // the seed draws the rest.
    const int64_t windows =
        std::min(4 + (k * 8) % 21, (kExploreDays - window) / step + 1);
    const int64_t span = window + (windows - 1) * step;
    const int64_t start = rng->NextInt(0, kExploreDays - span);
    SlidingQuery query;
    query.start = start * kDay;
    query.end = (start + span) * kDay;
    query.window = window * kDay;
    query.step = step * kDay;
    query.threshold = rng->NextUniform(0.6, 0.9);
    const ServeTier tier =
        k % 4 == 3 ? ServeTier::kApprox : ServeTier::kExact;
    return MakeRequest(data[0], query, tier, k);
  };
  return w;
}

// ------------------------------------------------------------- dashboard --
//
// A wall of live panels over four subjects' 192-voxel fMRI recordings kept
// at their raw scanner baseline (~1e4 per voxel, not normalized away). The
// panels are
// warmed during set-up, so every window is a cache hit and the time goes
// to the wire, the IO thread, the lanes and the cache lookups.

constexpr int64_t kFmriBasicWindow = 20;
constexpr int64_t kFmriTimepoints = 1200;
constexpr double kScannerBaseline = 1e4;
constexpr int64_t kSubjects = 4;

struct Panel {
  int64_t start_bw, end_bw, window_bw, step_bw;
};
// Four panels of one shape (21 windows of 20 basic windows each, beta 0.7)
// over different stretches of the scan, so every refresh costs about the
// same and latency percentiles do not hinge on the panel mix.
constexpr double kPanelThreshold = 0.7;
constexpr Panel kPanels[] = {
    {0, 40, 20, 1},   // first two thirds
    {20, 60, 20, 1},  // last two thirds
    {10, 50, 20, 1},  // middle
    {0, 60, 20, 2},   // whole scan, coarse step
};

/// One subject's recording, as raw scanner intensities: each voxel sits on
/// its own baseline near 1e4, as the scanner reports it before any
/// normalization.
Dataset Subject(const std::string& name, uint64_t seed) {
  dangoron::FmriSpec spec;
  spec.nx = 8;
  spec.ny = 6;
  spec.nz = 4;
  spec.num_regions = 16;
  spec.num_timepoints = kFmriTimepoints;
  // Eight co-activation blocks over a less persistent BOLD signal keep
  // the edge count per panel within a few percent from seed to seed.
  spec.bold_persistence = 0.5;
  spec.num_task_blocks = 8;
  spec.seed = seed;
  auto generated = dangoron::GenerateFmri(spec);
  CHECK(generated.ok());
  const TimeSeriesMatrix& bold = generated->data;
  TimeSeriesMatrix raw(bold.num_series(), bold.length());
  Rng rng(seed ^ 0xba5e11e5ULL);
  for (int64_t v = 0; v < bold.num_series(); ++v) {
    const double baseline = kScannerBaseline * rng.NextUniform(0.9, 1.1);
    for (int64_t t = 0; t < bold.length(); ++t) {
      raw.Set(v, t, baseline + bold.Get(v, t));
    }
  }
  return Dataset{name,
                 std::make_shared<const TimeSeriesMatrix>(std::move(raw))};
}

Request PanelRequest(const Dataset& data, const Panel& panel, int64_t k) {
  SlidingQuery query;
  query.start = panel.start_bw * kFmriBasicWindow;
  query.end = panel.end_bw * kFmriBasicWindow;
  query.window = panel.window_bw * kFmriBasicWindow;
  query.step = panel.step_bw * kFmriBasicWindow;
  query.threshold = kPanelThreshold;
  return MakeRequest(data, query, ServeTier::kExact, k);
}

Workload Dashboard() {
  Workload w;
  w.name = "dashboard";
  w.connections = 4;
  w.open_loop = true;
  w.rate_rps = 1200.0;
  w.latency_limit_ms = 5.0;
  w.setup_reps = 5;
  w.node.basic_window = kFmriBasicWindow;
  w.trace_sample = 32;
  w.keep_per_connection = 8;
  w.make_data = [](uint64_t seed) {
    std::vector<Dataset> subjects;
    for (int64_t s = 0; s < kSubjects; ++s) {
      subjects.push_back(Subject("subject" + std::to_string(s),
                                 seed * kSubjects + s));
    }
    return subjects;
  };
  w.warm = [](const std::vector<Dataset>& data) {
    std::vector<Request> requests;
    for (const Dataset& subject : data) {
      for (const Panel& panel : kPanels) {
        requests.push_back(PanelRequest(subject, panel, -1));
      }
    }
    return requests;
  };
  w.draw = [](const std::vector<Dataset>& data, Rng* rng, int64_t k) {
    const int64_t subject = rng->NextInt(0, kSubjects - 1);
    return PanelRequest(data[static_cast<size_t>(subject)],
                        kPanels[rng->NextInt(0, 3)], k);
  };
  return w;
}

// ---------------------------------------------------------- cold_sharded --
//
// New datasets arriving and each queried once through the router tier: a
// closed loop rotates over a pool of climate datasets larger than every
// shard's sketch-cache budget, with the shards' result caches off, so every
// request pays a sketch build and an eviction on every shard.

constexpr int64_t kColdPool = 6;
constexpr int64_t kColdStations = 128;
constexpr int64_t kColdDays = 60;

int64_t ColdSketchBudget() {
  dangoron::BasicWindowIndexOptions options;
  options.basic_window = kDay;
  const int64_t per_dataset =
      dangoron::BasicWindowIndex::EstimateMemoryBytes(
          kColdStations, kColdDays * kDay, options) +
      kColdStations * kColdDays * kDay * static_cast<int64_t>(sizeof(double));
  return per_dataset * 5 / 2;  // room for two of the pool's datasets
}

Workload ColdSharded() {
  Workload w;
  w.name = "cold_sharded";
  w.connections = 1;
  w.open_loop = false;
  w.latency_limit_ms = 100.0;
  w.setup_reps = 5;
  w.node.server_threads = 1;
  w.node.wire_workers = 1;
  w.node.basic_window = kDay;
  w.node.sketch_cache_bytes = ColdSketchBudget();
  w.node.result_cache_bytes = 0;
  w.routed = true;
  w.shards = 4;
  w.trace_sample = 12;
  w.keep_per_connection = 24;
  w.make_data = [](uint64_t seed) {
    std::vector<Dataset> pool;
    for (int64_t d = 0; d < kColdPool; ++d) {
      pool.push_back(Climate("arrival" + std::to_string(d), kColdStations,
                             kColdDays * kDay, 25.0, seed * kColdPool + d));
    }
    return pool;
  };
  w.warm = [](const std::vector<Dataset>&) { return std::vector<Request>{}; };
  w.draw = [](const std::vector<Dataset>& data, Rng* rng, int64_t k) {
    const int64_t window = rng->NextInt(3, 14);
    SlidingQuery query;
    query.start = 0;
    query.end = kColdDays * kDay;
    query.window = window * kDay;
    query.step = kDay;
    query.threshold = rng->NextUniform(0.6, 0.9);
    return MakeRequest(data[static_cast<size_t>(k % kColdPool)], query,
                       ServeTier::kExact, k);
  };
  return w;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> workloads = {Explore(), Dashboard(),
                                                  ColdSharded()};
  for (const Workload& workload : workloads) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

}  // namespace perfbench
