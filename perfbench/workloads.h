// The benchmark's three workloads. Each one owns its data shape, its
// request generator and its load schedule; the program under test only
// ever sees the generated datasets and requests.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Load schedule: client connections, open or closed loop, the offered
  /// rate of an open loop, and the latency limit slo_attainment uses.
  int connections = 1;
  bool open_loop = false;
  double rate_rps = 0.0;
  double latency_limit_ms = 0.0;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 3;
  /// The serving node(s): the single node of a direct workload, each shard
  /// of a routed one.
  NodeOptions node;
  /// Routed workloads put a RouterServer over `shards` shard nodes.
  bool routed = false;
  int shards = 0;
  /// Traced router replays put every shard front end on one server (used
  /// where K full sketches would not fit in memory).
  bool traced_router_shares_server = false;
  /// Requests replayed per layer boundary in the traced run.
  int trace_sample = 16;
  /// Answers kept per connection for the byte-identity and accuracy checks.
  int keep_per_connection = 24;

  std::function<std::vector<Dataset>(uint64_t seed)> make_data;
  /// Requests a fresh stack serves during set-up (cache warming).
  std::function<std::vector<Request>(const std::vector<Dataset>&)> warm;
  /// The k-th request of a request stream drawing from `rng`.
  std::function<Request(const std::vector<Dataset>&, dangoron::Rng*,
                        int64_t k)>
      draw;
};

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
