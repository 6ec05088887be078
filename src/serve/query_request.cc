#include "serve/query_request.h"

namespace dangoron {

std::string_view ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kExact:
      return "exact";
    case ServeTier::kApprox:
      return "approx";
    case ServeTier::kAuto:
      return "auto";
  }
  return "unknown";
}

std::string_view AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRefuse:
      return "refuse";
    case AdmissionPolicy::kQueue:
      return "queue";
  }
  return "unknown";
}

Result<ServeTier> ParseServeTier(const std::string& text) {
  if (text == "exact") {
    return ServeTier::kExact;
  }
  if (text == "approx") {
    return ServeTier::kApprox;
  }
  if (text == "auto") {
    return ServeTier::kAuto;
  }
  return Status::InvalidArgument("unknown serve tier '", text,
                                 "' (expected exact, approx, or auto)");
}

Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& text) {
  if (text == "refuse") {
    return AdmissionPolicy::kRefuse;
  }
  if (text == "queue") {
    return AdmissionPolicy::kQueue;
  }
  return Status::InvalidArgument("unknown admission policy '", text,
                                 "' (expected refuse or queue)");
}

std::string_view DegradePolicyName(DegradePolicy policy) {
  switch (policy) {
    case DegradePolicy::kOff:
      return "off";
    case DegradePolicy::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<DegradePolicy> ParseDegradePolicy(const std::string& text) {
  if (text == "off") {
    return DegradePolicy::kOff;
  }
  if (text == "auto") {
    return DegradePolicy::kAuto;
  }
  return Status::InvalidArgument("unknown degrade policy '", text,
                                 "' (expected off or auto)");
}

Status QueryRequest::Validate() const {
  if (dataset.empty()) {
    return Status::InvalidArgument("QueryRequest: empty dataset name");
  }
  if (options.deadline_ms.has_value() && *options.deadline_ms <= 0) {
    return Status::InvalidArgument(
        "QueryRequest: deadline_ms must be > 0 when set, got ",
        *options.deadline_ms, " (leave it unset for no deadline)");
  }
  if (options.queue_capacity <= 0) {
    return Status::InvalidArgument(
        "QueryRequest: queue_capacity must be > 0, got ",
        options.queue_capacity);
  }
  if (options.max_batch_windows < 0) {
    return Status::InvalidArgument(
        "QueryRequest: max_batch_windows must be >= 0 (0 = unbounded), got ",
        options.max_batch_windows);
  }
  return Status::Ok();
}

QueryAccounting MergeShardAccounting(std::span<const QueryAccounting> shards) {
  QueryAccounting total;
  total.prepared_from_cache = !shards.empty();
  for (const QueryAccounting& shard : shards) {
    total.windows_from_cache += shard.windows_from_cache;
    total.windows_computed += shard.windows_computed;
    total.windows_joined += shard.windows_joined;
    total.cells_jumped += shard.cells_jumped;
    total.jumps += shard.jumps;
    if (shard.tier_used == ServeTier::kApprox) {
      total.tier_used = ServeTier::kApprox;
    }
    total.degraded = total.degraded || shard.degraded;
    total.prepared_from_cache =
        total.prepared_from_cache && shard.prepared_from_cache;
  }
  return total;
}

}  // namespace dangoron
