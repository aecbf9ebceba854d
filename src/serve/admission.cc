#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace pinsql::serve {

void AdmissionController::Bucket::Refill(int64_t now_ms) {
  if (now_ms <= last_refill_ms) return;
  const double elapsed_sec =
      static_cast<double>(now_ms - last_refill_ms) / 1000.0;
  tokens = std::min(burst, tokens + elapsed_sec * rate_per_sec);
  last_refill_ms = now_ms;
}

bool AdmissionController::Bucket::Take(double cost, int64_t now_ms,
                                       int64_t* retry_after_ms) {
  Refill(now_ms);
  if (tokens >= cost) {
    tokens -= cost;
    return true;
  }
  if (retry_after_ms != nullptr) {
    const double deficit = cost - tokens;
    *retry_after_ms =
        rate_per_sec <= 0.0
            ? 60'000
            : static_cast<int64_t>(std::ceil(deficit / rate_per_sec * 1000.0));
    *retry_after_ms = std::max<int64_t>(*retry_after_ms, 1);
  }
  return false;
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  for (const auto& [name, quota] : options.tenants) {
    Tenant tenant;
    tenant.quota = quota;
    tenant.record_bucket.rate_per_sec = quota.records_per_sec;
    tenant.record_bucket.burst = quota.record_burst;
    tenant.record_bucket.tokens = quota.record_burst;
    tenant.byte_bucket.rate_per_sec = quota.bytes_per_sec;
    tenant.byte_bucket.burst = quota.byte_burst;
    tenant.byte_bucket.tokens = quota.byte_burst;
    tenants_.emplace(name, std::move(tenant));
  }
}

bool AdmissionController::KnownTenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(tenant) != 0;
}

bool AdmissionController::Authorized(const std::string& tenant,
                                     uint32_t instance_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  const auto& instances = it->second.quota.instances;
  return std::find(instances.begin(), instances.end(), instance_id) !=
         instances.end();
}

std::vector<uint32_t> AdmissionController::TenantInstances(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  return it->second.quota.instances;
}

AdmitDecision AdmissionController::PreAdmit(const std::string& tenant,
                                            size_t declared_bytes,
                                            int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    PINSQL_OBS_COUNT("serve.admission.unknown_tenant", 1);
    return {AdmitOutcome::kUnknownTenant, 0};
  }
  Tenant& t = it->second;
  // Global overload: shed before spending any tenant budget, so a recovery
  // after the backlog drains does not find every bucket empty.
  if (pending_bytes_ + declared_bytes > options_.max_pending_bytes) {
    ++t.stats.dropped_shed;
    PINSQL_OBS_COUNT("serve.admission.dropped_shed", 1);
    return {AdmitOutcome::kShed, 1000};
  }
  int64_t retry_after_ms = 0;
  if (!t.byte_bucket.Take(static_cast<double>(declared_bytes), now_ms,
                          &retry_after_ms)) {
    ++t.stats.dropped_rate_limited;
    PINSQL_OBS_COUNT("serve.admission.dropped_rate_limited", 1);
    return {AdmitOutcome::kRateLimited, retry_after_ms};
  }
  return {AdmitOutcome::kAdmitted, 0};
}

AdmitDecision AdmissionController::Enqueue(StagedBatch batch, int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(batch.tenant);
  if (it == tenants_.end()) {
    PINSQL_OBS_COUNT("serve.admission.unknown_tenant", 1);
    return {AdmitOutcome::kUnknownTenant, 0};
  }
  Tenant& t = it->second;
  const auto& instances = t.quota.instances;
  if (std::find(instances.begin(), instances.end(), batch.instance_id) ==
      instances.end()) {
    PINSQL_OBS_COUNT("serve.admission.forbidden_instance", 1);
    return {AdmitOutcome::kForbiddenInstance, 0};
  }
  // Re-check the global ceiling here: PreAdmit does not reserve the
  // declared bytes (requests can die between header and body), so many
  // concurrent in-flight bodies could otherwise collectively overshoot
  // max_pending_bytes. Checked before the record bucket so a shed does not
  // burn tenant tokens.
  if (pending_bytes_ + batch.wire_bytes > options_.max_pending_bytes) {
    ++t.stats.dropped_shed;
    PINSQL_OBS_COUNT("serve.admission.dropped_shed", 1);
    return {AdmitOutcome::kShed, 1000};
  }
  if (t.queue.size() >= t.quota.queue_capacity_batches) {
    ++t.stats.dropped_over_quota;
    PINSQL_OBS_COUNT("serve.admission.dropped_over_quota", 1);
    return {AdmitOutcome::kOverQuota, 1000};
  }
  int64_t retry_after_ms = 0;
  const double cost =
      static_cast<double>(batch.records.size() + batch.samples.size());
  if (!t.record_bucket.Take(cost, now_ms, &retry_after_ms)) {
    ++t.stats.dropped_rate_limited;
    PINSQL_OBS_COUNT("serve.admission.dropped_rate_limited", 1);
    return {AdmitOutcome::kRateLimited, retry_after_ms};
  }

  ++t.stats.batches_admitted;
  t.stats.records_admitted += batch.records.size();
  t.stats.samples_admitted += batch.samples.size();
  t.stats.bytes_admitted += batch.wire_bytes;
  t.queued_bytes += batch.wire_bytes;
  pending_bytes_ += batch.wire_bytes;
  ++pending_batches_;
  batch.enqueued_ms = now_ms;
  t.queue.push_back(std::move(batch));
  if (!t.in_active_round) {
    t.in_active_round = true;
    t.deficit_bytes = 0;
    active_.push_back(it->first);
  }
  PINSQL_OBS_COUNT("serve.admission.batches_admitted", 1);
  PINSQL_OBS_GAUGE_SET("serve.admission.pending_bytes",
                       static_cast<int64_t>(pending_bytes_));
  return {AdmitOutcome::kAdmitted, 0};
}

std::vector<StagedBatch> AdmissionController::DequeueFair(size_t max_batches,
                                                          int64_t now_ms) {
  (void)now_ms;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StagedBatch> out;
  // Deficit round robin over the backlogged tenants: each visit grants
  // weight * quantum bytes of deficit, then drains whole batches while the
  // deficit covers them. A tenant that empties leaves the round (deficit
  // reset, no banking idle credit).
  size_t visits_without_progress = 0;
  while (out.size() < max_batches && !active_.empty() &&
         visits_without_progress <= active_.size()) {
    const std::string name = active_.front();
    active_.pop_front();
    auto it = tenants_.find(name);
    if (it == tenants_.end()) continue;  // quota map is fixed, but be safe
    Tenant& t = it->second;
    if (t.queue.empty()) {
      t.in_active_round = false;
      t.deficit_bytes = 0;
      continue;
    }
    t.deficit_bytes += static_cast<size_t>(std::max<uint32_t>(
                           t.quota.weight, 1)) *
                       options_.drr_quantum_bytes;
    bool progressed = false;
    while (out.size() < max_batches && !t.queue.empty() &&
           t.queue.front().wire_bytes <= t.deficit_bytes) {
      StagedBatch batch = std::move(t.queue.front());
      t.queue.pop_front();
      t.deficit_bytes -= batch.wire_bytes;
      t.queued_bytes -= batch.wire_bytes;
      pending_bytes_ -= batch.wire_bytes;
      --pending_batches_;
      progressed = true;
      out.push_back(std::move(batch));
    }
    if (t.queue.empty()) {
      t.in_active_round = false;
      t.deficit_bytes = 0;
    } else {
      active_.push_back(name);
    }
    visits_without_progress = progressed ? 0 : visits_without_progress + 1;
  }
  PINSQL_OBS_GAUGE_SET("serve.admission.pending_bytes",
                       static_cast<int64_t>(pending_bytes_));
  return out;
}

void AdmissionController::NoteDelivered(const std::string& tenant,
                                        size_t records, size_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.stats.records_delivered += records;
  it->second.stats.samples_delivered += samples;
}

size_t AdmissionController::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_bytes_;
}

size_t AdmissionController::pending_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_batches_;
}

std::map<std::string, TenantAdmissionStats> AdmissionController::TenantStats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, TenantAdmissionStats> out;
  for (const auto& [name, tenant] : tenants_) out[name] = tenant.stats;
  return out;
}

}  // namespace pinsql::serve
