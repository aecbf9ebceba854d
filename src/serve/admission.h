#ifndef PINSQL_SERVE_ADMISSION_H_
#define PINSQL_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "logstore/log_store.h"
#include "online/stream_ingestor.h"

namespace pinsql::serve {

/// Per-tenant admission budget. Token buckets are continuous-refill
/// (tokens/sec with a burst cap), so a tenant's long-run admitted rate can
/// never exceed its budget no matter how it shapes its traffic.
struct TenantQuota {
  double records_per_sec = 10'000.0;
  double record_burst = 20'000.0;
  double bytes_per_sec = 8.0 * 1024 * 1024;
  double byte_burst = 16.0 * 1024 * 1024;
  /// Bound on the tenant's staged (admitted, not yet delivered) batches.
  size_t queue_capacity_batches = 256;
  /// Weighted-fair share: a tenant with weight 2 drains twice the bytes
  /// per round of a tenant with weight 1 when both are backlogged.
  uint32_t weight = 1;
  /// Instances this tenant may ingest into and read reports for.
  std::vector<uint32_t> instances;
};

struct AdmissionOptions {
  std::map<std::string, TenantQuota> tenants;
  /// Global overload threshold: when the staged bytes across every tenant
  /// would exceed this, new ingest is shed (503) regardless of per-tenant
  /// budgets. Reports and health endpoints are unaffected by design — they
  /// never pass through this controller.
  size_t max_pending_bytes = 64 * 1024 * 1024;
  /// Deficit-round-robin quantum per weight unit per round.
  size_t drr_quantum_bytes = 64 * 1024;
};

enum class AdmitOutcome {
  kAdmitted,
  kRateLimited,       // 429: token bucket empty
  kOverQuota,         // 429: tenant staging queue full
  kShed,              // 503: global overload
  kUnknownTenant,     // 403
  kForbiddenInstance  // 403
};

struct AdmitDecision {
  AdmitOutcome outcome = AdmitOutcome::kAdmitted;
  /// For 429/503: suggested client backoff.
  int64_t retry_after_ms = 0;
};

/// One admitted ingest payload staged for fair delivery into the fleet.
struct StagedBatch {
  std::string tenant;
  uint32_t instance_id = 0;
  std::vector<QueryLogRecord> records;
  std::vector<online::PerfSample> samples;
  /// Wire size of the request body (the DRR currency).
  size_t wire_bytes = 0;
  int64_t enqueued_ms = 0;
};

/// Every admission drop is accounted per tenant, mirroring the ingest
/// layer's late/backpressure counters — nothing leaves the front door
/// silently (see /v1/metricsz for the unified view).
struct TenantAdmissionStats {
  uint64_t batches_admitted = 0;
  uint64_t records_admitted = 0;
  uint64_t samples_admitted = 0;
  uint64_t bytes_admitted = 0;
  /// Records/samples the fleet actually accepted (admitted minus the
  /// fleet's own backpressure/late drops).
  uint64_t records_delivered = 0;
  uint64_t samples_delivered = 0;
  uint64_t dropped_rate_limited = 0;   // requests
  uint64_t dropped_over_quota = 0;     // requests
  uint64_t dropped_shed = 0;           // requests
};

/// The admission-control layer between the socket and the deterministic
/// ingest boundary: per-tenant token buckets + byte quotas on the way in,
/// a bounded per-tenant staging queue, and weighted deficit-round-robin on
/// the way out, so one flooding tenant can neither exhaust memory nor
/// starve well-behaved tenants' ingest.
///
/// Time is an explicit now_ms argument everywhere, so tests drive the
/// buckets deterministically. Thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  bool KnownTenant(const std::string& tenant) const;
  bool Authorized(const std::string& tenant, uint32_t instance_id) const;
  /// Instances `tenant` may read (empty for unknown tenants).
  std::vector<uint32_t> TenantInstances(const std::string& tenant) const;

  /// Header-time check against the declared body size: charges the byte
  /// bucket and applies the global shed threshold. Runs before a single
  /// body byte is buffered, so a denied flood costs only header bytes.
  AdmitDecision PreAdmit(const std::string& tenant, size_t declared_bytes,
                         int64_t now_ms);

  /// Post-parse: re-applies the global shed ceiling against the actual
  /// wire bytes (PreAdmit does not reserve them), charges the record
  /// bucket and stages the batch for fair delivery. On any non-admitted
  /// outcome the batch is dropped and counted.
  AdmitDecision Enqueue(StagedBatch batch, int64_t now_ms);

  /// Weighted deficit-round-robin drain across backlogged tenants, up to
  /// `max_batches` per call. Round-robin order is tenant-name order, so a
  /// single-threaded drain of a fixed admitted sequence is deterministic.
  std::vector<StagedBatch> DequeueFair(size_t max_batches, int64_t now_ms);

  /// Delivery accounting (what the fleet accepted of an admitted batch).
  void NoteDelivered(const std::string& tenant, size_t records,
                     size_t samples);

  size_t pending_bytes() const;
  size_t pending_batches() const;
  std::map<std::string, TenantAdmissionStats> TenantStats() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    double rate_per_sec = 0.0;
    double burst = 0.0;
    int64_t last_refill_ms = 0;

    void Refill(int64_t now_ms);
    /// Takes `cost` tokens or reports how long until they accrue.
    bool Take(double cost, int64_t now_ms, int64_t* retry_after_ms);
  };
  struct Tenant {
    TenantQuota quota;
    Bucket record_bucket;
    Bucket byte_bucket;
    std::deque<StagedBatch> queue;
    size_t queued_bytes = 0;
    /// DRR deficit; meaningful only while backlogged.
    size_t deficit_bytes = 0;
    bool in_active_round = false;
    TenantAdmissionStats stats;
  };

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
  /// Backlogged tenants in round-robin order (names into tenants_).
  std::deque<std::string> active_;
  size_t pending_bytes_ = 0;
  size_t pending_batches_ = 0;
};

}  // namespace pinsql::serve

#endif  // PINSQL_SERVE_ADMISSION_H_
