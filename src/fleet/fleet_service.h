#ifndef PINSQL_FLEET_FLEET_SERVICE_H_
#define PINSQL_FLEET_FLEET_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/correlator.h"
#include "fleet/fleet_scheduler.h"
#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/scheduler.h"
#include "online/stream_ingestor.h"
#include "repair/rule_engine.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/thread_pool.h"

namespace pinsql::fleet {

struct FleetOptions {
  /// Per-instance ingestion (shard count, window, backpressure).
  online::IngestorOptions ingestor;
  /// Per-instance streaming detector.
  online::OnlineDetectorOptions detector;
  /// Diagnosis configuration shared by every instance (delta_s, delay,
  /// cooldown, zero_timings). auto_repair is ignored — the fleet service
  /// is diagnose-only; closed-loop repair stays per-instance
  /// (OnlineService + RepairSupervisor).
  online::SchedulerOptions scheduler;
  /// Bounded fleet-wide diagnoser pool with priority aging.
  FleetSchedulerOptions pool;
  /// Storm and noisy-neighbor correlation. storm_window_sec is clamped to
  /// scheduler.diagnose_delay_sec (see CorrelatorOptions).
  CorrelatorOptions correlator;
  /// Worker threads for the per-instance advance step (pump + detect).
  /// Purely a throughput knob: instances are processed into disjoint
  /// slots, so results are identical at any count.
  int advance_workers = 4;
  /// Durable journaling root (empty = in-memory only). Every accepted
  /// record, sample and template registration is journaled into a
  /// per-instance segment WAL under <data_dir>/inst-<id>/, and Start()
  /// recovers whatever the directories hold before accepting new work.
  /// The fleet keeps no checkpoints: recovery is a full WAL replay, and
  /// segments are retained until the operator removes the directory.
  std::string data_dir;
  store::WalOptions wal;
  /// Filesystem the journals go through (nullptr = POSIX); tests
  /// substitute a fault-injecting Env.
  store::Env* env = nullptr;
};

/// Accounting of one fleet journal recovery (summed over instances).
struct FleetRecoveryStats {
  bool attempted = false;
  size_t instances_with_wal = 0;
  size_t frames_valid = 0;
  size_t frames_corrupt = 0;
  size_t frames_malformed = 0;
  size_t frames_time_rejected = 0;
  size_t records = 0;
  size_t samples = 0;
  size_t templates = 0;
  uint64_t torn_tail_bytes_truncated = 0;
  double recovery_ms = 0.0;
};

/// What happened to one accepted trigger at fleet level.
struct FleetOutcome {
  enum class Disposition {
    /// Ran a full windowed diagnosis (outcome.report is populated).
    kDiagnosed,
    /// Collapsed into a storm batch and not individually diagnosed;
    /// outcome carries the trigger and an explanatory error. Never
    /// silently dropped.
    kStormDeferred,
  };
  Disposition disposition = Disposition::kDiagnosed;
  /// Storm batch id the trigger belonged to (0 = direct trigger).
  uint64_t storm_batch = 0;
  online::DiagnosisOutcome outcome;
};

struct FleetStats {
  size_t instances = 0;
  /// Sum of per-instance consistent ingest cuts.
  online::IngestStats ingest;
  size_t samples_observed = 0;
  /// Detector-confirmed triggers before dedup.
  size_t triggers_confirmed = 0;
  size_t triggers_accepted = 0;
  size_t triggers_suppressed = 0;
  size_t diagnoses_ok = 0;
  size_t diagnoses_failed = 0;
  size_t storms_detected = 0;
  size_t storm_deferred = 0;
  size_t neighbor_verdicts = 0;
  int64_t seconds_processed = 0;
  /// Accepted records buffered for the journal but not yet flushed by a
  /// sample, summed over instances. Always 0 in-memory and for degraded
  /// instances (writer failed to open): nothing buffers without a flusher.
  size_t pending_journal_records = 0;
  FleetSchedulerStats pool;
};

/// Hundreds-to-thousands of simulated instances behind one sharded
/// service: per-instance StreamIngestor + streaming detector multiplexed
/// over a fixed advance-worker set, confirmed triggers deduped per
/// instance and fed through the cross-instance correlator into the
/// bounded diagnoser pool.
///
/// Clock model: every instance keeps its own virtual clock (its metric
/// watermark); AdvanceTo(fleet_sec) is the fleet watermark — it processes
/// each instance up to min(instance watermark, fleet_sec), then runs the
/// fleet-level ticks (dedup, correlation, one dispatch wave per second).
///
/// Threading: IngestRecord / IngestMetrics are safe from any number of
/// producers. AdvanceTo / Stop / stats serialize on an internal mutex.
/// During a dispatch wave each in-flight diagnosis touches only its own
/// instance's ingestor and archive (the wave packs at most one entry per
/// instance), plus shared read-only state — the whole service is
/// TSan-clean by construction.
///
/// Determinism: with a fixed ingest order per instance, results are
/// byte-identical (see FleetResult::Fingerprint) at any ingest shard
/// count, any diagnoser pool size and any advance_workers — diagnosis
/// windows are fixed at trigger time and storm membership is decided by
/// trigger times alone.
class FleetService {
 public:
  FleetService(const std::vector<FleetInstanceSpec>& specs,
               const FleetOptions& options);
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  size_t num_instances() const { return instances_.size(); }

  /// The per-instance archive (nullptr for an unknown id). Register
  /// templates before streaming starts.
  LogStore* archive(uint32_t instance_id);

  /// Registers one template into every instance's archive (the fleet
  /// shares one logical catalog).
  void RegisterTemplateFleetWide(uint64_t sql_id,
                                 const TemplateCatalogEntry& entry);

  void Start();

  /// Graceful drain: folds everything staged, processes every instance up
  /// to its watermark, closes an open storm, and runs every queued
  /// diagnosis — in-flight and not-yet-due alike, each keeping its planned
  /// window. Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// Thread-safe producer entry points. Return false when the record /
  /// sample was dropped (and counted). Unknown instance ids are rejected.
  bool IngestRecord(uint32_t instance_id, const QueryLogRecord& record);
  bool IngestMetrics(uint32_t instance_id, const online::PerfSample& sample);

  /// Advances the fleet watermark to `fleet_sec` and processes everything
  /// up to it. Returns the fleet outcomes this call produced — diagnoses
  /// and storm-deferred triggers alike — in the order outcomes() records
  /// them.
  std::vector<FleetOutcome> AdvanceTo(int64_t fleet_sec);

  /// Every fleet outcome so far, in completion order.
  const std::vector<FleetOutcome>& outcomes() const { return outcomes_; }
  const std::vector<StormBatch>& storms() const { return storms_; }
  const std::vector<NoisyNeighborVerdict>& neighbor_verdicts() const {
    return verdicts_;
  }

  /// Detection latencies of one instance's detector, in firing order.
  std::vector<int64_t> detection_latencies(uint32_t instance_id) const;

  FleetStats stats() const;

  /// What Start()'s journal recovery replayed (zero-valued when the fleet
  /// runs without a data_dir).
  const FleetRecoveryStats& recovery() const { return recovery_; }

 private:
  struct Instance {
    FleetInstanceSpec spec;
    std::unique_ptr<LogStore> archive;
    std::unique_ptr<online::StreamIngestor> ingestor;
    std::unique_ptr<online::OnlineAnomalyDetector> detector;
    bool processed_any = false;
    int64_t last_processed_sec = 0;
    /// Durable journal (null when the fleet runs in-memory, or between
    /// Stop() and the next Start()). journal_mu orders the inner ingest
    /// and the journal append as one atomic step, so the journal replays
    /// in exactly the order the ingestor accepted.
    std::unique_ptr<std::mutex> journal_mu;
    std::vector<QueryLogRecord> pending;
    std::unique_ptr<store::WalWriter> writer;
    uint64_t next_seq = 1;
  };
  /// What one instance-second produced, recorded by the parallel advance
  /// step and merged sequentially in instance order.
  struct SecondEvent {
    int64_t sec = 0;
    std::optional<online::AnomalyTrigger> trigger;
    bool in_run = false;
  };

  std::vector<FleetOutcome> AdvanceToLocked(int64_t fleet_sec);
  bool durable() const { return !options_.data_dir.empty(); }
  std::string InstanceDir(uint32_t instance_id) const;
  /// First Start() only: replays every instance's WAL through the normal
  /// ingest path with the canonical per-second discipline.
  void RecoverJournalsLocked();
  /// Opens (or reopens after Stop) each instance's writer and re-journals
  /// the current catalog so template registrations made before Start()
  /// survive a crash.
  void OpenJournalsLocked();
  void ProcessInstance(Instance* instance, int64_t fleet_sec,
                       std::vector<SecondEvent>* events);
  void RouteAcceptedTrigger(const online::AnomalyTrigger& trigger);
  /// Enqueues the storm's top-k members and records the rest as deferred
  /// outcomes (also appended to `out` when non-null).
  void TriageClosedStorm(StormBatch batch, int64_t now_sec,
                         std::vector<FleetOutcome>* out);
  void AppendCompletions(std::vector<FleetScheduler::Completion> completions,
                         std::vector<FleetOutcome>* out);
  online::DiagnosisOutcome RunOne(const QueuedTrigger& entry);

  FleetOptions options_;
  /// One chunk pool behind every instance's ingestor: staging capacity is
  /// pooled fleet-wide (slabs recycle across instances) instead of
  /// multiplied by the instance count.
  std::shared_ptr<online::IngestChunkPool> chunk_pool_;
  std::vector<Instance> instances_;
  std::map<uint32_t, size_t> index_by_id_;

  online::TriggerDeduper deduper_;
  CrossInstanceCorrelator correlator_;
  std::unique_ptr<FleetScheduler> scheduler_;
  std::unique_ptr<util::ThreadPool> advance_pool_;

  core::MapHistoryProvider empty_history_;
  repair::RepairRuleEngine rules_ = repair::RepairRuleEngine::Default();

  mutable std::mutex advance_mu_;
  bool running_ = false;
  bool processed_fleet_any_ = false;
  int64_t last_fleet_sec_ = 0;
  int64_t seconds_processed_ = 0;
  size_t triggers_confirmed_ = 0;
  size_t triggers_accepted_ = 0;
  size_t triggers_suppressed_ = 0;
  size_t diagnoses_ok_ = 0;
  size_t diagnoses_failed_ = 0;
  size_t storm_deferred_ = 0;

  std::vector<FleetOutcome> outcomes_;
  std::vector<StormBatch> storms_;
  std::vector<NoisyNeighborVerdict> verdicts_;

  store::Env* env_ = nullptr;
  bool journals_recovered_ = false;
  FleetRecoveryStats recovery_;
};

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_SERVICE_H_
