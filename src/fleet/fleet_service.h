#ifndef PINSQL_FLEET_FLEET_SERVICE_H_
#define PINSQL_FLEET_FLEET_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fleet/correlator.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_state.h"
#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/scheduler.h"
#include "online/stream_ingestor.h"
#include "repair/rule_engine.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pinsql::fleet {

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

/// What one Start(), AdvanceTo() or Stop() call produced besides its
/// outcomes. Each item goes to the caller once; the fleet keeps none.
struct FleetEvents {
  /// Storm batches closed by this call, in closing order.
  std::vector<StormBatch> storms;
  /// Noisy-neighbor verdicts flagged by this call.
  std::vector<NoisyNeighborVerdict> verdicts;
  /// Every detector-confirmed trigger, before dedup, in merge order
  /// (second, then instance order) — per instance that is firing order.
  std::vector<online::AnomalyTrigger> confirmed;
};

struct FleetOptions {
  /// Per-instance ingestion (window, staging capacity, late grace).
  online::IngestorOptions ingestor;
  /// Per-instance streaming detector.
  online::OnlineDetectorOptions detector;
  /// Diagnosis configuration shared by every instance (delta_s, delay,
  /// cooldown, zero_timings, auto_repair, max_repairs). Repairs go to the
  /// instance's own FleetInstanceSpec::supervisor, when it has one.
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
  /// record, sample, template registration and supervised-repair event is
  /// journaled into a per-instance segment WAL under
  /// <data_dir>/inst-<id>/, and Start() recovers whatever the directory
  /// holds (newest valid checkpoint, then each instance's WAL suffix)
  /// before accepting new work.
  std::string data_dir;
  store::WalOptions wal;
  /// Durable fleets only: write a whole-fleet checkpoint
  /// (<data_dir>/ckpt-*.ckpt) every this many fleet seconds, plus a final
  /// one on Stop(), and delete the WAL segments no retained checkpoint
  /// needs. 0 writes no checkpoint at all: recovery is a full WAL replay
  /// and segments are kept. A checkpoint holds only what the WAL cannot
  /// rebuild, so its size follows the fleet's state, not its history.
  int64_t checkpoint_every_sec = 0;
  /// Filesystem the journals go through (nullptr = POSIX); tests
  /// substitute a fault-injecting Env.
  store::Env* env = nullptr;
};

/// Accounting of one fleet recovery: the checkpoint it started from, the
/// WAL frames it rebuilt the checkpoint's data from and the WAL suffixes it
/// replayed (summed over instances). Every corrupt, rejected or missing
/// byte is counted here, never silently skipped.
struct FleetRecoveryStats {
  bool attempted = false;
  bool checkpoint_loaded = false;
  uint64_t checkpoint_counter = 0;
  /// Newer checkpoints skipped: corrupt or of an older format (deleted,
  /// unless unreadable), or intact but written for another fleet shape —
  /// other instance ids or detector configuration (kept on disk; new
  /// checkpoints are numbered above them).
  size_t checkpoints_corrupt_skipped = 0;
  size_t checkpoints_mismatched_skipped = 0;
  /// Why the data dir's checkpoints could not be listed (empty when they
  /// could). When set, the WAL is replayed in full and this incarnation
  /// writes no checkpoint, so it never numbers one below a file on disk.
  std::string checkpoint_error;
  size_t instances_with_wal = 0;
  /// Every valid frame the scans read.
  size_t frames_valid = 0;
  /// Frames up to a loaded checkpoint's LSN, read to rebuild its archives,
  /// metric rings and staged records without advancing; and the frames
  /// after it, replayed through the advance.
  size_t frames_rebuilt = 0;
  size_t frames_replayed = 0;
  size_t frames_corrupt = 0;
  size_t frames_malformed = 0;
  size_t frames_time_rejected = 0;
  size_t segments_duplicate_seq = 0;
  size_t segments_invalid_header = 0;
  /// Instances whose journal had a sequence gap / whose scan stopped
  /// before the physical end of the WAL.
  size_t seq_gaps = 0;
  size_t stopped_early = 0;
  size_t records = 0;
  size_t samples = 0;
  size_t templates = 0;
  uint64_t torn_tail_bytes_truncated = 0;
  /// Wall time of the whole recovery, and of two of its phases: loading,
  /// decoding and rebuilding every instance's journal (scan_ms), and the
  /// canonical replay of the suffixes (replay_ms).
  double recovery_ms = 0.0;
  double scan_ms = 0.0;
  double replay_ms = 0.0;
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
  size_t repairs_applied = 0;
  size_t repairs_rejected = 0;
  size_t retention_sweeps = 0;
  size_t records_retired = 0;
  /// Producer calls refused whole because the fleet was not running
  /// (before Start(), or from the start of Stop()'s drain). Counted like
  /// any other drop: never staged, journaled or archived.
  uint64_t records_rejected_stopped = 0;
  uint64_t samples_rejected_stopped = 0;
  /// Accepted records buffered for the journal but not yet flushed by a
  /// sample, summed over instances. Always 0 in-memory and for degraded
  /// instances (writer failed to open): nothing buffers without a flusher.
  size_t pending_journal_records = 0;
  /// Every instance's journal writers summed, including the writers of
  /// earlier Start()/Stop() incarnations of this service (fsync and append
  /// failures degrade durability without stopping the stream; this is
  /// where they are counted). Zero in-memory.
  store::WalWriterStats wal;
  FleetSchedulerStats pool;
};

/// The service core: hundreds-to-thousands of simulated instances (or a
/// single one — a single instance is a fleet of one) behind one service. Per-instance StreamIngestor + streaming detector multiplexed
/// over a fixed advance-worker set, confirmed triggers deduped per
/// instance and fed through the cross-instance correlator into the
/// bounded diagnoser pool; each instance may close its loop through its
/// own repair supervisor, and its archive keeps the 3-day retention.
///
/// Clock model: every instance keeps its own virtual clock (its metric
/// watermark); AdvanceTo(fleet_sec) is the fleet watermark — it processes
/// each instance up to min(instance watermark, fleet_sec), then runs the
/// fleet-level ticks (dedup, correlation, one dispatch wave per second,
/// and a retention sweep every kRetentionEverySec fleet seconds).
///
/// Outcomes and events: every diagnosis and storm-deferred trigger, and
/// every closed storm, noisy-neighbor verdict and confirmed trigger
/// (FleetEvents), is handed to the caller once — by the Start() (recovery
/// replay), AdvanceTo() or Stop() (drain) call that produced it — and the
/// fleet keeps none; FleetStats counts them. Callers that need a history
/// keep it themselves. Supervised-repair events ride in each report
/// (DiagnosisReport::repair_events) and, durably, in the WAL.
///
/// Threading: IngestRecord / IngestMetrics are safe from any number of
/// producers between Start() and Stop() (one instance's calls serialize on
/// its mutex); outside that they refuse whole and count. AdvanceTo / Stop /
/// stats serialize on an internal mutex. Lock order: advance_mu_ -> an
/// instance's mutex -> its ingestor's queue mutex -> the ingestor's chunk
/// cache -> the chunk pool. During a dispatch wave each
/// in-flight diagnosis touches only its own instance's ingestor, archive
/// and supervisor (the wave packs at most one entry per instance), plus
/// shared read-only state — the whole service is TSan-clean by
/// construction.
///
/// Determinism: with a fixed ingest order per instance, results are
/// byte-identical (see FleetResult::Fingerprint) at any diagnoser pool
/// size and any advance_workers — diagnosis
/// windows are fixed at trigger time and storm membership is decided by
/// trigger times alone. A recovered durable fleet (checkpoint, the data
/// rebuilt from the WAL below it, the WAL suffix replayed above it)
/// continues byte-identically to one that never stopped.
class FleetService {
 public:
  /// Archive retention sweep cadence, in fleet seconds. The horizon is
  /// LogStore::kRetentionMs (the paper's 3 days).
  static constexpr int64_t kRetentionEverySec = 60;
  /// Checkpoint files kept on disk. Two survive one corrupt newest
  /// checkpoint: recovery falls back and replays a longer WAL suffix.
  static constexpr size_t kCheckpointsToKeep = 2;

  FleetService(const std::vector<FleetInstanceSpec>& specs,
               const FleetOptions& options);
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Instance ids in the fleet's instance order.
  std::vector<uint32_t> instance_ids() const;

  /// The per-instance archive (nullptr for an unknown id). Register
  /// templates before streaming starts.
  LogStore* archive(uint32_t instance_id);

  /// Registers one template into every instance's archive (the fleet
  /// shares one logical catalog).
  void RegisterTemplateFleetWide(uint64_t sql_id,
                                 const TemplateCatalogEntry& entry);

  /// Starts accepting work. A durable fleet first recovers its data dir
  /// (first Start() only): the newest valid checkpoint that fits its shape
  /// (others are skipped, see FleetRecoveryStats), each instance's
  /// archive, metric ring and staged records rebuilt from the frames it
  /// journaled up to the checkpoint, then every instance's WAL suffix
  /// replayed with the canonical per-second discipline. Returns the
  /// outcomes that replay produced, and appends its events to `events`
  /// when given; what the checkpoint already counted is not handed out
  /// again.
  std::vector<FleetOutcome> Start(FleetEvents* events = nullptr);

  /// Graceful drain: refuses further ingest (in-flight calls complete
  /// first), folds everything staged, processes every instance up to its
  /// watermark, closes an open storm, and runs every queued diagnosis —
  /// in-flight and not-yet-due alike, each keeping its planned window. A
  /// checkpointing fleet then writes a final checkpoint. Returns the
  /// outcomes the drain produced, storm-deferred ones included, and
  /// appends its events to `events` when given. Idempotent: a second call
  /// returns nothing.
  std::vector<FleetOutcome> Stop(FleetEvents* events = nullptr);

  bool running() const { return running_; }

  /// Thread-safe producer entry points. Return false when the record /
  /// sample was dropped (and counted). Unknown instance ids are rejected;
  /// calls before Start() or from the start of Stop() are refused whole. A
  /// record dated more than wal.time_grace_sec past its instance's newest
  /// sample second (before its first sample: past the fleet clock) is
  /// refused as too far ahead, in-memory fleets included, and so is a
  /// second beyond ±online::kMaxEventSec.
  bool IngestRecord(uint32_t instance_id, const QueryLogRecord& record);
  bool IngestMetrics(uint32_t instance_id, const online::PerfSample& sample);

  /// Advances the fleet watermark to `fleet_sec` and processes everything
  /// up to it. Returns the fleet outcomes this call produced — diagnoses
  /// and storm-deferred triggers alike — in completion order, and appends
  /// its events to `events` when given. A checkpointing fleet writes its
  /// periodic checkpoint here.
  std::vector<FleetOutcome> AdvanceTo(int64_t fleet_sec,
                                      FleetEvents* events = nullptr);

  FleetStats stats() const;

  /// What Start()'s recovery replayed (zero-valued when the fleet runs
  /// without a data_dir).
  const FleetRecoveryStats& recovery() const { return recovery_; }

  /// Captures the state no WAL can give back (see FleetState) as one
  /// consistent cut under the advance mutex (each instance's slice under
  /// its mutex, with its buffered records flushed, so the slice
  /// matches its WAL position). Copies no record or sample. Safe while
  /// producers race; call between AdvanceTo() calls.
  FleetState ExportState();

  /// Restores an exported state into a stopped fleet of the same shape
  /// (same instance ids in order, same detector configuration): detectors,
  /// trigger routing, clocks, counters and the
  /// catalog. Archives, metric rings and staged records are left as they
  /// are — only a durable recovery rebuilds them, from the WAL. Nothing
  /// changes on error: FailedPrecondition when the fleet runs or the state
  /// has another shape, InvalidArgument when its content is invalid (e.g.
  /// a queued trigger or storm member of an instance the fleet lacks, or
  /// ingest counters that account for more records than were offered). A
  /// durable fleet's first Start() still recovers its data dir on top.
  Status ImportState(const FleetState& state);

  /// Durable fleets: writes a checkpoint now, prunes old ones and deletes
  /// the WAL segments no retained checkpoint needs. FailedPrecondition
  /// when the fleet is in-memory, not running, or its recovery could not
  /// list the data dir. Tests, benches and the durable demo only so far:
  /// served fleets run with checkpoint_every_sec = 0.
  Status Checkpoint();

 private:
  struct Instance {
    FleetInstanceSpec spec;
    std::unique_ptr<LogStore> archive;
    std::unique_ptr<online::StreamIngestor> ingestor;
    std::unique_ptr<online::OnlineAnomalyDetector> detector;
    bool processed_any = false;
    int64_t last_processed_sec = 0;
    /// The highest cutoff a retention sweep applied to the archive.
    int64_t retention_cutoff_ms = std::numeric_limits<int64_t>::min();
    /// Repair accounting of this instance's last wave (its one diagnosis
    /// per wave writes it; the merge after the wave reads and clears it).
    online::DiagnosisSideStats side;
    /// How many of the supervisor's events are journaled (or, on
    /// recovery, came from the journal).
    size_t events_seen = 0;
    /// The instance's ingest lock and stop gate: every producer call holds
    /// it, reads `accepting` (written by SetAccepting under it) and, when
    /// durable, ingests and buffers for the journal as one atomic step, so
    /// the journal replays in exactly the order the ingestor accepted. It
    /// also guards the journal state below. The writer is null in-memory,
    /// for a degraded instance, and between Stop() and the next Start().
    std::unique_ptr<std::mutex> mu;
    bool accepting = false;
    std::vector<QueryLogRecord> pending;
    std::unique_ptr<store::WalWriter> writer;
    /// Accounting of the writers Stop() closed.
    store::WalWriterStats closed_writers;
    uint64_t next_seq = 1;
    /// Segments a recovery scanned or Stop() closed, adopted by the next
    /// writer.
    std::vector<store::SealedSegment> recovered_segments;
  };
  /// One journaled second of an instance: the records the WAL grouped with
  /// the sample that closed it (no sample: records journaled after the
  /// last one).
  struct Batch {
    std::vector<QueryLogRecord> records;
    std::optional<online::PerfSample> sample;
  };
  /// One instance's share of a recovery: its journal as loaded, then the
  /// batches and counts its parse and rebuild produced, merged in instance
  /// order once every instance is done.
  struct InstanceRecovery {
    store::LoadedWal wal;
    bool loaded = false;
    std::deque<Batch> batches;
    /// Seconds of the samples in the suffix the replay runs.
    std::vector<int64_t> sample_secs;
    store::WalScanStats scan;
    std::optional<store::WalTruncation> truncation;
    size_t frames_rebuilt = 0;
    size_t frames_replayed = 0;
  };
  /// What one instance-second produced, recorded by the parallel advance
  /// step and merged sequentially in instance order.
  struct SecondEvent {
    int64_t sec = 0;
    std::optional<online::AnomalyTrigger> trigger;
    bool in_run = false;
  };

  /// What one locked call hands out: its outcomes and, when the caller
  /// asked for them, its events (nullptr: they are dropped).
  struct Output {
    explicit Output(FleetEvents* sink) : events(sink) {}
    std::vector<FleetOutcome> outcomes;
    FleetEvents* events;
  };

  Instance* Find(uint32_t instance_id);
  /// Appends what the processed seconds produced to `out`. A recovery
  /// replay passes each instance's journaled batches: the worker that
  /// processes an instance first ingests its batches due by `fleet_sec`.
  void AdvanceToLocked(int64_t fleet_sec, Output* out,
                       std::vector<std::deque<Batch>>* replay = nullptr);
  /// Dedups and routes one instance-second's trigger and run activity.
  void MergeEvent(const Instance& instance, const SecondEvent& event,
                  Output* out);
  bool durable() const { return !options_.data_dir.empty(); }
  std::string InstanceDir(uint32_t instance_id) const;
  /// Opens or closes the ingest gate of every instance: in-flight producer
  /// calls finish before this returns.
  void SetAccepting(bool accepting);
  /// First Start() only: loads the newest valid checkpoint, rebuilds each
  /// instance's data from the frames up to its LSN, imports the
  /// checkpoint, then replays every instance's WAL suffix through the
  /// normal ingest path with the canonical per-second discipline. Appends
  /// what the replay produced to `out`. Every Env call stays on this
  /// thread, in instance order; the parse and rebuild of each instance run
  /// on the advance workers, with at most advance_workers + 1 instances'
  /// raw segments held at once.
  void RecoverLocked(Output* out);
  /// An instance's parse of its loaded journal (freed as soon as it is
  /// parsed) into batches, then the rebuild of the checkpoint's data
  /// (`slice`: nullptr without a checkpoint). Touches only the instance.
  void RecoverInstance(Instance* instance, const FleetInstanceState* slice,
                       InstanceRecovery* recovery);
  /// Rebuilds an instance's data from the first `rebuilt` of its journaled
  /// batches (those up to a checkpoint's LSN): archives their records in
  /// journal order except the last ones the slice counts as staged, which
  /// it restages, feeds their samples to the metric ring, trims to the
  /// slice's retention cutoff, and drops them from `batches`.
  void RebuildLocked(Instance* instance, const FleetInstanceState& slice,
                     std::deque<Batch>* batches, size_t rebuilt);
  /// Opens (or reopens after Stop) each instance's writer, adopts the
  /// segments recovery scanned and re-journals the current catalog so
  /// template registrations made before Start() survive a crash.
  void OpenJournalsLocked();
  /// The newest second a record offered to `instance` may be dated.
  int64_t NewestRecordSec(const Instance& instance) const;
  void ProcessInstance(Instance* instance, int64_t fleet_sec,
                       std::vector<SecondEvent>* events);
  void RouteAcceptedTrigger(const online::AnomalyTrigger& trigger);
  /// Enqueues the storm's top-k members, appends the rest to `out` as
  /// deferred outcomes and hands the batch out.
  void TriageClosedStorm(StormBatch batch, int64_t now_sec, Output* out);
  /// Appends a wave's completions to `out`, merges their repair accounting
  /// and journals the supervisors' new events in instance order.
  void AppendCompletions(std::vector<FleetScheduler::Completion> completions,
                         Output* out);
  online::DiagnosisOutcome RunOne(const QueuedTrigger& entry);
  /// Applies the archive retention at fleet second `sec`, never below an
  /// instance's open sliding window or the lookback of its queued or
  /// storm-held triggers.
  void SweepRetentionLocked(int64_t sec);
  /// Per-instance oldest millisecond any open window still needs
  /// (INT64_MAX when nothing pins the instance).
  std::vector<int64_t> OpenWindowFloorsMs() const;
  FleetState ExportStateLocked();
  /// Whether ImportStateLocked can adopt `state` (ImportState's errors).
  Status CheckStateLocked(const FleetState& state) const;
  /// Adopts a checked state.
  void ImportStateLocked(const FleetState& state);
  Status CheckpointLocked();

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

  std::atomic<uint64_t> records_rejected_stopped_{0};
  std::atomic<uint64_t> samples_rejected_stopped_{0};

  mutable std::mutex advance_mu_;
  bool running_ = false;
  bool recovering_ = false;
  bool processed_fleet_any_ = false;
  int64_t last_fleet_sec_ = 0;
  /// last_fleet_sec_ for producers (INT64_MIN before the first advance).
  std::atomic<int64_t> fleet_clock_sec_{std::numeric_limits<int64_t>::min()};
  FleetCounters counters_;

  store::Env* env_ = nullptr;
  bool journals_recovered_ = false;
  FleetRecoveryStats recovery_;

  /// Checkpointing: the cadence anchor, the file counter, and the
  /// per-instance first-needed segments of the retained checkpoints
  /// (oldest first) — segment deletion stays below the oldest one, so a
  /// fallback recovery always finds every segment it rebuilds from.
  bool cadence_anchored_ = false;
  int64_t last_checkpoint_sec_ = 0;
  uint64_t checkpoint_counter_ = 0;
  std::deque<std::vector<uint64_t>> checkpoint_first_needed_;
};

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_SERVICE_H_
