#ifndef PINSQL_ONLINE_SCHEDULER_H_
#define PINSQL_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/diagnoser.h"
#include "core/report.h"
#include "core/rsql.h"
#include "online/online_detector.h"
#include "online/stream_ingestor.h"
#include "repair/rule_engine.h"
#include "repair/supervisor.h"

namespace pinsql::online {

struct SchedulerOptions {
  /// Full diagnoser configuration (delta_s lookback, stage options,
  /// num_threads — Diagnose() parallelizes internally and is bit-identical
  /// at any thread count).
  core::DiagnoserOptions diagnoser;
  /// Diagnosis runs this many seconds after the trigger fires, so the
  /// anomaly period has substance beyond its first confirmed seconds. The
  /// anomaly window is fixed at trigger time ([onset, trigger + delay)),
  /// which keeps replay deterministic regardless of poll cadence.
  int64_t diagnose_delay_sec = 30;
  /// Hysteresis: a trigger whose onset falls within `cooldown_sec` of the
  /// last seen anomalous activity is a re-detection of the same incident
  /// and is suppressed, never diagnosed twice.
  int64_t cooldown_sec = 300;
  /// Ranking depth of the built reports.
  size_t top_k = 5;
  /// Zeroes every wall-clock timing field (DiagnosisResult stage seconds
  /// and PipelineTrace durations) before the report is built, so replayed
  /// runs produce byte-identical reports. Counters are untouched.
  bool zero_timings = false;
  /// Hand rule-engine suggestions for confirmed R-SQLs to the supervisor.
  bool auto_repair = true;
  /// Cap on supervised actions per diagnosis.
  size_t max_repairs = 1;
};

/// Everything one trigger produced: the report, the confirmed R-SQLs and
/// the closed-loop outcome.
struct DiagnosisOutcome {
  AnomalyTrigger trigger;
  bool ok = false;
  std::string error;
  core::DiagnosisReport report;
  std::vector<uint64_t> confirmed_rsqls;
  size_t repairs_applied = 0;
  /// Time-to-repair: seconds from anomaly onset to the first successful
  /// supervised application. Negative when nothing was applied.
  double ttr_sec = -1.0;
};

struct SchedulerStats {
  size_t triggers_accepted = 0;
  size_t triggers_suppressed = 0;
  size_t diagnoses_ok = 0;
  size_t diagnoses_failed = 0;
  size_t repairs_applied = 0;
  size_t repairs_rejected = 0;
};

/// Serializable mirror of a DiagnosisScheduler's mutable state, for the
/// durable service's checkpoints (see online/service_state.h). Pending
/// diagnoses survive a restart with their planned windows intact — the
/// open-diagnosis-window retention floor is therefore restored too.
struct SchedulerPendingState {
  AnomalyTrigger trigger;
  int64_t due_sec = 0;
};

struct SchedulerState {
  std::vector<SchedulerPendingState> pending;
  /// TriggerDeduper: instance id -> last anomalous activity second.
  std::vector<std::pair<uint32_t, int64_t>> dedup_activity;
  SchedulerStats stats;
  std::vector<DiagnosisOutcome> outcomes;
};

/// Cooldown/hysteresis trigger deduplication, keyed by instance id: one
/// instance's cooldown can never suppress another instance's confirming
/// trigger. A trigger whose onset falls within `cooldown_sec` of *its own
/// instance's* last anomalous activity is a re-detection of the same
/// incident and is suppressed; activity before any accepted trigger never
/// anchors the cooldown (it would suppress the confirming trigger itself).
class TriggerDeduper {
 public:
  explicit TriggerDeduper(int64_t cooldown_sec)
      : cooldown_sec_(cooldown_sec) {}

  /// Accepts or suppresses; an accepted trigger (re-)anchors its
  /// instance's hysteresis horizon.
  bool Accept(const AnomalyTrigger& trigger);

  /// Extends an existing incident's horizon (no-op before the instance's
  /// first accepted trigger).
  void NoteActivity(uint32_t instance_id, int64_t sec);

  /// Checkpoint support: the activity map as (instance id, last activity
  /// second) pairs in id order.
  std::vector<std::pair<uint32_t, int64_t>> ExportActivity() const;
  void ImportActivity(const std::vector<std::pair<uint32_t, int64_t>>& pairs);

 private:
  int64_t cooldown_sec_;
  /// instance id -> last anomalous activity second. Absence means the
  /// instance has no accepted trigger yet.
  std::map<uint32_t, int64_t> last_activity_;
};

/// Everything RunWindowedDiagnosis needs besides the trigger itself. The
/// fleet's diagnoser pool runs many of these concurrently for *different*
/// instances; all mutable state (supervisor, rule engine) must therefore
/// be per-instance or absent.
struct WindowedDiagnosisContext {
  StreamIngestor* ingestor = nullptr;
  const LogStore* archive = nullptr;
  const SchedulerOptions* options = nullptr;
  repair::RepairSupervisor* supervisor = nullptr;     // null = diagnose-only
  const core::HistoryProvider* history = nullptr;      // must be non-null
  repair::RepairRuleEngine* rules = nullptr;           // must be non-null
};

/// Repair accounting of one diagnosis (merged into SchedulerStats by the
/// caller; kept separate so concurrent fleet diagnoses don't race on a
/// shared stats struct).
struct DiagnosisSideStats {
  size_t repairs_applied = 0;
  size_t repairs_rejected = 0;
};

/// Runs one complete windowed diagnosis for an accepted trigger: snapshots
/// the window [onset - delta_s, window_end) from the archive and the
/// ingestor's metric ring, runs Diagnose(), builds the report and
/// (optionally) hands confirmed R-SQLs to the repair supervisor. The
/// window end is fixed by the caller at trigger time, so the result is
/// independent of *when* the diagnosis actually runs — the property the
/// fleet's bounded pool relies on for schedule-invariant fingerprints.
DiagnosisOutcome RunWindowedDiagnosis(const WindowedDiagnosisContext& ctx,
                                      const AnomalyTrigger& trigger,
                                      int64_t window_end_sec,
                                      DiagnosisSideStats* side);

/// Turns confirmed anomaly triggers into full diagnoses: snapshots the
/// window from the archive and the ingestor's metric ring, assembles a
/// DiagnosisInput, runs Diagnose() (which fans out on its internal thread
/// pool), builds the report, and hands confirmed R-SQLs to the repair
/// supervisor. Overlapping triggers of one incident are deduplicated with
/// cooldown/hysteresis; an accepted trigger is diagnosed exactly once.
///
/// Not internally synchronized: OnTrigger / NoteAnomalousActivity / Poll /
/// Drain belong to the service's per-second processing thread (producers
/// touch only the ingestor).
class DiagnosisScheduler {
 public:
  /// `archive` provides the window's query-log records via SnapshotRange
  /// and resolves template texts; its catalog must be registered before
  /// streaming starts. `supervisor` may be null (diagnose-only).
  /// `history` may be null (no history verification).
  DiagnosisScheduler(StreamIngestor* ingestor, const LogStore* archive,
                     const SchedulerOptions& options,
                     repair::RepairSupervisor* supervisor = nullptr,
                     const core::HistoryProvider* history = nullptr);

  /// Accepts or suppresses a trigger. Accepted triggers are queued for
  /// diagnosis at trigger_sec + diagnose_delay_sec. Cooldown state is
  /// keyed by trigger.instance_id: suppression never crosses instances.
  bool OnTrigger(const AnomalyTrigger& trigger);

  /// Extends the hysteresis horizon of `instance_id`: call once per second
  /// while that instance's detector has a flagged run open, so a run that
  /// briefly closes mid-anomaly cannot re-trigger the same incident after
  /// the cooldown anchor went stale.
  void NoteAnomalousActivity(int64_t sec, uint32_t instance_id = 0);

  /// Runs every queued diagnosis whose due time has arrived. Returns the
  /// completed outcomes (also appended to outcomes()).
  std::vector<DiagnosisOutcome> Poll(int64_t now_sec);

  /// Graceful drain: runs every queued diagnosis now, due or not. Each
  /// keeps its planned window (fixed at trigger time); metrics beyond the
  /// watermark show up as gaps, accounted in DataQuality as usual.
  std::vector<DiagnosisOutcome> Drain();

  /// Oldest millisecond any queued diagnosis still needs from the archive
  /// (onset - delta_s), or nullopt when nothing is queued. Retention must
  /// not trim past this.
  std::optional<int64_t> open_window_floor_ms() const;

  size_t pending() const { return pending_.size(); }
  const std::vector<DiagnosisOutcome>& outcomes() const { return outcomes_; }
  const SchedulerStats& stats() const { return stats_; }

  /// Checkpoint support: a scheduler restored from an exported state polls,
  /// suppresses and diagnoses bit-identically to the one it came from.
  SchedulerState ExportState() const;
  void ImportState(const SchedulerState& state);

 private:
  struct Pending {
    AnomalyTrigger trigger;
    int64_t due_sec = 0;
  };

  DiagnosisOutcome RunDiagnosis(const Pending& pending);

  StreamIngestor* ingestor_;
  const LogStore* archive_;
  SchedulerOptions options_;
  repair::RepairSupervisor* supervisor_;
  const core::HistoryProvider* history_;
  core::MapHistoryProvider empty_history_;
  repair::RepairRuleEngine rules_ = repair::RepairRuleEngine::Default();

  std::deque<Pending> pending_;
  std::vector<DiagnosisOutcome> outcomes_;
  TriggerDeduper deduper_;
  SchedulerStats stats_;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_SCHEDULER_H_
