#ifndef PINSQL_ONLINE_SCHEDULER_H_
#define PINSQL_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <map>
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

/// Repair accounting of one diagnosis (merged into the fleet's counters
/// by the caller; kept separate so concurrent fleet diagnoses don't race on
/// a shared stats struct).
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

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_SCHEDULER_H_
