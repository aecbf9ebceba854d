#include "online/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pinsql::online {

bool TriggerDeduper::Accept(const AnomalyTrigger& trigger) {
  auto it = last_activity_.find(trigger.instance_id);
  if (it != last_activity_.end() &&
      trigger.onset_sec <= it->second + cooldown_sec_) {
    if (trigger.trigger_sec > it->second) it->second = trigger.trigger_sec;
    return false;
  }
  if (it == last_activity_.end()) {
    last_activity_.emplace(trigger.instance_id, trigger.trigger_sec);
  } else if (trigger.trigger_sec > it->second) {
    it->second = trigger.trigger_sec;
  }
  return true;
}

std::vector<std::pair<uint32_t, int64_t>> TriggerDeduper::ExportActivity()
    const {
  return {last_activity_.begin(), last_activity_.end()};
}

void TriggerDeduper::ImportActivity(
    const std::vector<std::pair<uint32_t, int64_t>>& pairs) {
  last_activity_.clear();
  for (const auto& [instance_id, sec] : pairs) {
    last_activity_[instance_id] = sec;
  }
}

void TriggerDeduper::NoteActivity(uint32_t instance_id, int64_t sec) {
  // Extends an existing incident's horizon only. Screen activity before
  // any trigger fired must not anchor the cooldown — it would suppress the
  // very trigger that confirms the incident (the screen flags a few
  // seconds before Pettitt can confirm).
  auto it = last_activity_.find(instance_id);
  if (it != last_activity_.end() && sec > it->second) it->second = sec;
}

namespace {

void ZeroTimings(core::DiagnosisResult* result) {
  result->estimate_seconds = 0.0;
  result->hsql_seconds = 0.0;
  result->cluster_seconds = 0.0;
  result->verify_seconds = 0.0;
  result->total_seconds = 0.0;
  result->trace.total_seconds = 0.0;
  for (obs::StageTrace& stage : result->trace.stages) stage.seconds = 0.0;
}

}  // namespace

DiagnosisOutcome RunWindowedDiagnosis(const WindowedDiagnosisContext& ctx,
                                      const AnomalyTrigger& trigger,
                                      int64_t window_end_sec,
                                      DiagnosisSideStats* side) {
  const SchedulerOptions& options = *ctx.options;
  DiagnosisOutcome outcome;
  outcome.trigger = trigger;

  const int64_t a_s = trigger.onset_sec;
  const int64_t a_e = window_end_sec;
  const int64_t t0 = a_s - options.diagnoser.delta_s_sec;
  // The window's series hold one slot per second, and the archive keeps 3
  // days: a longer window (only a corrupt trigger has one) is refused
  // before anything is allocated for it.
  if (a_e - t0 > LogStore::kRetentionMs / 1000) {
    outcome.ok = false;
    outcome.error = "diagnosis window longer than the retention horizon";
    PINSQL_OBS_COUNT("online.diagnoses_failed", 1);
    return outcome;
  }

  // Window-local log store: a consistent point-in-time copy of the archive
  // records the diagnoser will scan, taken while ingest threads keep
  // appending. The catalog is copied so BuildReport resolves texts.
  LogStore window_logs;
  window_logs.ReplaceRecords(
      ctx.archive->SnapshotRange(t0 * 1000, a_e * 1000));
  for (const auto& [sql_id, entry] : ctx.archive->catalog()) {
    window_logs.RegisterTemplate(sql_id, entry);
  }

  WindowMetrics metrics = ctx.ingestor->SnapshotMetrics(t0, a_e);

  core::DiagnosisInput input;
  input.logs = &window_logs;
  input.active_session = std::move(metrics.active_session);
  input.helper_metrics = std::move(metrics.helpers);
  input.anomaly_start_sec = a_s;
  input.anomaly_end_sec = a_e;
  input.history = ctx.history;

  auto result = core::Diagnose(input, options.diagnoser);
  if (!result.ok()) {
    outcome.ok = false;
    outcome.error = result.status().ToString();
    PINSQL_OBS_COUNT("online.diagnoses_failed", 1);
    return outcome;
  }
  if (options.zero_timings) ZeroTimings(&result.value());

  std::vector<anomaly::Phenomenon> phenomena;
  anomaly::Phenomenon phenomenon;
  phenomenon.rule = "active_session.spike";
  phenomenon.start_sec = a_s;
  phenomenon.end_sec = a_e;
  phenomenon.severity = trigger.severity;
  phenomena.push_back(phenomenon);

  outcome.confirmed_rsqls = result->TopRsql(options.top_k);
  std::vector<repair::Suggestion> suggestions = ctx.rules->Suggest(
      phenomena, outcome.confirmed_rsqls, result->metrics, a_s, a_e,
      std::max<size_t>(options.max_repairs, 1));

  size_t events_before = 0;
  if (ctx.supervisor != nullptr && options.auto_repair) {
    events_before = ctx.supervisor->events().size();
    const double now_ms = static_cast<double>(a_e) * 1000.0;
    // Baseline for post-action verification: the latest observed
    // active-session sample (negative skips verification when telemetry is
    // out).
    double observed = -1.0;
    if (auto sample = ctx.ingestor->SampleAt(a_e - 1);
        sample.has_value() && std::isfinite(sample->active_session)) {
      observed = sample->active_session;
    }
    size_t applied = 0;
    for (const repair::Suggestion& suggestion : suggestions) {
      if (applied >= options.max_repairs) break;
      auto apply = ctx.supervisor->Apply(suggestion.action, now_ms, observed);
      if (apply.ok() &&
          apply->code == repair::ApplyOutcome::Code::kApplied) {
        ++applied;
        if (side != nullptr) ++side->repairs_applied;
        PINSQL_OBS_COUNT("online.repairs_applied", 1);
        if (outcome.ttr_sec < 0.0) {
          outcome.ttr_sec =
              apply->applied_ms / 1000.0 - static_cast<double>(a_s);
        }
      } else {
        if (side != nullptr) ++side->repairs_rejected;
        PINSQL_OBS_COUNT("online.repairs_rejected", 1);
      }
    }
    outcome.repairs_applied = applied;
  }

  outcome.report =
      core::BuildReport(result.value(), *ctx.archive, phenomena, a_s, a_e,
                        suggestions, options.top_k);
  if (ctx.supervisor != nullptr && options.auto_repair) {
    const auto& events = ctx.supervisor->events();
    outcome.report.repair_events.assign(events.begin() + events_before,
                                        events.end());
  }

  outcome.ok = true;
  PINSQL_OBS_COUNT("online.diagnoses", 1);
  return outcome;
}

}  // namespace pinsql::online
