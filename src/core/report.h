#ifndef PINSQL_CORE_REPORT_H_
#define PINSQL_CORE_REPORT_H_

#include <string>
#include <vector>

#include "anomaly/phenomenon.h"
#include "core/diagnoser.h"
#include "logstore/log_store.h"
#include "repair/events.h"
#include "repair/rule_engine.h"
#include "util/json.h"

namespace pinsql::core {

/// Assembled diagnosis report: what a DAS-style console (or a paging
/// notification) renders for one anomaly case. Carries the rankings with
/// resolved template texts, the triggering phenomena and any repair
/// suggestions.
struct DiagnosisReport {
  struct RankedTemplate {
    uint64_t sql_id = 0;
    std::string sql_id_hex;
    std::string template_text;
    double score = 0.0;
  };

  int64_t anomaly_start_sec = 0;
  int64_t anomaly_end_sec = 0;
  std::vector<std::string> phenomena;  // "rule [start, end) severity"
  std::vector<RankedTemplate> hsqls;
  std::vector<RankedTemplate> rsqls;
  std::vector<std::string> suggestions;
  double diagnosis_seconds = 0.0;
  bool verification_fallback = false;
  /// Telemetry health of the inputs this diagnosis consumed: faults seen,
  /// stages degraded, and the resulting confidence caveat.
  DataQuality data_quality;
  /// Supervised-repair audit trail for this case (attempts, outcomes,
  /// retries, rollbacks, breaker transitions). Populated by the caller
  /// from RepairSupervisor::events() when actions were executed.
  std::vector<repair::RepairEvent> repair_events;
  /// Per-stage wall times and counters of the diagnosis that produced this
  /// report (DESIGN.md §7). Always present, even under PINSQL_DISABLE_OBS.
  obs::PipelineTrace trace;

  /// Machine-readable rendering (stable key order). Strings (template
  /// texts, phenomena, notes, event details) survive Dump -> Json::Parse
  /// byte-exactly, including quotes, backslashes and control characters.
  Json ToJson() const;
  /// Terminal-friendly multi-line rendering.
  std::string ToText() const;
};

/// Builds the report from a finished diagnosis. `catalog` resolves SQL ids
/// to template texts (unknown ids render as "<unknown>"); `top_k` bounds
/// both rankings.
DiagnosisReport BuildReport(
    const DiagnosisResult& result, const LogStore& catalog,
    const std::vector<anomaly::Phenomenon>& phenomena,
    int64_t anomaly_start_sec, int64_t anomaly_end_sec,
    const std::vector<repair::Suggestion>& suggestions, size_t top_k = 5);

}  // namespace pinsql::core

#endif  // PINSQL_CORE_REPORT_H_
