#include "core/report.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "ts/stats.h"
#include "util/strings.h"

namespace pinsql::core {

namespace {

DiagnosisReport::RankedTemplate Resolve(const LogStore& catalog,
                                        uint64_t sql_id, double score) {
  DiagnosisReport::RankedTemplate out;
  out.sql_id = sql_id;
  out.sql_id_hex = HashToHex(sql_id);
  const TemplateCatalogEntry* entry = catalog.FindTemplate(sql_id);
  out.template_text = entry != nullptr ? entry->template_text : "<unknown>";
  out.score = score;
  return out;
}

Json RankedToJson(const DiagnosisReport::RankedTemplate& t) {
  Json obj = Json::MakeObject();
  obj.Set("sql_id", t.sql_id_hex);
  obj.Set("template", t.template_text);
  obj.Set("score", t.score);
  return obj;
}

}  // namespace

DiagnosisReport BuildReport(
    const DiagnosisResult& result, const LogStore& catalog,
    const std::vector<anomaly::Phenomenon>& phenomena,
    int64_t anomaly_start_sec, int64_t anomaly_end_sec,
    const std::vector<repair::Suggestion>& suggestions, size_t top_k) {
  DiagnosisReport report;
  report.anomaly_start_sec = anomaly_start_sec;
  report.anomaly_end_sec = anomaly_end_sec;
  report.diagnosis_seconds = result.total_seconds;
  report.verification_fallback = result.rsql.verification_fallback;
  report.data_quality = result.data_quality;
  report.trace = result.trace;

  for (const anomaly::Phenomenon& p : phenomena) {
    report.phenomena.push_back(
        StrFormat("%s [%lld, %lld) severity %.1f", p.rule.c_str(),
                  static_cast<long long>(p.start_sec),
                  static_cast<long long>(p.end_sec), p.severity));
  }
  for (size_t i = 0; i < std::min(top_k, result.hsql_ranking.size()); ++i) {
    report.hsqls.push_back(Resolve(catalog, result.hsql_ranking[i].sql_id,
                                   result.hsql_ranking[i].impact));
  }
  for (size_t i = 0; i < std::min(top_k, result.rsql.ranking.size()); ++i) {
    report.rsqls.push_back(
        Resolve(catalog, result.rsql.ranking[i],
                static_cast<double>(result.rsql.ranking.size() - i)));
  }
  for (const repair::Suggestion& s : suggestions) {
    report.suggestions.push_back(
        StrFormat("[%s] %s", s.matched_rule.c_str(),
                  s.action.ToString().c_str()));
  }
  return report;
}

Json DiagnosisReport::ToJson() const {
  Json obj = Json::MakeObject();
  obj.Set("anomaly_start", anomaly_start_sec);
  obj.Set("anomaly_end", anomaly_end_sec);
  obj.Set("diagnosis_seconds", diagnosis_seconds);
  obj.Set("verification_fallback", verification_fallback);
  Json phen = Json::MakeArray();
  for (const std::string& p : phenomena) phen.Append(p);
  obj.Set("phenomena", std::move(phen));
  Json h = Json::MakeArray();
  for (const RankedTemplate& t : hsqls) h.Append(RankedToJson(t));
  obj.Set("hsqls", std::move(h));
  Json r = Json::MakeArray();
  for (const RankedTemplate& t : rsqls) r.Append(RankedToJson(t));
  obj.Set("rsqls", std::move(r));
  Json s = Json::MakeArray();
  for (const std::string& line : suggestions) s.Append(line);
  obj.Set("suggestions", std::move(s));
  Json quality = Json::MakeObject();
  quality.Set("confidence", data_quality.confidence);
  quality.Set("degraded", data_quality.degraded());
  quality.Set("session_points",
              static_cast<int64_t>(data_quality.session_points));
  quality.Set("session_gap_points",
              static_cast<int64_t>(data_quality.session_gap_points));
  quality.Set("helper_gap_points",
              static_cast<int64_t>(data_quality.helper_gap_points));
  quality.Set("helpers_dropped",
              static_cast<int64_t>(data_quality.helpers_dropped));
  quality.Set("metric_points_sanitized",
              static_cast<int64_t>(data_quality.metric_points_sanitized));
  quality.Set("log_records",
              static_cast<int64_t>(data_quality.log_records));
  quality.Set("lookback_truncated", data_quality.lookback_truncated);
  quality.Set("anomaly_tail_truncated",
              data_quality.anomaly_tail_truncated);
  quality.Set("history_windows_checked",
              static_cast<int64_t>(data_quality.history_windows_checked));
  quality.Set("history_windows_missing",
              static_cast<int64_t>(data_quality.history_windows_missing));
  quality.Set("history_windows_truncated",
              static_cast<int64_t>(data_quality.history_windows_truncated));
  Json notes = Json::MakeArray();
  for (const std::string& note : data_quality.notes) notes.Append(note);
  quality.Set("notes", std::move(notes));
  obj.Set("data_quality", std::move(quality));
  Json events = Json::MakeArray();
  for (const repair::RepairEvent& e : repair_events) {
    events.Append(e.ToJson());
  }
  obj.Set("repair_events", std::move(events));
  obj.Set("trace", trace.ToJson());
  return obj;
}

std::string DiagnosisReport::ToText() const {
  std::string out = StrFormat(
      "PinSQL diagnosis for anomaly [%lld, %lld) (%.2fs)\n",
      static_cast<long long>(anomaly_start_sec),
      static_cast<long long>(anomaly_end_sec), diagnosis_seconds);
  out += "phenomena:\n";
  for (const std::string& p : phenomena) out += "  - " + p + "\n";
  out += "high-impact SQLs:\n";
  for (size_t i = 0; i < hsqls.size(); ++i) {
    out += StrFormat("  %zu. [%s] impact=%+.2f %s\n", i + 1,
                     hsqls[i].sql_id_hex.c_str(), hsqls[i].score,
                     hsqls[i].template_text.c_str());
  }
  out += "root-cause SQLs:\n";
  for (size_t i = 0; i < rsqls.size(); ++i) {
    out += StrFormat("  %zu. [%s] %s\n", i + 1,
                     rsqls[i].sql_id_hex.c_str(),
                     rsqls[i].template_text.c_str());
  }
  if (verification_fallback) {
    out += "  (note: history verification widened beyond the selected "
           "clusters)\n";
  }
  out += "suggested actions:\n";
  if (suggestions.empty()) out += "  (none)\n";
  for (const std::string& s : suggestions) out += "  - " + s + "\n";
  if (!repair_events.empty()) {
    out += "repair audit trail:\n";
    for (const repair::RepairEvent& e : repair_events) {
      out += "  * " + e.ToString() + "\n";
    }
  }
  if (!trace.stages.empty()) {
    out += "stage timings:\n";
    for (const obs::StageTrace& s : trace.stages) {
      out += StrFormat("  %-20s %9.4fs\n", s.name.c_str(), s.seconds);
    }
  }
  if (data_quality.degraded()) {
    out += StrFormat("data quality: DEGRADED (confidence %.2f)\n",
                     data_quality.confidence);
    for (const std::string& note : data_quality.notes) {
      out += "  ! " + note + "\n";
    }
  } else {
    out += "data quality: clean\n";
  }
  return out;
}

}  // namespace pinsql::core
