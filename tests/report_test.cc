#include <gtest/gtest.h>

#include "anomaly/pettitt.h"
#include "core/report.h"
#include "eval/case_generator.h"
#include "eval/runner.h"
#include "repair/rule_engine.h"
#include "util/rng.h"

namespace pinsql {
namespace {

// ---------------------------------------------------------------- Pettitt

TEST(PettittTest, DetectsObviousLevelShift) {
  std::vector<double> x;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) x.push_back(rng.Normal(10, 1));
  for (int i = 0; i < 100; ++i) x.push_back(rng.Normal(30, 1));
  const anomaly::PettittResult result = anomaly::PettittTest(x);
  EXPECT_TRUE(result.significant());
  EXPECT_TRUE(result.shifted_up());
  EXPECT_NEAR(static_cast<double>(result.change_index), 99.0, 3.0);
  EXPECT_NEAR(result.mean_before, 10.0, 0.6);
  EXPECT_NEAR(result.mean_after, 30.0, 0.6);
}

TEST(PettittTest, DetectsDownShift) {
  std::vector<double> x;
  Rng rng(2);
  for (int i = 0; i < 80; ++i) x.push_back(rng.Normal(50, 2));
  for (int i = 0; i < 80; ++i) x.push_back(rng.Normal(20, 2));
  const anomaly::PettittResult result = anomaly::PettittTest(x);
  EXPECT_TRUE(result.significant());
  EXPECT_FALSE(result.shifted_up());
}

TEST(PettittTest, StationarySeriesNotSignificant) {
  std::vector<double> x;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) x.push_back(rng.Normal(10, 2));
  EXPECT_FALSE(anomaly::PettittTest(x).significant());
}

TEST(PettittTest, DegenerateInputs) {
  EXPECT_FALSE(anomaly::PettittTest(std::vector<double>{}).significant());
  EXPECT_FALSE(anomaly::PettittTest(std::vector<double>{1.0}).significant());
  EXPECT_FALSE(
      anomaly::PettittTest(std::vector<double>(50, 3.0)).significant());
}

TEST(PettittTest, TimeSeriesOverload) {
  TimeSeries ts(100, 1, 60);
  for (size_t i = 0; i < 60; ++i) ts[i] = i < 30 ? 1.0 : 100.0;
  const anomaly::PettittResult result = anomaly::PettittTest(ts);
  EXPECT_TRUE(result.significant());
  EXPECT_EQ(result.change_index, 29u);
}

class PettittPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PettittPropertyTest, ShiftMagnitudeDrivesSignificance) {
  Rng rng(GetParam());
  std::vector<double> base;
  for (int i = 0; i < 120; ++i) base.push_back(rng.Normal(10, 1));
  // Small shift (0.1 sigma): not significant; large shift (10 sigma): is.
  std::vector<double> small = base;
  std::vector<double> large = base;
  for (int i = 60; i < 120; ++i) {
    small[static_cast<size_t>(i)] += 0.1;
    large[static_cast<size_t>(i)] += 10.0;
  }
  EXPECT_FALSE(anomaly::PettittTest(small).significant(0.01));
  EXPECT_TRUE(anomaly::PettittTest(large).significant(0.01));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PettittPropertyTest,
                         ::testing::Values(7, 8, 9, 10));

// ----------------------------------------------------------------- Report

TEST(ReportTest, BuildsFromRealDiagnosis) {
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kPoorSql;
  options.seed = 77;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);
  const StatusOr<core::DiagnosisResult> status_or =
      core::Diagnose(input, core::DiagnoserOptions{});
  ASSERT_TRUE(status_or.ok()) << status_or.status().ToString();
  const core::DiagnosisResult& result = *status_or;
  const auto suggestions = repair::RepairRuleEngine::Default().Suggest(
      data.phenomena, result.rsql.ranking, result.metrics,
      input.anomaly_start_sec, input.anomaly_end_sec);

  const core::DiagnosisReport report = core::BuildReport(
      result, data.logs, data.phenomena, input.anomaly_start_sec,
      input.anomaly_end_sec, suggestions, /*top_k=*/3);

  EXPECT_EQ(report.anomaly_start_sec, input.anomaly_start_sec);
  EXPECT_LE(report.rsqls.size(), 3u);
  ASSERT_FALSE(report.rsqls.empty());
  EXPECT_EQ(report.rsqls[0].sql_id_hex.size(), 16u);
  EXPECT_NE(report.rsqls[0].template_text, "<unknown>");
  EXPECT_FALSE(report.phenomena.empty());

  const std::string text = report.ToText();
  EXPECT_NE(text.find("root-cause SQLs:"), std::string::npos);
  EXPECT_NE(text.find(report.rsqls[0].sql_id_hex), std::string::npos);
}

TEST(ReportTest, JsonRoundTripsThroughParser) {
  core::DiagnosisReport report;
  report.anomaly_start_sec = 100;
  report.anomaly_end_sec = 200;
  report.diagnosis_seconds = 1.5;
  report.phenomena = {"active_session.spike [100, 200) severity 9.0"};
  core::DiagnosisReport::RankedTemplate t;
  t.sql_id = 0xAB;
  t.sql_id_hex = "00000000000000AB";
  t.template_text = "SELECT * FROM t WHERE id = ?";
  t.score = 0.9;
  report.hsqls.push_back(t);
  report.rsqls.push_back(t);
  report.suggestions = {"[cpu_usage.spike] optimize sql=..AB"};

  const Json json = report.ToJson();
  const auto parsed = Json::Parse(json.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->GetNumberOr("anomaly_start", 0), 100.0);
  const Json* rsqls = parsed->Find("rsqls");
  ASSERT_NE(rsqls, nullptr);
  ASSERT_EQ(rsqls->AsArray().size(), 1u);
  EXPECT_EQ(rsqls->AsArray()[0].GetStringOr("sql_id", ""),
            "00000000000000AB");
}

TEST(ReportTest, RepairEventsSerializeIntoJsonAndText) {
  core::DiagnosisReport report;
  repair::RepairEvent applied;
  applied.time_ms = 900'000.0;
  applied.kind = repair::RepairEventKind::kApplied;
  applied.action = repair::ActionType::kThrottle;
  applied.sql_id = 0xAB;
  applied.ticket = 1;
  applied.attempt = 2;
  applied.detail = "partial application 0.60";
  repair::RepairEvent rolled = applied;
  rolled.time_ms = 1'020'000.0;
  rolled.kind = repair::RepairEventKind::kRolledBack;
  rolled.attempt = 0;
  rolled.detail = "no improvement: metric 90.0 vs baseline 95.0";
  report.repair_events = {applied, rolled};

  const auto parsed = Json::Parse(report.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  const Json* events = parsed->Find("repair_events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 2u);
  EXPECT_EQ(events->AsArray()[0].GetStringOr("kind", ""), "applied");
  EXPECT_EQ(events->AsArray()[0].GetStringOr("sql_id", ""),
            "00000000000000AB");
  EXPECT_DOUBLE_EQ(events->AsArray()[0].GetNumberOr("attempt", 0), 2.0);
  EXPECT_EQ(events->AsArray()[1].GetStringOr("kind", ""), "rolled_back");

  const std::string text = report.ToText();
  EXPECT_NE(text.find("repair audit trail:"), std::string::npos);
  EXPECT_NE(text.find("rolled_back"), std::string::npos);

  // No events: the section stays out of the rendering entirely.
  core::DiagnosisReport quiet;
  EXPECT_EQ(quiet.ToText().find("repair audit trail"), std::string::npos);
}

/// The strings of a JSON array of strings (empty when `json` is not one).
std::vector<std::string> Strings(const Json* json) {
  std::vector<std::string> out;
  if (json == nullptr || !json->is_array()) return out;
  for (const Json& item : json->AsArray()) {
    out.push_back(item.is_string() ? item.AsString() : "<not a string>");
  }
  return out;
}

TEST(ReportTest, ToJsonRoundTripsAdversarialStrings) {
  // Template texts, notes and event details can carry every character the
  // JSON escaper must handle: quotes, backslashes, newlines, tabs and raw
  // control bytes. Every one must survive ToJson -> Dump -> Json::Parse
  // byte-exactly.
  const std::string adversarial =
      "SELECT \"x\\\"y\" FROM `t` WHERE c = 'it''s \\' ok'\n\t-- \x01\x1f /";

  core::DiagnosisReport report;
  report.anomaly_start_sec = 100;
  report.anomaly_end_sec = 200;
  report.diagnosis_seconds = 1.5;
  report.verification_fallback = true;
  report.phenomena = {"active_session.spike [100, 200) severity 9.0",
                      adversarial};
  core::DiagnosisReport::RankedTemplate t;
  t.sql_id = 0xAB;
  t.sql_id_hex = "00000000000000AB";
  t.template_text = adversarial;
  t.score = 0.9;
  report.hsqls.push_back(t);
  report.rsqls.push_back(t);
  report.suggestions = {"[rule\"with\\quotes]\nthrottle"};
  report.data_quality.confidence = 0.75;
  report.data_quality.session_points = 600;
  report.data_quality.session_gap_points = 3;
  report.data_quality.lookback_truncated = true;
  report.data_quality.notes = {adversarial, "plain note"};
  repair::RepairEvent event;
  event.time_ms = 900'000.0;
  event.kind = repair::RepairEventKind::kRolledBack;
  event.action = repair::ActionType::kThrottle;
  event.sql_id = 0xAB;
  event.ticket = 7;
  event.attempt = 2;
  event.detail = adversarial;
  report.repair_events = {event};
  report.trace.total_seconds = 1.5;
  report.trace.stages.push_back(
      obs::StageTrace{"session_estimation", 1.0, {{"session_points", 600}}});

  const StatusOr<Json> parsed = Json::Parse(report.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& back = *parsed;
  EXPECT_EQ(back, report.ToJson());

  EXPECT_EQ(back.GetNumberOr("anomaly_start", 0), 100);
  EXPECT_EQ(back.GetNumberOr("anomaly_end", 0), 200);
  EXPECT_DOUBLE_EQ(back.GetNumberOr("diagnosis_seconds", 0), 1.5);
  EXPECT_TRUE(back.GetBoolOr("verification_fallback", false));
  EXPECT_EQ(Strings(back.Find("phenomena")), report.phenomena);
  for (const char* key : {"hsqls", "rsqls"}) {
    const Json* ranked = back.Find(key);
    ASSERT_NE(ranked, nullptr) << key;
    ASSERT_EQ(ranked->AsArray().size(), 1u) << key;
    const Json& entry = ranked->AsArray()[0];
    EXPECT_EQ(entry.GetStringOr("sql_id", ""), "00000000000000AB") << key;
    EXPECT_EQ(entry.GetStringOr("template", ""), adversarial) << key;
    EXPECT_DOUBLE_EQ(entry.GetNumberOr("score", 0), 0.9) << key;
  }
  EXPECT_EQ(Strings(back.Find("suggestions")), report.suggestions);
  const Json* quality = back.Find("data_quality");
  ASSERT_NE(quality, nullptr);
  EXPECT_DOUBLE_EQ(quality->GetNumberOr("confidence", 0), 0.75);
  EXPECT_EQ(quality->GetNumberOr("session_points", 0), 600);
  EXPECT_EQ(quality->GetNumberOr("session_gap_points", 0), 3);
  EXPECT_TRUE(quality->GetBoolOr("lookback_truncated", false));
  EXPECT_EQ(Strings(quality->Find("notes")), report.data_quality.notes);
  const Json* events = back.Find("repair_events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 1u);
  const Json& back_event = events->AsArray()[0];
  EXPECT_EQ(back_event.GetStringOr("kind", ""),
            repair::RepairEventKindName(repair::RepairEventKind::kRolledBack));
  EXPECT_EQ(back_event.GetStringOr("sql_id", ""), "00000000000000AB");
  EXPECT_EQ(back_event.GetNumberOr("ticket", 0), 7);
  EXPECT_EQ(back_event.GetStringOr("detail", ""), adversarial);
  const Json* trace = back.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(*trace, report.trace.ToJson());
}

TEST(ReportTest, TraceBlockAppearsInRealDiagnosisJson) {
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kPoorSql;
  options.seed = 77;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);
  const StatusOr<core::DiagnosisResult> status_or =
      core::Diagnose(input, core::DiagnoserOptions{});
  ASSERT_TRUE(status_or.ok()) << status_or.status().ToString();
  const core::DiagnosisReport report =
      core::BuildReport(*status_or, data.logs, data.phenomena,
                        input.anomaly_start_sec, input.anomaly_end_sec, {});

  // The per-stage trace is always populated — even under
  // PINSQL_DISABLE_OBS — so the report's trace block never disappears.
  const StatusOr<Json> parsed = Json::Parse(report.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  const Json* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(*trace, report.trace.ToJson());
  const Json* stages = trace->Find("stages");
  ASSERT_NE(stages, nullptr);
  std::vector<std::string> names;
  for (const Json& stage : stages->AsArray()) {
    names.push_back(stage.GetStringOr("name", ""));
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "session_estimation", "window_aggregation",
                       "hsql_scoring", "rsql_clustering",
                       "rsql_verification"}));
  const Json* counters = stages->AsArray()[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->GetNumberOr("session_points", 0), 0);
  EXPECT_GT(trace->GetNumberOr("total_seconds", 0), 0.0);
  const obs::StageTrace* session = report.trace.Find("session_estimation");
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->counters.at("session_points"), 0);

  // ToText renders the same stage table.
  EXPECT_NE(report.ToText().find("stage timings:"), std::string::npos);
  EXPECT_NE(report.ToText().find("session_estimation"), std::string::npos);
}

TEST(ReportTest, UnknownTemplatesRenderPlaceholders) {
  core::DiagnosisResult result;
  result.rsql.ranking = {123456789};
  LogStore empty_catalog;
  const core::DiagnosisReport report =
      core::BuildReport(result, empty_catalog, {}, 0, 10, {});
  ASSERT_EQ(report.rsqls.size(), 1u);
  EXPECT_EQ(report.rsqls[0].template_text, "<unknown>");
}

}  // namespace
}  // namespace pinsql
