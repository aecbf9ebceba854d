/// End-to-end integration tests: simulate a full anomaly case through the
/// dbsim + pipeline substrates and check that PinSQL's diagnosis pinpoints
/// the injected root cause, for every anomaly category the paper names.

#include <gtest/gtest.h>

#include "core/diagnoser.h"
#include "eval/case_generator.h"
#include "eval/runner.h"
#include "pipeline/template_metrics.h"
#include "repair/rule_engine.h"

namespace pinsql {
namespace {

class EndToEndTest
    : public ::testing::TestWithParam<workload::AnomalyType> {};

TEST_P(EndToEndTest, PinpointsInjectedRootCauseInTop5) {
  eval::CaseGenOptions options;
  options.type = GetParam();
  options.seed = 77;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);

  // Mild injections occasionally evade the detector (the diagnosis then
  // falls back to the injected period); the pinpointing assertions below
  // must hold either way.
  ASSERT_FALSE(data.rsql_truth.empty());
  ASSERT_FALSE(data.hsql_truth.empty());

  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);
  const StatusOr<core::DiagnosisResult> status_or =
      core::Diagnose(input, core::DiagnoserOptions{});
  ASSERT_TRUE(status_or.ok()) << status_or.status().ToString();
  const core::DiagnosisResult& result = *status_or;

  // R-SQL within top-5 and H-SQL within top-5 (the paper reports ~84 % and
  // ~99 % Hits@5; a fixed seed must not flake).
  const int r_rank = eval::RsqlRank(result.rsql.ranking, data);
  const int h_rank =
      eval::HsqlRank(result.TopHsql(result.hsql_ranking.size()), data);
  EXPECT_GE(r_rank, 1);
  EXPECT_LE(r_rank, 5);
  EXPECT_GE(h_rank, 1);
  EXPECT_LE(h_rank, 5);
}

INSTANTIATE_TEST_SUITE_P(AllAnomalyTypes, EndToEndTest,
                         ::testing::Values(
                             workload::AnomalyType::kBusinessSpike,
                             workload::AnomalyType::kPoorSql,
                             workload::AnomalyType::kMdlLock,
                             workload::AnomalyType::kRowLock));

TEST(EndToEndTest, CaseGenerationIsDeterministic) {
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kPoorSql;
  options.seed = 99;
  const eval::AnomalyCaseData a = eval::GenerateCase(options);
  const eval::AnomalyCaseData b = eval::GenerateCase(options);
  EXPECT_EQ(a.logs.size(), b.logs.size());
  EXPECT_EQ(a.rsql_truth, b.rsql_truth);
  EXPECT_EQ(a.hsql_truth, b.hsql_truth);
  EXPECT_EQ(a.metrics.active_session.values(),
            b.metrics.active_session.values());
}

TEST(EndToEndTest, GroundTruthTemplatesExistInCatalog) {
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kRowLock;
  options.seed = 3;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  for (uint64_t id : data.rsql_truth) {
    EXPECT_NE(data.logs.FindTemplate(id), nullptr);
  }
  for (uint64_t id : data.hsql_truth) {
    EXPECT_NE(data.logs.FindTemplate(id), nullptr);
  }
}

TEST(EndToEndTest, HistoryProvidedForPreexistingTemplatesOnly) {
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kPoorSql;
  options.seed = 4;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  // The injected poor SQL is new: no history.
  EXPECT_EQ(data.history.ExecutionHistory(data.rsql_truth[0], 1), nullptr);
  // A regular template has all three windows.
  for (const auto& tpl : data.workload.templates) {
    if (tpl.weight > 0.0) {
      for (int days : {1, 3, 7}) {
        EXPECT_NE(data.history.ExecutionHistory(tpl.sql_id, days), nullptr);
      }
      break;
    }
  }
}

TEST(EndToEndTest, DiagnosisTimingsPopulated) {
  eval::CaseGenOptions options;
  options.seed = 5;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  const StatusOr<core::DiagnosisResult> status_or =
      core::Diagnose(eval::MakeDiagnosisInput(data),
                     core::DiagnoserOptions{});
  ASSERT_TRUE(status_or.ok()) << status_or.status().ToString();
  const core::DiagnosisResult& result = *status_or;
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.estimate_seconds, 0.0);
  EXPECT_LE(result.estimate_seconds + result.hsql_seconds +
                result.cluster_seconds + result.verify_seconds,
            result.total_seconds * 1.01);
  EXPECT_EQ(result.te_sec, std::min(data.anomaly_end(),
                                    data.window_end_sec));
}

TEST(EndToEndTest, RepairSuggestionTargetsRootCause) {
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
  // A poor SQL burning CPU with huge examined_rows must draw an optimize
  // suggestion aimed at it.
  bool optimize_on_truth = false;
  for (const auto& s : suggestions) {
    if (s.action.type == repair::ActionType::kOptimize &&
        s.sql_id == data.rsql_truth[0]) {
      optimize_on_truth = true;
    }
  }
  EXPECT_TRUE(optimize_on_truth);
}

TEST(EndToEndTest, BaselinesFindHsqlButMissRsqlOnLockCase) {
  // The paper's core claim: Top-SQL baselines surface the *affected*
  // queries, not the root cause, on lock anomalies.
  eval::CaseGenOptions options;
  options.type = workload::AnomalyType::kMdlLock;
  options.seed = 77;
  const eval::AnomalyCaseData data = eval::GenerateCase(options);
  const auto metrics = pinsql::AggregateWindow(
      data.logs, data.window_start_sec, data.window_end_sec);
  const auto tops = baselines::RankAllTopSql(metrics, data.anomaly_start(),
                                             data.anomaly_end());
  const int rt_h = eval::HsqlRank(tops.by_response_time, data);
  const int rt_r = eval::RsqlRank(tops.by_response_time, data);
  EXPECT_GE(rt_h, 1);
  EXPECT_LE(rt_h, 5);
  // The single DDL query cannot top any volume metric.
  EXPECT_TRUE(rt_r == 0 || rt_r > 5);
}

}  // namespace
}  // namespace pinsql
