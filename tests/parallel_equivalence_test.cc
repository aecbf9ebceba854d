// Equivalence property suite for the parallel diagnosis engine: for
// randomized workloads, every parallel path (Diagnose with num_threads>1,
// parallel AggregateWindow) must produce output *identical* — bit-for-bit,
// not approximately — to its serial counterpart. All randomness is seeded
// explicitly so failures reproduce.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/diagnoser.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "eval/case_generator.h"
#include "eval/runner.h"
#include "pipeline/template_metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pinsql {
namespace {

void ExpectSeriesEq(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.start_time(), b.start_time());
  ASSERT_EQ(a.interval_sec(), b.interval_sec());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles: bit-identical is the contract, not "close".
    ASSERT_EQ(a[i], b[i]) << "series diverges at index " << i;
  }
}

void ExpectStoresEq(const TemplateMetricsStore& a,
                    const TemplateMetricsStore& b) {
  ASSERT_EQ(a.start_sec(), b.start_sec());
  ASSERT_EQ(a.end_sec(), b.end_sec());
  ASSERT_EQ(a.interval_sec(), b.interval_sec());
  ASSERT_EQ(a.SqlIdsSorted(), b.SqlIdsSorted());
  for (const uint64_t id : a.SqlIdsSorted()) {
    const TemplateSeries* sa = a.Find(id);
    const TemplateSeries* sb = b.Find(id);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    ExpectSeriesEq(sa->execution_count, sb->execution_count);
    ExpectSeriesEq(sa->total_response_ms, sb->total_response_ms);
    ExpectSeriesEq(sa->examined_rows, sb->examined_rows);
  }
  ExpectSeriesEq(a.TotalResponseAcrossTemplates(),
                 b.TotalResponseAcrossTemplates());
}

void ExpectDiagnosisEq(const core::DiagnosisResult& serial,
                       const core::DiagnosisResult& parallel) {
  // H-SQL ranking: ids and every score component, in order.
  ASSERT_EQ(serial.hsql_ranking.size(), parallel.hsql_ranking.size());
  for (size_t i = 0; i < serial.hsql_ranking.size(); ++i) {
    const core::HsqlScore& s = serial.hsql_ranking[i];
    const core::HsqlScore& p = parallel.hsql_ranking[i];
    ASSERT_EQ(s.sql_id, p.sql_id) << "H-SQL rank " << i;
    ASSERT_EQ(s.impact, p.impact) << "H-SQL rank " << i;
    ASSERT_EQ(s.trend, p.trend) << "H-SQL rank " << i;
    ASSERT_EQ(s.scale, p.scale) << "H-SQL rank " << i;
    ASSERT_EQ(s.scale_trend, p.scale_trend) << "H-SQL rank " << i;
  }

  // R-SQL stage: ranking, clusters, selection, verification.
  EXPECT_EQ(serial.rsql.ranking, parallel.rsql.ranking);
  EXPECT_EQ(serial.rsql.clusters, parallel.rsql.clusters);
  EXPECT_EQ(serial.rsql.selected_clusters, parallel.rsql.selected_clusters);
  EXPECT_EQ(serial.rsql.verified, parallel.rsql.verified);
  EXPECT_EQ(serial.rsql.verification_fallback,
            parallel.rsql.verification_fallback);

  // Session estimate and aggregated window metrics.
  ExpectSeriesEq(serial.estimate.total, parallel.estimate.total);
  ASSERT_EQ(serial.estimate.per_template.size(),
            parallel.estimate.per_template.size());
  for (const auto& [id, series] : serial.estimate.per_template) {
    const auto it = parallel.estimate.per_template.find(id);
    ASSERT_NE(it, parallel.estimate.per_template.end())
        << "template " << id << " missing from parallel estimate";
    ExpectSeriesEq(series, it->second);
  }
  ExpectStoresEq(serial.metrics, parallel.metrics);
}

eval::CaseGenOptions SmallCase(uint64_t seed, workload::AnomalyType type) {
  eval::CaseGenOptions options;
  options.seed = seed;
  options.type = type;
  options.pre_anomaly_sec = 300;
  options.anomaly_duration_sec = 150;
  options.post_anomaly_sec = 30;
  options.scenario.num_clusters = 4;
  return options;
}

class DiagnoseEquivalenceTest
    : public ::testing::TestWithParam<workload::AnomalyType> {};

TEST_P(DiagnoseEquivalenceTest, ParallelMatchesSerialExactly) {
  const eval::AnomalyCaseData data =
      eval::GenerateCase(SmallCase(/*seed=*/20260807, GetParam()));
  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);

  core::DiagnoserOptions serial_options;
  serial_options.num_threads = 1;
  const StatusOr<core::DiagnosisResult> serial =
      core::Diagnose(input, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    core::DiagnoserOptions parallel_options;
    parallel_options.num_threads = threads;
    const StatusOr<core::DiagnosisResult> parallel =
        core::Diagnose(input, parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectDiagnosisEq(*serial, *parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAnomalyTypes, DiagnoseEquivalenceTest,
                         ::testing::Values(workload::AnomalyType::kRowLock,
                                           workload::AnomalyType::kMdlLock,
                                           workload::AnomalyType::kPoorSql,
                                           workload::AnomalyType::kBusinessSpike));

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response,
                   int64_t rows) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response;
  r.examined_rows = rows;
  return r;
}

/// Randomized record batch over 37 templates.
std::vector<QueryLogRecord> RandomRecords(uint64_t seed, size_t count,
                                          int64_t window_sec) {
  Rng rng(seed);
  std::vector<QueryLogRecord> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    records.push_back(
        Rec(rng.UniformInt(0, window_sec * 1000 - 1),
            static_cast<uint64_t>(rng.UniformInt(1, 37)),
            rng.Uniform(0.5, 900.0), rng.UniformInt(1, 5000)));
  }
  return records;
}

TEST(ParallelAggregatorEquivalenceTest, AggregateWindowPoolMatchesSerial) {
  constexpr int64_t kWindow = 180;
  LogStore store;
  for (const QueryLogRecord& r :
       RandomRecords(/*seed=*/99, /*count=*/15000, kWindow)) {
    store.Append(r);
  }
  const TemplateMetricsStore serial = AggregateWindow(store, 10, 170);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    const TemplateMetricsStore parallel =
        AggregateWindow(store, 10, 170, /*interval_sec=*/1, &pool);
    ExpectStoresEq(serial, parallel);
  }
}

TEST(FleetModeEquivalenceTest, ScoresMatchSerialRun) {
  eval::EvalOptions serial_options;
  serial_options.num_cases = 4;
  serial_options.seed = 7;
  serial_options.case_options = SmallCase(7, workload::AnomalyType::kRowLock);
  serial_options.num_threads = 1;
  eval::EvalOptions fleet_options = serial_options;
  fleet_options.num_threads = 4;

  const core::DiagnoserOptions diagnoser;
  const std::vector<eval::MethodScores> serial =
      eval::RunOverallEvaluation(serial_options, diagnoser);
  const std::vector<eval::MethodScores> fleet =
      eval::RunOverallEvaluation(fleet_options, diagnoser);
  ASSERT_EQ(serial.size(), fleet.size());
  for (size_t m = 0; m < serial.size(); ++m) {
    SCOPED_TRACE(serial[m].name);
    EXPECT_EQ(serial[m].name, fleet[m].name);
    EXPECT_EQ(serial[m].rsql.hits_at_1, fleet[m].rsql.hits_at_1);
    EXPECT_EQ(serial[m].rsql.hits_at_5, fleet[m].rsql.hits_at_5);
    EXPECT_EQ(serial[m].rsql.mrr, fleet[m].rsql.mrr);
    EXPECT_EQ(serial[m].hsql.hits_at_1, fleet[m].hsql.hits_at_1);
    EXPECT_EQ(serial[m].hsql.hits_at_5, fleet[m].hsql.hits_at_5);
    EXPECT_EQ(serial[m].hsql.mrr, fleet[m].hsql.mrr);
  }
}

// Determinism regression (seed-test audit): the same diagnosis run twice —
// with threads — must render byte-identical JSON reports. Wall-clock
// timings are the one legitimately nondeterministic field, so they are
// zeroed before rendering.
TEST(DeterminismRegressionTest, RepeatedDiagnosisRendersIdenticalJson) {
  const eval::AnomalyCaseData data = eval::GenerateCase(
      SmallCase(/*seed=*/31337, workload::AnomalyType::kMdlLock));
  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);
  core::DiagnoserOptions options;
  options.num_threads = 4;

  auto render = [&]() {
    const core::DiagnosisResult result =
        std::move(core::Diagnose(input, options)).value();
    core::DiagnosisReport report = core::BuildReport(
        result, data.logs, data.phenomena, input.anomaly_start_sec,
        input.anomaly_end_sec, /*suggestions=*/{});
    report.diagnosis_seconds = 0.0;
    report.trace.total_seconds = 0.0;
    for (obs::StageTrace& stage : report.trace.stages) stage.seconds = 0.0;
    return report.ToJson().Dump(/*pretty=*/true);
  };

  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// Observability must be a pure observer: span recording on/off, at any
// thread count, produces bit-identical diagnoses and identical
// deterministic trace counters (only the wall-clock seconds may differ).
TEST(TracingEquivalenceTest, TracingNeverChangesTheDiagnosis) {
  const eval::AnomalyCaseData data = eval::GenerateCase(
      SmallCase(/*seed=*/20260807, workload::AnomalyType::kRowLock));
  const core::DiagnosisInput input = eval::MakeDiagnosisInput(data);

  core::DiagnoserOptions baseline_options;
  baseline_options.num_threads = 1;
  const StatusOr<core::DiagnosisResult> baseline =
      core::Diagnose(input, baseline_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const int threads : {1, 4}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                   " traced=" + std::to_string(traced));
      obs::TraceRecorder recorder;
      core::DiagnoserOptions options;
      options.num_threads = threads;
      options.trace = traced ? &recorder : nullptr;
      const StatusOr<core::DiagnosisResult> run =
          core::Diagnose(input, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectDiagnosisEq(*baseline, *run);
      EXPECT_EQ(run->data_quality.confidence,
                baseline->data_quality.confidence);

      // Deterministic trace counters match the baseline stage for stage;
      // the wall-clock seconds are excluded from the comparison.
      ASSERT_EQ(run->trace.stages.size(), baseline->trace.stages.size());
      for (size_t i = 0; i < run->trace.stages.size(); ++i) {
        EXPECT_EQ(run->trace.stages[i].name, baseline->trace.stages[i].name);
        EXPECT_EQ(run->trace.stages[i].counters,
                  baseline->trace.stages[i].counters)
            << "stage " << run->trace.stages[i].name;
      }

      if (traced && obs::kEnabled) {
        EXPECT_GT(recorder.event_count(), 0u);
      } else {
        EXPECT_EQ(recorder.event_count(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace pinsql
