#include "core/diagnoser.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/trace.h"
#include "pipeline/template_metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace pinsql::core {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Checks the shape of the inputs that would otherwise be undefined
/// behaviour downstream (null derefs, empty-window slices, div-by-zero
/// index math). Damaged-but-usable inputs pass and are degraded later.
Status ValidateInput(const DiagnosisInput& input,
                     const DiagnoserOptions& options) {
  if (input.logs == nullptr) {
    return Status::InvalidArgument("DiagnosisInput.logs must not be null");
  }
  if (input.history == nullptr) {
    return Status::InvalidArgument(
        "DiagnosisInput.history must not be null (pass an empty "
        "MapHistoryProvider when no history exists)");
  }
  if (input.anomaly_end_sec <= input.anomaly_start_sec) {
    return Status::InvalidArgument(StrFormat(
        "anomaly period [%lld, %lld) is inverted or empty",
        static_cast<long long>(input.anomaly_start_sec),
        static_cast<long long>(input.anomaly_end_sec)));
  }
  const TimeSeries& session = input.active_session;
  if (session.empty()) {
    return Status::InvalidArgument(
        "active_session metric series is empty: nothing to diagnose "
        "against");
  }
  if (session.interval_sec() != 1) {
    return Status::InvalidArgument(StrFormat(
        "active_session must be sampled at 1 s (got %lld s): the session "
        "estimator localizes SHOW STATUS offsets inside each second",
        static_cast<long long>(session.interval_sec())));
  }
  // The series must overlap the anomaly period itself; a diagnosis window
  // with zero anomaly seconds has no signal to correlate against. The
  // lookback portion may be truncated (degraded, not fatal).
  if (session.end_time() <= input.anomaly_start_sec ||
      session.start_time() >= input.anomaly_end_sec) {
    return Status::InvalidArgument(StrFormat(
        "active_session covers [%lld, %lld) which does not intersect the "
        "anomaly period [%lld, %lld); the series must cover (part of) "
        "[a_s - delta_s, a_e) = [%lld, %lld)",
        static_cast<long long>(session.start_time()),
        static_cast<long long>(session.end_time()),
        static_cast<long long>(input.anomaly_start_sec),
        static_cast<long long>(input.anomaly_end_sec),
        static_cast<long long>(input.anomaly_start_sec -
                               options.delta_s_sec),
        static_cast<long long>(input.anomaly_end_sec)));
  }
  return Status::OK();
}

/// Turns physically impossible metric values into gaps (NaN): the monitored
/// quantities are all non-negative, and a finite corruption artefact (counter
/// wrap, float overflow) left in place would dominate every correlation the
/// diagnosis rests on. The upper bound is deliberately loose — four orders
/// of magnitude above the series median — so genuine anomaly spikes pass
/// untouched. Returns the number of points sanitized (0 on clean input, so
/// clean runs stay bit-identical).
size_t SanitizeSeries(TimeSeries* series) {
  std::vector<double> finite;
  finite.reserve(series->size());
  for (double v : series->values()) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  if (finite.empty()) return 0;
  const auto mid = finite.begin() + static_cast<long>(finite.size() / 2);
  std::nth_element(finite.begin(), mid, finite.end());
  const double cap = std::max(1e6, 1e4 * (*mid + 1.0));
  size_t sanitized = 0;
  for (double& v : series->values()) {
    if (std::isfinite(v) && (v < 0.0 || v > cap)) {
      v = std::numeric_limits<double>::quiet_NaN();
      ++sanitized;
    }
  }
  return sanitized;
}

}  // namespace

std::vector<uint64_t> DiagnosisResult::TopHsql(size_t k) const {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < std::min(k, hsql_ranking.size()); ++i) {
    out.push_back(hsql_ranking[i].sql_id);
  }
  return out;
}

std::vector<uint64_t> DiagnosisResult::TopRsql(size_t k) const {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < std::min(k, rsql.ranking.size()); ++i) {
    out.push_back(rsql.ranking[i]);
  }
  return out;
}

StatusOr<DiagnosisResult> Diagnose(const DiagnosisInput& input,
                                   const DiagnoserOptions& options) {
  const Status valid = ValidateInput(input, options);
  if (!valid.ok()) return valid;

  DiagnosisResult result;
  DataQuality& dq = result.data_quality;
  const int64_t want_ts = input.anomaly_start_sec - options.delta_s_sec;
  result.ts_sec = std::max(input.active_session.start_time(), want_ts);
  result.te_sec =
      std::min(input.active_session.end_time(), input.anomaly_end_sec);

  if (result.ts_sec > want_ts) {
    dq.lookback_truncated = true;
    dq.notes.push_back(StrFormat(
        "lookback truncated: wanted metrics from %lld, they begin at %lld",
        static_cast<long long>(want_ts),
        static_cast<long long>(result.ts_sec)));
  }
  if (result.te_sec < input.anomaly_end_sec) {
    dq.anomaly_tail_truncated = true;
    dq.notes.push_back(StrFormat(
        "anomaly tail truncated: metrics end at %lld, anomaly ends at %lld",
        static_cast<long long>(result.te_sec),
        static_cast<long long>(input.anomaly_end_sec)));
  }

  TimeSeries session =
      input.active_session.Slice(result.ts_sec, result.te_sec);
  // Gap counters hold only genuinely-missing points (non-finite as
  // collected); sanitized garbage is counted separately so the two classes
  // stay disjoint and confidence charges each bad point exactly once.
  const size_t session_missing = session.CountNonFinite();
  const size_t session_sanitized = SanitizeSeries(&session);
  dq.metric_points_sanitized += session_sanitized;
  dq.session_points = session.size();
  dq.session_gap_points = session_missing;
  if (dq.session_gap_points > 0) {
    dq.notes.push_back(StrFormat(
        "monitoring gaps: %zu of %zu active_session points are missing "
        "(gap-aware correlation skips them)",
        dq.session_gap_points, dq.session_points));
  }

  // Helper metrics: series the clustering stage cannot consume (interval
  // that does not divide the clustering granularity, or no overlap with
  // the window) are dropped up front — a degraded graph beats an aborted
  // diagnosis. Usable ones are sliced and their gaps accounted.
  std::map<std::string, TimeSeries> sliced_helpers;
  size_t helper_sanitized = 0;
  for (const auto& [name, series] : input.helper_metrics) {
    const bool interval_ok =
        series.interval_sec() > 0 &&
        series.interval_sec() <= options.rsql.cluster_interval_sec &&
        options.rsql.cluster_interval_sec % series.interval_sec() == 0;
    if (!interval_ok) {
      ++dq.helpers_dropped;
      dq.notes.push_back(StrFormat(
          "helper metric '%s' dropped: interval %lld s does not divide the "
          "clustering granularity %lld s",
          name.c_str(), static_cast<long long>(series.interval_sec()),
          static_cast<long long>(options.rsql.cluster_interval_sec)));
      continue;
    }
    TimeSeries sliced = series.Slice(result.ts_sec, result.te_sec);
    if (sliced.empty()) {
      ++dq.helpers_dropped;
      dq.notes.push_back(StrFormat(
          "helper metric '%s' dropped: no overlap with the diagnosis "
          "window",
          name.c_str()));
      continue;
    }
    const size_t missing = sliced.CountNonFinite();
    const size_t sanitized = SanitizeSeries(&sliced);
    dq.metric_points_sanitized += sanitized;
    helper_sanitized += sanitized;
    dq.helper_points += sliced.size();
    dq.helper_gap_points += missing;
    sliced_helpers[name] = std::move(sliced);
  }
  if (dq.metric_points_sanitized > 0) {
    dq.notes.push_back(StrFormat(
        "garbage metric values: %zu points were negative or absurdly large "
        "and were treated as gaps",
        dq.metric_points_sanitized));
  }
  if (dq.helper_gap_points > 0) {
    dq.notes.push_back(StrFormat(
        "monitoring gaps: %zu of %zu helper-metric points are missing",
        dq.helper_gap_points, dq.helper_points));
  }

  // One pool shared by every stage; null means every stage runs its
  // bit-identical serial path.
  std::unique_ptr<util::ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.num_threads);
  }

  const auto t_total = std::chrono::steady_clock::now();

  // Stage 1: individual active-session estimation.
  auto t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(options.trace, "diagnose.session_estimation");
    result.estimate =
        EstimateSessions(*input.logs, session, result.ts_sec, result.te_sec,
                         options.estimator, pool.get());
  }
  result.estimate_seconds = SecondsSince(t0);

  // Stage 2: H-SQL identification.
  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(options.trace, "diagnose.hsql_scoring");
    result.hsql_ranking = RankHighImpactSqls(
        result.estimate.per_template, session, input.anomaly_start_sec,
        input.anomaly_end_sec, options.hsql, pool.get());
  }
  result.hsql_seconds = SecondsSince(t0);

  // Stage 3+4: R-SQL identification (clustering/filtering + history
  // verification + final ranking). Timed together around the call; the
  // clustering share is attributed via a second aggregate-only timing.
  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(options.trace, "diagnose.window_aggregation");
    result.metrics = AggregateWindow(*input.logs, result.ts_sec,
                                     result.te_sec, /*interval_sec=*/1,
                                     pool.get());
  }
  std::map<std::string, const TimeSeries*> helpers;
  for (const auto& [name, series] : sliced_helpers) {
    helpers[name] = &series;
  }
  result.cluster_seconds = SecondsSince(t0);

  // Window record count = total #execution over all templates: detects a
  // collection outage (log pipeline down while metrics kept flowing).
  double window_records = 0.0;
  for (const TemplateSeries* tpl : result.metrics.AllSorted()) {
    window_records += tpl->execution_count.Sum();
  }
  dq.log_records = static_cast<size_t>(window_records);
  if (dq.log_records == 0) {
    dq.notes.push_back(
        "no query-log records in the diagnosis window: rankings are "
        "unavailable (log collection outage?)");
  }

  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(options.trace, "diagnose.rsql");
    result.rsql = IdentifyRootCauseSqls(
        result.metrics, result.estimate.per_template, session, helpers,
        result.hsql_ranking, input.history, input.anomaly_start_sec,
        input.anomaly_end_sec, options.rsql, pool.get(), options.trace);
  }
  result.verify_seconds = SecondsSince(t0);

  dq.history_windows_checked = result.rsql.history_windows_checked;
  dq.history_windows_missing = result.rsql.history_windows_missing;
  dq.history_windows_truncated = result.rsql.history_windows_truncated;
  if (dq.history_windows_truncated > 0) {
    dq.notes.push_back(StrFormat(
        "history verification degraded: %zu of %zu lookback windows were "
        "truncated; verdicts rest on the surviving windows",
        dq.history_windows_truncated, dq.history_windows_checked));
  }

  // Confidence: multiplicative caveat per degradation class. Any monotone
  // formula works; this one is deliberately simple so the curve in
  // bench_chaos_robustness is interpretable. A bad metric point — missing
  // or sanitized garbage — is penalized exactly once: the counters are
  // disjoint and summed here.
  double confidence = 1.0;
  if (dq.session_points > 0) {
    confidence *=
        1.0 - 0.5 *
                  static_cast<double>(dq.session_gap_points +
                                      session_sanitized) /
                  static_cast<double>(dq.session_points);
  }
  if (dq.helper_points > 0) {
    confidence *=
        1.0 - 0.25 *
                  static_cast<double>(dq.helper_gap_points +
                                      helper_sanitized) /
                  static_cast<double>(dq.helper_points);
  }
  if (dq.lookback_truncated || dq.anomaly_tail_truncated) {
    const double wanted =
        static_cast<double>(input.anomaly_end_sec - want_ts);
    const double got = static_cast<double>(result.te_sec - result.ts_sec);
    confidence *= std::max(0.5, got / wanted);
  }
  if (dq.log_records == 0) confidence *= 0.25;
  if (dq.history_windows_checked > 0 && dq.history_windows_truncated > 0) {
    confidence *=
        1.0 - 0.4 * static_cast<double>(dq.history_windows_truncated) /
                  static_cast<double>(dq.history_windows_checked);
  }
  dq.confidence = confidence;

  result.total_seconds = SecondsSince(t_total);

  // Per-stage trace block: deterministic counters + the wall times above.
  // Built unconditionally (it is cheap and survives PINSQL_DISABLE_OBS) so
  // the report's `trace` block always exists.
  auto stage = [&result](std::string name, double seconds) -> obs::StageTrace& {
    obs::StageTrace s;
    s.name = std::move(name);
    s.seconds = seconds;
    result.trace.stages.push_back(std::move(s));
    return result.trace.stages.back();
  };
  {
    obs::StageTrace& s = stage("session_estimation", result.estimate_seconds);
    s.counters["session_points"] = static_cast<int64_t>(dq.session_points);
    s.counters["session_gap_points"] =
        static_cast<int64_t>(dq.session_gap_points);
    s.counters["templates"] =
        static_cast<int64_t>(result.estimate.per_template.size());
  }
  {
    obs::StageTrace& s = stage("window_aggregation", result.cluster_seconds);
    s.counters["log_records"] = static_cast<int64_t>(dq.log_records);
    s.counters["templates"] =
        static_cast<int64_t>(result.metrics.num_templates());
  }
  {
    obs::StageTrace& s = stage("hsql_scoring", result.hsql_seconds);
    s.counters["candidates"] =
        static_cast<int64_t>(result.hsql_ranking.size());
  }
  {
    obs::StageTrace& s = stage("rsql_clustering", result.rsql.cluster_seconds);
    s.counters["clusters"] = static_cast<int64_t>(result.rsql.clusters.size());
    s.counters["helper_nodes"] = static_cast<int64_t>(helpers.size());
    s.counters["selected_clusters"] =
        static_cast<int64_t>(result.rsql.selected_clusters.size());
  }
  {
    obs::StageTrace& s =
        stage("rsql_verification", result.rsql.verify_seconds);
    s.counters["verified"] = static_cast<int64_t>(result.rsql.verified.size());
    s.counters["ranked"] = static_cast<int64_t>(result.rsql.ranking.size());
    s.counters["windows_checked"] =
        static_cast<int64_t>(dq.history_windows_checked);
    s.counters["windows_missing"] =
        static_cast<int64_t>(dq.history_windows_missing);
    s.counters["windows_truncated"] =
        static_cast<int64_t>(dq.history_windows_truncated);
    s.counters["fallback"] = result.rsql.verification_fallback ? 1 : 0;
  }
  result.trace.total_seconds = result.total_seconds;
  return result;
}

}  // namespace pinsql::core
