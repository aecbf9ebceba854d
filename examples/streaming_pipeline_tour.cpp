/// Example: a tour of the data-collection substrate (paper Sec. IV-A).
///
/// Raw SQL statements are fingerprinted into templates, staged as query-log
/// records in the streaming ingestor, pumped into the LogStore archive,
/// aggregated into per-template 1 s / 1 min metric series, trimmed by
/// retention, and finally fed to the active-session estimator. This is the
/// plumbing every PinSQL diagnosis runs on.

#include <cstdio>

#include "core/session_estimator.h"
#include "online/stream_ingestor.h"
#include "pipeline/template_metrics.h"
#include "sqltpl/fingerprint.h"
#include "util/rng.h"
#include "util/strings.h"

int main() {
  std::printf("== PinSQL collection pipeline tour ==\n\n");

  // 1. Fingerprint raw statements into templates (Definition II.3).
  const char* raw_statements[] = {
      "SELECT * FROM user_table WHERE uid = 123456",
      "SELECT * FROM user_table WHERE uid = 654321",
      "UPDATE sales SET total = total + 17 WHERE region IN (3, 7, 9)",
      "UPDATE sales SET total = total + 2 WHERE region IN (1)",
      "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cid = c.id "
      "WHERE o.status = 'open' LIMIT 20",
  };
  std::printf("fingerprinting %zu raw statements:\n",
              std::size(raw_statements));
  for (const char* sql : raw_statements) {
    const auto info = pinsql::sqltpl::Fingerprint(sql);
    std::printf("  %s  [%s]  %s\n", info.sql_id_hex.c_str(),
                pinsql::sqltpl::StatementKindName(info.kind),
                info.template_text.c_str());
  }
  const uint64_t select_id =
      pinsql::sqltpl::SqlId(raw_statements[0]);
  const uint64_t update_id =
      pinsql::sqltpl::SqlId(raw_statements[2]);
  std::printf("  -> literals differ, templates collide: %s\n\n",
              select_id == pinsql::sqltpl::SqlId(raw_statements[1])
                  ? "yes"
                  : "BUG");

  // 2. Collectors stage per-query records in the ingestor's staging
  //    queue; a pump moves everything staged into the archive.
  pinsql::online::StreamIngestor ingestor(pinsql::online::IngestorOptions{});
  pinsql::LogStore archive;
  ingestor.AttachArchive(&archive);
  pinsql::Rng rng(5);
  const int64_t window_sec = 120;
  for (int64_t sec = 0; sec < window_sec; ++sec) {
    const int selects = static_cast<int>(rng.Poisson(40));
    for (int i = 0; i < selects; ++i) {
      pinsql::QueryLogRecord rec;
      rec.arrival_ms = sec * 1000 + rng.UniformInt(0, 999);
      rec.response_ms = rng.LogNormalWithMean(8.0, 0.5);
      rec.sql_id = select_id;
      rec.examined_rows = rng.UniformInt(1, 200);
      ingestor.IngestRecord(rec);
    }
    const int updates = static_cast<int>(rng.Poisson(6));
    for (int i = 0; i < updates; ++i) {
      pinsql::QueryLogRecord rec;
      rec.arrival_ms = sec * 1000 + rng.UniformInt(0, 999);
      rec.response_ms = rng.LogNormalWithMean(25.0, 0.5);
      rec.sql_id = update_id;
      rec.examined_rows = rng.UniformInt(50, 3000);
      ingestor.IngestRecord(rec);
    }
  }
  std::printf("staged %zu records\n", ingestor.stats().records_staged);
  const size_t pumped = ingestor.Pump();
  std::printf("pump archived %zu records\n", pumped);

  // 3. The window's per-template series, aggregated from the archive the
  //    same way every diagnosis does.
  const pinsql::TemplateMetricsStore metrics =
      pinsql::AggregateWindow(archive, 0, window_sec);
  std::printf("aggregated %zu template series\n", metrics.num_templates());
  const pinsql::TemplateSeries* select_series = metrics.Find(select_id);
  std::printf("  SELECT template: %.0f executions, %.1f ms total RT in "
              "second 0\n",
              select_series->execution_count.Sum(),
              select_series->total_response_ms[0]);

  // 4. Minute-granularity view (the long-retention storage format).
  const auto per_minute = metrics.Resample(60);
  const pinsql::TemplateSeries* minute_series = per_minute.Find(select_id);
  std::printf("  1-min resample: %zu buckets, first bucket %.0f "
              "executions\n",
              minute_series->execution_count.size(),
              minute_series->execution_count[0]);

  // 5. Retention trimming (paper: raw logs expire after three days).
  const size_t dropped = archive.TrimBefore(60 * 1000);
  std::printf("retention trim dropped %zu records older than t=60s; %zu "
              "remain\n",
              dropped, archive.size());

  // 6. The estimator consumes the archived logs + the monitor's sampled
  //    session to produce per-template active sessions.
  pinsql::TimeSeries observed(60, 1, static_cast<size_t>(window_sec - 60));
  for (size_t i = 0; i < observed.size(); ++i) {
    observed[i] = 0.5;  // a quiet instance
  }
  const auto estimate = pinsql::core::EstimateSessions(
      archive, observed, 60, window_sec,
      pinsql::core::SessionEstimatorOptions{});
  std::printf("\nestimated active sessions over [60, %lld):\n",
              static_cast<long long>(window_sec));
  for (const auto& [sql_id, series] : estimate.per_template) {
    std::printf("  %s mean individual session %.3f\n",
                pinsql::HashToHex(sql_id).c_str(), series.Mean());
  }
  std::printf("  instance total %.3f (observed %.3f)\n",
              estimate.total.Mean(), observed.Mean());
  return 0;
}
