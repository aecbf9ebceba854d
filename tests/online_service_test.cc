#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "dbsim/engine.h"
#include "faults/action_faults.h"
#include "online/replay.h"
#include "online/service.h"
#include "pipeline/template_metrics.h"
#include "repair/supervisor.h"

namespace pinsql::online {
namespace {

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response = 2.0,
                   int64_t rows = 10) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response;
  r.examined_rows = rows;
  return r;
}

PerfSample Sample(int64_t sec, double session) {
  PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

/// Deterministic pseudo-random record stream (no library RNG so the test
/// is hermetic across platforms).
std::vector<QueryLogRecord> SyntheticRecords(int64_t t0_sec, int64_t t1_sec,
                                             int per_sec, uint64_t seed) {
  std::vector<QueryLogRecord> records;
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (int64_t sec = t0_sec; sec < t1_sec; ++sec) {
    for (int i = 0; i < per_sec; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = 1 + (state >> 33) % 7;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 17) % 1000);
      r.response_ms = 1.0 + static_cast<double>((state >> 7) % 50);
      r.examined_rows = static_cast<int64_t>(state % 200);
      records.push_back(r);
    }
  }
  return records;
}

// --- StreamIngestor ------------------------------------------------------

/// Bit-equality, not approximate: both stores must be the same sequential
/// per-template folds.
void ExpectSameTemplates(const TemplateMetricsStore& actual,
                         const TemplateMetricsStore& expected) {
  ASSERT_EQ(actual.SqlIdsSorted(), expected.SqlIdsSorted());
  for (const uint64_t sql_id : expected.SqlIdsSorted()) {
    const TemplateSeries* e = expected.Find(sql_id);
    const TemplateSeries* a = actual.Find(sql_id);
    ASSERT_NE(a, nullptr) << "template " << sql_id << " missing";
    EXPECT_EQ(a->execution_count.values(), e->execution_count.values());
    EXPECT_EQ(a->total_response_ms.values(), e->total_response_ms.values());
    EXPECT_EQ(a->examined_rows.values(), e->examined_rows.values());
  }
}

TEST(StreamIngestorTest, SnapshotMatchesBatchAggregation) {
  const int64_t t0 = 5000, t1 = 5120;
  {
    const auto records = SyntheticRecords(t0, t1, 13, 42);
    IngestorOptions options;
    options.window_sec = 600;
    StreamIngestor ingestor(options);
    LogStore archive;
    ingestor.AttachArchive(&archive);
    ASSERT_TRUE(ingestor.IngestMetrics(Sample(t1, 5.0)));
    for (const auto& r : records) ASSERT_TRUE(ingestor.IngestRecord(r));
    ingestor.Pump();

    // Batch reference: the offline aggregation over the same records.
    TemplateMetricsStore batch(t0, t1, 1);
    for (const auto& r : records) batch.Accumulate(r);
    ExpectSameTemplates(ingestor.SnapshotTemplates(t0, t1), batch);
  }
  {
    // Records published out of arrival order across every shard, over
    // several pumps, with fractional response times: the snapshot is the
    // diagnosis window's AggregateWindow over the archive, bit for bit.
    auto records = SyntheticRecords(t0, t1, 29, 7);
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].response_ms += 0.1 * static_cast<double>(i % 7);
    }
    std::reverse(records.begin(), records.end());
    std::rotate(records.begin(), records.begin() + records.size() / 3,
                records.end());
    IngestorOptions options;
    options.window_sec = 600;
    StreamIngestor ingestor(options);
    LogStore archive;
    ingestor.AttachArchive(&archive);
    ASSERT_TRUE(ingestor.IngestMetrics(Sample(t1, 5.0)));
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(ingestor.IngestRecord(records[i]));
      if (i % 1000 == 999) ingestor.Pump();
    }
    ingestor.Pump();
    ASSERT_EQ(archive.size(), records.size());
    const TemplateMetricsStore snap = ingestor.SnapshotTemplates(t0, t1);
    EXPECT_GT(snap.num_templates(), 1u);
    ExpectSameTemplates(snap, AggregateWindow(archive, t0, t1));
    // A sub-window sees exactly that window's records.
    ExpectSameTemplates(ingestor.SnapshotTemplates(t0 + 30, t0 + 45),
                        AggregateWindow(archive, t0 + 30, t0 + 45));
  }
}

TEST(StreamIngestorTest, BackpressureDropsAreCounted) {
  IngestorOptions options;
  options.num_shards = 1;
  options.shard_queue_capacity = 8;
  StreamIngestor ingestor(options);
  size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 20; ++i) {
    if (ingestor.IngestRecord(Rec(1000 + i, 1))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 12u);
  const IngestStats stats = ingestor.stats();
  // records_enqueued counts every offer; backpressure drops are the slice
  // of it that never made a queue.
  EXPECT_EQ(stats.records_enqueued, 20u);
  EXPECT_EQ(stats.records_dropped_backpressure, 12u);
  EXPECT_EQ(stats.records_staged, 8u);
  ingestor.Pump();
  EXPECT_EQ(ingestor.stats().records_folded, 8u);
}

TEST(StreamIngestorTest, LateRecordsAreDroppedAndCounted) {
  IngestorOptions options;
  options.window_sec = 600;
  options.late_grace_sec = 60;
  StreamIngestor ingestor(options);
  LogStore archive;
  ingestor.AttachArchive(&archive);
  ASSERT_TRUE(ingestor.IngestMetrics(Sample(10'000, 5.0)));
  // Older than watermark - grace: refused when offered, with the drop
  // accounted once (nothing leaves the pipeline silently) — never staged,
  // so never archived.
  EXPECT_FALSE(ingestor.IngestRecord(Rec(9'000'000, 1)));
  EXPECT_EQ(ingestor.stats().records_staged, 0u);
  // Exactly at the grace horizon is still on time.
  ASSERT_TRUE(ingestor.IngestRecord(Rec(9'940'000, 2)));
  ASSERT_TRUE(ingestor.IngestRecord(Rec(9'990'000, 3)));
  EXPECT_EQ(ingestor.Pump(), 2u);
  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.records_enqueued, 3u);
  EXPECT_EQ(stats.records_dropped_late, 1u);
  EXPECT_EQ(stats.records_folded, 2u);
  EXPECT_EQ(archive.size(), 2u);
  EXPECT_TRUE(archive.Range(9'000'000, 9'001'000).empty());
}

TEST(StreamIngestorTest, StaleMetricSamplesAreDropped) {
  IngestorOptions options;
  options.window_sec = 100;
  StreamIngestor ingestor(options);
  ASSERT_TRUE(ingestor.IngestMetrics(Sample(1000, 5.0)));
  EXPECT_FALSE(ingestor.IngestMetrics(Sample(900, 4.0)));  // outside window
  EXPECT_TRUE(ingestor.IngestMetrics(Sample(950, 4.0)));   // inside window
  EXPECT_EQ(ingestor.stats().metric_samples_dropped, 1u);
  ASSERT_TRUE(ingestor.watermark_sec().has_value());
  EXPECT_EQ(*ingestor.watermark_sec(), 1000);
  ASSERT_TRUE(ingestor.SampleAt(950).has_value());
  EXPECT_DOUBLE_EQ(ingestor.SampleAt(950)->active_session, 4.0);
}

TEST(StreamIngestorTest, WindowFloorBoundaryRetainsFloorDropsBelow) {
  IngestorOptions options;
  options.window_sec = 100;
  options.late_grace_sec = 99;  // grace horizon == the whole retained ring
  StreamIngestor ingestor(options);
  LogStore archive;
  ingestor.AttachArchive(&archive);
  ASSERT_TRUE(ingestor.IngestMetrics(Sample(1000, 5.0)));
  ASSERT_TRUE(ingestor.window_floor_sec().has_value());
  const int64_t floor = *ingestor.window_floor_sec();
  EXPECT_EQ(floor, 1000 - 100 + 1);

  // A sample at exactly the floor is the oldest retained instant; one
  // second older misses the ring and is counted as dropped.
  EXPECT_TRUE(ingestor.IngestMetrics(Sample(floor, 2.0)));
  ASSERT_TRUE(ingestor.SampleAt(floor).has_value());
  EXPECT_DOUBLE_EQ(ingestor.SampleAt(floor)->active_session, 2.0);
  EXPECT_FALSE(ingestor.IngestMetrics(Sample(floor - 1, 3.0)));
  EXPECT_FALSE(ingestor.SampleAt(floor - 1).has_value());
  EXPECT_EQ(ingestor.stats().metric_samples_dropped, 1u);

  // Same boundary for records: the floor second is accepted, floor - 1 is
  // refused as late.
  ASSERT_TRUE(ingestor.IngestRecord(Rec(floor * 1000, 7)));
  EXPECT_FALSE(ingestor.IngestRecord(Rec((floor - 1) * 1000, 7)));
  ingestor.Pump();
  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.records_folded, 1u);
  EXPECT_EQ(stats.records_dropped_late, 1u);

  // Snapshots at the floor agree with window_floor_sec(): both the metric
  // and the template view see the floor second's data.
  const WindowMetrics metrics = ingestor.SnapshotMetrics(floor, floor + 1);
  ASSERT_EQ(metrics.active_session.values().size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.active_session.values()[0], 2.0);
  const TemplateMetricsStore snap =
      ingestor.SnapshotTemplates(floor, floor + 1);
  const TemplateSeries* tpl = snap.Find(7);
  ASSERT_NE(tpl, nullptr);
  EXPECT_DOUBLE_EQ(tpl->execution_count.values()[0], 1.0);
}

TEST(StreamIngestorTest, NegativeFloorSecondsAreWellDefined) {
  // Early in a stream the window floor is negative; ring indexing and
  // snapshots must still be well-defined (C++ % truncates toward zero, so
  // a naive sec % window on a negative second indexes out of bounds).
  IngestorOptions options;
  options.window_sec = 100;
  options.late_grace_sec = 99;
  StreamIngestor ingestor(options);
  LogStore archive;
  ingestor.AttachArchive(&archive);
  ASSERT_TRUE(ingestor.IngestMetrics(Sample(10, 5.0)));
  ASSERT_TRUE(ingestor.window_floor_sec().has_value());
  const int64_t floor = *ingestor.window_floor_sec();
  ASSERT_LT(floor, 0);
  EXPECT_TRUE(ingestor.IngestMetrics(Sample(floor, 1.0)));
  EXPECT_FALSE(ingestor.IngestMetrics(Sample(floor - 1, 1.0)));
  ASSERT_TRUE(ingestor.SampleAt(floor).has_value());
  ASSERT_TRUE(ingestor.IngestRecord(Rec(floor * 1000, 3)));
  ingestor.Pump();
  EXPECT_EQ(ingestor.stats().records_folded, 1u);
  const TemplateMetricsStore snap =
      ingestor.SnapshotTemplates(floor, floor + 1);
  const TemplateSeries* tpl = snap.Find(3);
  ASSERT_NE(tpl, nullptr);
  EXPECT_DOUBLE_EQ(tpl->execution_count.values()[0], 1.0);
  const WindowMetrics metrics = ingestor.SnapshotMetrics(floor, floor + 2);
  EXPECT_DOUBLE_EQ(metrics.active_session.values()[0], 1.0);
}

TEST(StreamIngestorTest, StatsAreAConsistentCutUnderConcurrentProducers) {
  IngestorOptions options;
  options.num_shards = 4;
  options.shard_queue_capacity = 64;  // force real backpressure
  options.late_grace_sec = 50;
  StreamIngestor ingestor(options);
  ASSERT_TRUE(ingestor.IngestMetrics(Sample(1000, 5.0)));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 1);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        // Mix of on-time and late records across every shard; some drop as
        // late, some as backpressure — every path must stay accounted.
        const int64_t sec = i % 7 == 0 ? 900 : 1000;
        ingestor.IngestRecord(Rec(sec * 1000 + i % 1000, 1 + (p + i) % 7));
        ingestor.IngestRecord(Rec(sec * 1000 + i % 1000, 1 + i % 7));
      }
      producers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&]() {
    while (producers_done.load() < kProducers) ingestor.Pump();
    ingestor.Pump();
  });

  // Hammer the snapshot while producers and the pumper race: the
  // consistent-cut invariant must hold in every single snapshot, not just
  // at quiescence.
  while (producers_done.load() < kProducers) {
    const IngestStats stats = ingestor.stats();
    ASSERT_EQ(stats.records_enqueued,
              stats.records_folded + stats.records_dropped_late +
                  stats.records_dropped_backpressure + stats.records_staged)
        << "torn ingest stats cut";
  }
  for (std::thread& thread : threads) thread.join();
  ingestor.Pump();

  const IngestStats final_stats = ingestor.stats();
  EXPECT_EQ(final_stats.records_staged, 0u);
  EXPECT_EQ(final_stats.records_enqueued,
            final_stats.records_folded + final_stats.records_dropped_late +
                final_stats.records_dropped_backpressure);
  EXPECT_EQ(final_stats.records_enqueued,
            static_cast<size_t>(kProducers) * kPerProducer * 2);
  EXPECT_GT(final_stats.records_dropped_late, 0u) << "late path not exercised";
}

// --- OnlineAnomalyDetector -----------------------------------------------

TEST(OnlineDetectorTest, FiresExactlyOncePerSustainedRun) {
  OnlineDetectorOptions options;
  OnlineAnomalyDetector detector(options);
  int64_t sec = 0;
  std::optional<AnomalyTrigger> trigger;
  for (int i = 0; i < 120; ++i) {
    auto t = detector.Observe(sec++, 5.0 + (i % 2) * 0.5);
    ASSERT_FALSE(t.has_value());
  }
  const int64_t onset = sec;
  size_t fired = 0;
  for (int i = 0; i < 120; ++i) {
    auto t = detector.Observe(sec++, 400.0);
    if (t.has_value()) {
      ++fired;
      trigger = t;
    }
  }
  EXPECT_EQ(fired, 1u) << "a sustained run must fire exactly one trigger";
  ASSERT_TRUE(trigger.has_value());
  EXPECT_EQ(trigger->onset_sec, onset);
  EXPECT_GE(trigger->trigger_sec, onset);
  EXPECT_LE(trigger->trigger_sec - trigger->onset_sec, 5);
  EXPECT_GT(trigger->severity, options.screen.threshold);
  EXPECT_LE(trigger->pettitt_p, options.pettitt_alpha);
  ASSERT_EQ(detector.latencies_sec().size(), 1u);
  EXPECT_EQ(detector.latencies_sec()[0],
            trigger->trigger_sec - trigger->onset_sec);
}

TEST(OnlineDetectorTest, ShortBlipsDoNotTrigger) {
  OnlineDetectorOptions options;
  OnlineAnomalyDetector detector(options);
  int64_t sec = 0;
  size_t fired = 0;
  for (int i = 0; i < 400; ++i) {
    // 1-2 sample spikes on a noisy baseline: below confirm_run_len.
    double v = 5.0 + (i % 3);
    if (i > 150 && i % 97 < 2) v = 60.0;
    if (detector.Observe(sec++, v).has_value()) ++fired;
  }
  EXPECT_EQ(fired, 0u);
}

TEST(OnlineDetectorTest, TelemetryGapsAreCarriedNotTriggered) {
  OnlineDetectorOptions options;
  OnlineAnomalyDetector detector(options);
  const double nan = std::nan("");
  int64_t sec = 0;
  detector.Observe(sec++, nan);  // before any finite sample
  for (int i = 0; i < 80; ++i) {
    const double v = (i % 7 == 3) ? nan : 5.0;
    EXPECT_FALSE(detector.Observe(sec++, v).has_value());
  }
  const OnlineDetectorStats stats = detector.stats();
  EXPECT_EQ(stats.gaps_skipped, 1u);
  EXPECT_GT(stats.gaps_carried, 0u);
  EXPECT_EQ(stats.triggers, 0u);
}

// --- DiagnosisScheduler --------------------------------------------------

AnomalyTrigger MakeTrigger(int64_t onset, int64_t trig) {
  AnomalyTrigger t;
  t.onset_sec = onset;
  t.trigger_sec = trig;
  t.severity = 10.0;
  t.pettitt_p = 0.01;
  return t;
}

TEST(SchedulerTest, CooldownSuppressesSameIncident) {
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  SchedulerOptions options;
  options.cooldown_sec = 300;
  DiagnosisScheduler scheduler(&ingestor, &archive, options);

  EXPECT_TRUE(scheduler.OnTrigger(MakeTrigger(1000, 1003)));
  // Re-detection of the same incident inside the cooldown horizon.
  EXPECT_FALSE(scheduler.OnTrigger(MakeTrigger(1200, 1203)));
  // Screen activity keeps the incident's horizon open...
  scheduler.NoteAnomalousActivity(1400);
  EXPECT_FALSE(scheduler.OnTrigger(MakeTrigger(1600, 1603)));
  // ...but a trigger past the horizon is a new incident.
  EXPECT_TRUE(scheduler.OnTrigger(MakeTrigger(2000, 2003)));
  EXPECT_EQ(scheduler.stats().triggers_accepted, 2u);
  EXPECT_EQ(scheduler.stats().triggers_suppressed, 2u);
  EXPECT_EQ(scheduler.pending(), 2u);
}

TEST(SchedulerTest, ActivityBeforeAnyTriggerDoesNotSuppressIt) {
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  DiagnosisScheduler scheduler(&ingestor, &archive, SchedulerOptions{});
  // The screen flags a few seconds before Pettitt confirms; that activity
  // must not anchor the cooldown against the confirming trigger itself.
  scheduler.NoteAnomalousActivity(998);
  scheduler.NoteAnomalousActivity(999);
  EXPECT_TRUE(scheduler.OnTrigger(MakeTrigger(998, 1000)));
}

TEST(SchedulerTest, CooldownIsPerInstance) {
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  SchedulerOptions options;
  options.cooldown_sec = 300;
  DiagnosisScheduler scheduler(&ingestor, &archive, options);

  const auto trigger_for = [](uint32_t instance_id, int64_t onset,
                              int64_t trig) {
    AnomalyTrigger t = MakeTrigger(onset, trig);
    t.instance_id = instance_id;
    return t;
  };

  // Instance 1's incident must not anchor a cooldown against instance 2:
  // in a fleet, one instance's open incident says nothing about another's.
  EXPECT_TRUE(scheduler.OnTrigger(trigger_for(1, 1000, 1003)));
  EXPECT_TRUE(scheduler.OnTrigger(trigger_for(2, 1010, 1013)));
  // Re-detections inside each instance's own horizon stay suppressed.
  EXPECT_FALSE(scheduler.OnTrigger(trigger_for(1, 1200, 1203)));
  EXPECT_FALSE(scheduler.OnTrigger(trigger_for(2, 1200, 1203)));
  // Screen activity on instance 1 extends only instance 1's horizon.
  scheduler.NoteAnomalousActivity(1400, /*instance_id=*/1);
  EXPECT_FALSE(scheduler.OnTrigger(trigger_for(1, 1650, 1653)));
  EXPECT_TRUE(scheduler.OnTrigger(trigger_for(2, 1650, 1653)));
  EXPECT_EQ(scheduler.stats().triggers_accepted, 3u);
  EXPECT_EQ(scheduler.stats().triggers_suppressed, 3u);
}

TEST(SchedulerTest, OpenWindowFloorCoversPendingDiagnoses) {
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  SchedulerOptions options;
  options.cooldown_sec = 0;
  DiagnosisScheduler scheduler(&ingestor, &archive, options);
  EXPECT_FALSE(scheduler.open_window_floor_ms().has_value());
  ASSERT_TRUE(scheduler.OnTrigger(MakeTrigger(5000, 5004)));
  ASSERT_TRUE(scheduler.OnTrigger(MakeTrigger(9000, 9004)));
  const auto floor = scheduler.open_window_floor_ms();
  ASSERT_TRUE(floor.has_value());
  EXPECT_EQ(*floor, (5000 - options.diagnoser.delta_s_sec) * 1000);
}

TEST(SchedulerTest, RetentionNeverTrimsAnOpenDiagnosisWindow) {
  // A trigger is in flight whose lookback window starts exactly at the
  // 3-day retention edge. TrimExpiredKeeping with the scheduler's floor
  // must keep every record the pending diagnosis will scan — including the
  // record at the exact edge — while still retiring everything older.
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  SchedulerOptions options;
  DiagnosisScheduler scheduler(&ingestor, &archive, options);

  const int64_t now_ms = LogStore::kRetentionMs + 500'000'000;
  const int64_t edge_ms = now_ms - LogStore::kRetentionMs;
  const int64_t onset_sec = edge_ms / 1000 + options.diagnoser.delta_s_sec;
  ASSERT_TRUE(
      scheduler.OnTrigger(MakeTrigger(onset_sec, onset_sec + 3)));
  const auto floor = scheduler.open_window_floor_ms();
  ASSERT_TRUE(floor.has_value());
  ASSERT_EQ(*floor, edge_ms);

  archive.Append(Rec(edge_ms - 2000, 1));  // expired, outside any window
  archive.Append(Rec(edge_ms - 1, 2));     // expired by 1 ms
  archive.Append(Rec(edge_ms, 3));         // exact 3-day edge: retained
  archive.Append(Rec(edge_ms + 1000, 4));  // inside the open window
  EXPECT_EQ(archive.TrimExpiredKeeping(now_ms, *floor), 2u);
  const auto kept = archive.SnapshotRange(0, now_ms + 1);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].sql_id, 3u);
  EXPECT_EQ(kept[1].sql_id, 4u);

  // With the floor *before* the retention horizon, the floor wins: records
  // older than 3 days that a pending diagnosis still needs survive.
  LogStore older;
  older.Append(Rec(edge_ms - 10'000, 7));
  EXPECT_EQ(older.TrimExpiredKeeping(now_ms, edge_ms - 10'000), 0u);
  EXPECT_EQ(older.size(), 1u);
}

TEST(SchedulerTest, OpenWindowFloorSurvivesAStateRoundTrip) {
  // Restart regression for the durable service: a pending diagnosis is
  // checkpointed via ExportState and restored via ImportState in a fresh
  // process. The restored scheduler must report the same retention floor,
  // and TrimExpiredKeeping with that floor must keep every record the
  // still-pending diagnosis will scan — exactly as before the restart.
  IngestorOptions ingest_options;
  StreamIngestor ingestor(ingest_options);
  LogStore archive;
  SchedulerOptions options;
  DiagnosisScheduler scheduler(&ingestor, &archive, options);

  const int64_t now_ms = LogStore::kRetentionMs + 500'000'000;
  const int64_t edge_ms = now_ms - LogStore::kRetentionMs;
  const int64_t onset_sec = edge_ms / 1000 + options.diagnoser.delta_s_sec;
  ASSERT_TRUE(scheduler.OnTrigger(MakeTrigger(onset_sec, onset_sec + 3)));
  const auto floor = scheduler.open_window_floor_ms();
  ASSERT_TRUE(floor.has_value());

  // "Restart": a brand-new scheduler over a recovered archive.
  StreamIngestor recovered_ingestor(ingest_options);
  LogStore recovered_archive;
  recovered_archive.Append(Rec(edge_ms - 1, 2));     // expired by 1 ms
  recovered_archive.Append(Rec(edge_ms, 3));         // window start: retained
  recovered_archive.Append(Rec(edge_ms + 1000, 4));  // inside the window
  DiagnosisScheduler restored(&recovered_ingestor, &recovered_archive,
                              options);
  restored.ImportState(scheduler.ExportState());
  EXPECT_EQ(restored.pending(), 1u);
  const auto restored_floor = restored.open_window_floor_ms();
  ASSERT_TRUE(restored_floor.has_value());
  EXPECT_EQ(*restored_floor, *floor);

  EXPECT_EQ(recovered_archive.TrimExpiredKeeping(now_ms, *restored_floor),
            1u);
  const auto kept = recovered_archive.SnapshotRange(0, now_ms + 1);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].sql_id, 3u);
  EXPECT_EQ(kept[1].sql_id, 4u);
}

// --- OnlineService lifecycle ---------------------------------------------

TEST(OnlineServiceTest, GracefulDrainUnderRacingProducers) {
  ServiceOptions options;
  options.ingestor.window_sec = 3600;
  options.background_pump = true;
  OnlineService service(options);
  service.Start();

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> producers;
  for (int tid = 0; tid < kProducers; ++tid) {
    producers.emplace_back([&, tid]() {
      for (int i = 0; i < kPerProducer; ++i) {
        QueryLogRecord r = Rec(1'000'000 + (i % 600) * 1000 + tid,
                               1 + static_cast<uint64_t>(i % 5));
        if (service.IngestRecord(r)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread metronome([&]() {
    for (int64_t sec = 1000; sec < 1040; ++sec) {
      service.IngestMetrics(Sample(sec, 5.0));
      service.Advance();
    }
  });
  for (auto& t : producers) t.join();
  metronome.join();
  service.Stop();
  EXPECT_FALSE(service.running());

  // Drain accounting closes: every accepted record was folded or dropped
  // with a counted reason; every watermark second was processed.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingest.records_enqueued,
            accepted.load() + stats.ingest.records_dropped_backpressure);
  EXPECT_EQ(stats.ingest.records_folded + stats.ingest.records_dropped_late,
            accepted.load());
  EXPECT_EQ(stats.seconds_processed, 40);
  EXPECT_EQ(stats.detector.samples, 40u);

  service.Stop();  // idempotent
  EXPECT_EQ(service.stats().seconds_processed, 40);
}

TEST(OnlineServiceTest, StopNeverHalfAppliesABatch) {
  // Producers hammer AppendBatch while the main thread Stop()s mid-stream.
  // Every batch must be all-or-nothing with respect to the drain: accepted
  // batches are fully offered to the ingestor before the drain's final cut
  // (so nothing is stranded staged), and batches that lose the race are
  // rejected whole and counted.
  ServiceOptions options;
  options.ingestor.window_sec = 3600;
  options.background_pump = true;
  OnlineService service(options);
  service.Start();

  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 400;
  constexpr int kRecordsPerBatch = 7;
  std::atomic<size_t> accepted_records{0};
  std::atomic<size_t> rejected_records{0};
  std::atomic<size_t> rejected_batches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int tid = 0; tid < kProducers; ++tid) {
    producers.emplace_back([&, tid]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<QueryLogRecord> records;
        records.reserve(kRecordsPerBatch);
        const int64_t sec = 2000 + b % 50;
        for (int i = 0; i < kRecordsPerBatch; ++i) {
          records.push_back(
              Rec(sec * 1000 + (b * kRecordsPerBatch + i) % 1000 + tid,
                  1 + static_cast<uint64_t>(i % 5)));
        }
        std::vector<PerfSample> samples;
        if (b % 10 == tid % 10) samples.push_back(Sample(sec, 5.0));
        if (service.AppendBatch(records, samples)) {
          accepted_records.fetch_add(records.size(),
                                     std::memory_order_relaxed);
        } else {
          rejected_records.fetch_add(records.size(),
                                     std::memory_order_relaxed);
          rejected_batches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Stop while the producers are mid-flight; the gate decides each batch.
  service.Stop();
  for (auto& t : producers) t.join();
  EXPECT_FALSE(service.running());

  const ServiceStats stats = service.stats();
  // All-or-nothing: the records of every accepted batch reached the
  // ingestor (enqueued or counted as backpressure drops) — no partial
  // batches on either side of the cut.
  EXPECT_EQ(stats.ingest.records_enqueued, accepted_records.load());
  EXPECT_EQ(stats.records_rejected_stopped, rejected_records.load());
  EXPECT_EQ(stats.batches_rejected_stopped, rejected_batches.load());
  // The drain's cut is complete: nothing an accepted batch contributed is
  // still staged, and the consistent-cut invariant closes.
  EXPECT_EQ(stats.ingest.records_staged, 0u);
  EXPECT_EQ(stats.ingest.records_folded + stats.ingest.records_dropped_late +
                stats.ingest.records_dropped_backpressure,
            stats.ingest.records_enqueued);

  // After Stop, producer calls reject cleanly and are counted.
  EXPECT_FALSE(service.IngestRecord(Rec(3'000'000, 1)));
  EXPECT_FALSE(service.IngestMetrics(Sample(3000, 5.0)));
  EXPECT_FALSE(service.AppendBatch({Rec(3'000'000, 1)}, {}));
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.records_rejected_stopped,
            rejected_records.load() + 2);
  EXPECT_GE(after.samples_rejected_stopped, 1u);
}

// --- Replay determinism --------------------------------------------------

/// A synthetic incident: flat baseline, then template 9 floods the
/// instance and active sessions jump two orders of magnitude.
ReplayLog SyntheticIncident() {
  ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200;
  const int64_t t1 = onset + 120;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = sec >= onset;
    log.samples.push_back(Sample(sec, anomalous ? 380.0 : 4.0));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const int base = 6;
    const int extra = anomalous ? 40 : 0;
    for (int i = 0; i < base + extra; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = i < base ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = i < base ? 2.0 : 450.0;
      r.examined_rows = i < base ? 20 : 500'000;
      log.records.push_back(r);
    }
  }
  return log;
}

LogStore SyntheticCatalog() {
  LogStore catalog;
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    catalog.RegisterTemplate(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  catalog.RegisterTemplate(9, heavy);
  return catalog;
}

TEST(ReplayTest, BitIdenticalAcrossRunsAndIngestThreads) {
  const ReplayLog log = SyntheticIncident();
  const LogStore catalog = SyntheticCatalog();
  ReplayOptions options;
  options.service.scheduler.diagnoser.num_threads = 2;

  const ReplayResult base = RunReplay(log, catalog, options);
  ASSERT_FALSE(base.outcomes.empty()) << "the incident must trigger";
  EXPECT_EQ(base.outcomes.size(), 1u) << "one incident, one diagnosis";
  ASSERT_EQ(base.detection_latencies_sec.size(), 1u);
  EXPECT_LE(base.detection_latencies_sec[0], 5);

  const ReplayResult repeat = RunReplay(log, catalog, options);
  EXPECT_EQ(base.Fingerprint(), repeat.Fingerprint());

  ReplayOptions threaded = options;
  threaded.num_ingest_threads = 4;
  const ReplayResult ingest4 = RunReplay(log, catalog, threaded);
  EXPECT_EQ(base.Fingerprint(), ingest4.Fingerprint());

  ReplayOptions diag4 = options;
  diag4.service.scheduler.diagnoser.num_threads = 4;
  const ReplayResult d4 = RunReplay(log, catalog, diag4);
  EXPECT_EQ(base.Fingerprint(), d4.Fingerprint());
}

TEST(ReplayTest, SeverityZeroActionFaultInjectorIsNoOp) {
  const ReplayLog log = SyntheticIncident();
  const LogStore catalog = SyntheticCatalog();
  ReplayOptions options;

  const auto run = [&](bool with_hook) {
    dbsim::SimConfig sim;
    dbsim::Engine engine(sim);
    faults::ActionFaultPlan plan;  // severity 0
    plan.seed = 99;
    faults::ActionFaultInjector hook(plan);
    repair::SupervisorOptions sup_options;
    sup_options.seed = 5;
    sup_options.verify.enabled = false;
    repair::RepairSupervisor supervisor(&engine, sup_options,
                                        with_hook ? &hook : nullptr);
    return RunReplay(log, catalog, options, &supervisor).Fingerprint();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace pinsql::online
