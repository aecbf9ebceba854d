#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "dbsim/engine.h"
#include "faults/action_faults.h"
#include "fleet/fleet_replay.h"
#include "online/replay.h"
#include "online/scheduler.h"
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
    // Records published out of arrival order across templates, over
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
  options.queue_capacity = 8;
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
  options.queue_capacity = 64;  // force real backpressure
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
        // Mix of on-time and late records across templates; some drop as
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
  EXPECT_EQ(detector.stats().triggers, 1u);
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

// --- Trigger dedup ---------------------------------------------------------

AnomalyTrigger MakeTrigger(int64_t onset, int64_t trig,
                           uint32_t instance_id = 0) {
  AnomalyTrigger t;
  t.instance_id = instance_id;
  t.onset_sec = onset;
  t.trigger_sec = trig;
  t.severity = 10.0;
  t.pettitt_p = 0.01;
  return t;
}

TEST(TriggerDeduperTest, CooldownSuppressesSameIncident) {
  TriggerDeduper dedup(/*cooldown_sec=*/300);
  EXPECT_TRUE(dedup.Accept(MakeTrigger(1000, 1003)));
  // Re-detection of the same incident inside the cooldown horizon.
  EXPECT_FALSE(dedup.Accept(MakeTrigger(1200, 1203)));
  // Screen activity keeps the incident's horizon open...
  dedup.NoteActivity(0, 1400);
  EXPECT_FALSE(dedup.Accept(MakeTrigger(1600, 1603)));
  // ...but a trigger past the horizon is a new incident.
  EXPECT_TRUE(dedup.Accept(MakeTrigger(2000, 2003)));
}

TEST(TriggerDeduperTest, ActivityBeforeAnyTriggerDoesNotSuppressIt) {
  TriggerDeduper dedup(SchedulerOptions{}.cooldown_sec);
  // The screen flags a few seconds before Pettitt confirms; that activity
  // must not anchor the cooldown against the confirming trigger itself.
  dedup.NoteActivity(0, 998);
  dedup.NoteActivity(0, 999);
  EXPECT_TRUE(dedup.Accept(MakeTrigger(998, 1000)));
}

TEST(TriggerDeduperTest, CooldownIsPerInstance) {
  TriggerDeduper dedup(/*cooldown_sec=*/300);
  // Instance 1's incident must not anchor a cooldown against instance 2:
  // in a fleet, one instance's open incident says nothing about another's.
  EXPECT_TRUE(dedup.Accept(MakeTrigger(1000, 1003, 1)));
  EXPECT_TRUE(dedup.Accept(MakeTrigger(1010, 1013, 2)));
  // Re-detections inside each instance's own horizon stay suppressed.
  EXPECT_FALSE(dedup.Accept(MakeTrigger(1200, 1203, 1)));
  EXPECT_FALSE(dedup.Accept(MakeTrigger(1200, 1203, 2)));
  // Screen activity on instance 1 extends only instance 1's horizon.
  dedup.NoteActivity(1, 1400);
  EXPECT_FALSE(dedup.Accept(MakeTrigger(1650, 1653, 1)));
  EXPECT_TRUE(dedup.Accept(MakeTrigger(1650, 1653, 2)));
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

/// Replays `log` through a fleet of one; `supervisor` closes its loop.
fleet::FleetResult Solo(const ReplayLog& log, const LogStore& catalog,
                        const fleet::FleetReplayOptions& options,
                        repair::RepairSupervisor* supervisor = nullptr) {
  fleet::FleetInstanceSpec spec;
  spec.supervisor = supervisor;
  return fleet::RunFleetReplay({spec}, {log}, catalog, options);
}

TEST(ReplayTest, BitIdenticalAcrossRunsAndIngestThreads) {
  const ReplayLog log = SyntheticIncident();
  const LogStore catalog = SyntheticCatalog();
  fleet::FleetReplayOptions options;
  options.num_ingest_workers = 1;
  options.fleet.scheduler.diagnoser.num_threads = 2;

  const fleet::FleetResult base = Solo(log, catalog, options);
  ASSERT_FALSE(base.outcomes.empty()) << "the incident must trigger";
  EXPECT_EQ(base.outcomes.size(), 1u) << "one incident, one diagnosis";
  ASSERT_EQ(base.latencies.at(0).size(), 1u);
  EXPECT_LE(base.latencies.at(0)[0], 5);

  const std::string fingerprint = base.InstanceFingerprint(0);
  EXPECT_EQ(Solo(log, catalog, options).InstanceFingerprint(0), fingerprint);

  fleet::FleetReplayOptions threaded = options;
  threaded.num_ingest_workers = 4;
  EXPECT_EQ(Solo(log, catalog, threaded).InstanceFingerprint(0), fingerprint);

  fleet::FleetReplayOptions diag4 = options;
  diag4.fleet.scheduler.diagnoser.num_threads = 4;
  EXPECT_EQ(Solo(log, catalog, diag4).InstanceFingerprint(0), fingerprint);
}

TEST(ReplayTest, EveryRecordIsIngestedExactlyOnce) {
  // Records that arrive after the last sample's second belong to that
  // last second; none may be dropped or pushed twice at any worker count.
  ReplayLog log = SyntheticIncident();
  const int64_t last_sec = log.samples.back().sec;
  for (int64_t k = 0; k < 5; ++k) {
    QueryLogRecord r = log.records.back();
    r.arrival_ms = (last_sec + 3 + k) * 1000 + 7 * k;
    log.records.push_back(r);
  }
  const LogStore catalog = SyntheticCatalog();
  for (int workers : {1, 3}) {
    fleet::FleetReplayOptions options;
    options.num_ingest_workers = workers;
    const fleet::FleetResult result = Solo(log, catalog, options);
    EXPECT_EQ(result.stats.ingest.records_enqueued, log.records.size())
        << workers << " workers";
  }
}

TEST(ReplayTest, SeverityZeroActionFaultInjectorIsNoOp) {
  const ReplayLog log = SyntheticIncident();
  const LogStore catalog = SyntheticCatalog();
  fleet::FleetReplayOptions options;

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
    const fleet::FleetResult result = Solo(log, catalog, options, &supervisor);
    EXPECT_EQ(result.stats.repairs_applied, 1u) << "the loop must close";
    return result.InstanceFingerprint(0);
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace pinsql::online
