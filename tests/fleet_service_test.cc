/// Fleet-service suite: byte-identical fleet fingerprints across diagnoser
/// pool sizes, advance and ingest workers and repeat runs;
/// storm triage shape (bounded concurrency, zero confirmed-trigger loss);
/// noisy-neighbor attribution; graceful drain with in-flight diagnoses;
/// the stop gate; archive retention that never trims an open window.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/fleet_cases.h"
#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "store/env.h"

namespace pinsql::fleet {
namespace {

eval::FleetCaseOptions SmallCaseOptions() {
  eval::FleetCaseOptions options;
  options.num_instances = 12;
  options.instances_per_host = 4;
  options.seed = 21;
  options.duration_sec = 300;
  options.anomaly_fraction = 0.35;
  options.inject_noisy_host = true;
  return options;
}

FleetReplayOptions BaseReplayOptions() {
  FleetReplayOptions options;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 4;
  options.fleet.advance_workers = 4;
  options.num_ingest_workers = 2;
  return options;
}

TEST(FleetReplayTest, FingerprintInvariantAcrossPoolWorkersAndRuns) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(SmallCaseOptions());
  const FleetReplayOptions base = BaseReplayOptions();

  const FleetResult reference =
      RunFleetReplay(fleet_case.specs, fleet_case.logs, fleet_case.catalog,
                     base);
  const std::string fingerprint = reference.Fingerprint();
  ASSERT_FALSE(fingerprint.empty());
  // Not vacuous: the case produced real triggers and real diagnoses.
  EXPECT_GT(reference.stats.triggers_accepted, 0u);
  EXPECT_GT(reference.stats.diagnoses_ok, 0u);

  FleetReplayOptions serial_pool = base;
  serial_pool.fleet.pool.pool_size = 1;
  FleetReplayOptions wide_pool = base;
  wide_pool.fleet.pool.pool_size = 8;
  FleetReplayOptions serial_advance = base;
  serial_advance.fleet.advance_workers = 1;
  serial_advance.num_ingest_workers = 1;

  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, serial_pool)
                .Fingerprint(),
            fingerprint)
      << "diagnoser pool size changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, wide_pool)
                .Fingerprint(),
            fingerprint)
      << "diagnoser pool size changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, serial_advance)
                .Fingerprint(),
            fingerprint)
      << "advance/ingest worker count changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, base)
                .Fingerprint(),
            fingerprint)
      << "repeat run diverged";
}

TEST(FleetReplayTest, DiagnosedRootCauseMatchesInjectedCulprit) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(SmallCaseOptions());
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog,
      BaseReplayOptions());

  size_t checked = 0;
  size_t correct = 0;
  for (const FleetOutcome& outcome : result.outcomes) {
    if (outcome.disposition != FleetOutcome::Disposition::kDiagnosed ||
        !outcome.outcome.ok || outcome.outcome.report.hsqls.empty()) {
      continue;
    }
    const auto& truth = fleet_case.truth[outcome.outcome.trigger.instance_id];
    if (truth.kind == eval::FleetInstanceTruth::Kind::kClean) continue;
    ++checked;
    // The fleet runs with no workload history, so R-SQL verification falls
    // back and the H-SQL ranking is the discriminating signal (same as the
    // solo online deployment).
    if (outcome.outcome.report.hsqls.front().sql_id == truth.culprit_sql_id) {
      ++correct;
    }
  }
  ASSERT_GT(checked, 0u);
  // The synthetic culprit surge is unambiguous; the pipeline should nail
  // most of them (exactness is covered by the single-instance e2e suite).
  EXPECT_GE(correct * 2, checked);
}

void StormCollapsesWithZeroLoss(int64_t duration_sec) {
  eval::FleetCaseOptions case_options;
  case_options.num_instances = 16;
  case_options.instances_per_host = 4;
  case_options.seed = 33;
  case_options.duration_sec = duration_sec;
  case_options.anomaly_fraction = 0.0;
  case_options.inject_noisy_host = false;
  case_options.inject_storm = true;
  case_options.storm_fraction = 0.8;
  case_options.storm_onset_offset_sec = 200;
  case_options.storm_duration_sec = 80;
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(case_options);

  FleetReplayOptions options = BaseReplayOptions();
  options.fleet.pool.pool_size = 2;
  options.fleet.correlator.storm_min_instances = 6;
  options.fleet.correlator.storm_window_sec = 20;
  options.fleet.correlator.storm_triage_k = 3;
  options.fleet.correlator.neighbor_min_cotenants = 0;  // isolate storms
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);

  ASSERT_GE(result.stats.storms_detected, 1u);
  ASSERT_FALSE(result.storms.empty());
  int64_t last_sec = std::numeric_limits<int64_t>::min();
  for (const online::ReplayLog& log : fleet_case.logs) {
    if (!log.samples.empty()) {
      last_sec = std::max(last_sec, log.samples.back().sec);
    }
  }
  EXPECT_EQ(result.storms.back().closed_sec == last_sec, duration_sec == 225)
      << "the short stream must end with the storm still open";

  // Concurrency never exceeded the pool bound.
  EXPECT_LE(result.stats.pool.max_observed_concurrency,
            options.fleet.pool.pool_size);
  EXPECT_GE(result.stats.pool.max_observed_concurrency, 1u);

  // Zero confirmed-trigger loss: every accepted trigger is accounted as
  // either a full diagnosis or an explicit storm deferral.
  size_t diagnosed = 0;
  size_t deferred = 0;
  for (const FleetOutcome& outcome : result.outcomes) {
    if (outcome.disposition == FleetOutcome::Disposition::kDiagnosed) {
      ++diagnosed;
    } else {
      ++deferred;
      EXPECT_NE(outcome.storm_batch, 0u);
      EXPECT_FALSE(outcome.outcome.ok);
    }
  }
  EXPECT_EQ(diagnosed + deferred, result.stats.triggers_accepted);
  EXPECT_EQ(deferred, result.stats.storm_deferred);
  EXPECT_GT(deferred, 0u) << "storm did not collapse anything";

  for (const StormBatch& storm : result.storms) {
    EXPECT_GE(storm.closed_sec, storm.opened_sec);
    EXPECT_LE(storm.triaged.size(), options.fleet.correlator.storm_triage_k);
    EXPECT_GE(storm.members.size(), storm.triaged.size());
    // Triaged members really ran: each has a diagnosed outcome tagged with
    // the batch id.
    for (uint32_t instance_id : storm.triaged) {
      const bool found = std::any_of(
          result.outcomes.begin(), result.outcomes.end(),
          [&](const FleetOutcome& outcome) {
            return outcome.disposition ==
                       FleetOutcome::Disposition::kDiagnosed &&
                   outcome.storm_batch == storm.id &&
                   outcome.outcome.trigger.instance_id == instance_id;
          });
      EXPECT_TRUE(found) << "triaged instance " << instance_id
                         << " of batch " << storm.id << " never diagnosed";
    }
  }
}

TEST(FleetServiceTest, StormCollapsesIntoBoundedTriageWithZeroLoss) {
  // 360 s: the storm closes mid-stream. 225 s: the stream ends while it is
  // still open, so Stop() closes it and must report its deferred members.
  for (const int64_t duration_sec : {int64_t{360}, int64_t{225}}) {
    SCOPED_TRACE(duration_sec);
    StormCollapsesWithZeroLoss(duration_sec);
  }
}

TEST(FleetServiceTest, NoisyNeighborAttributionFindsDominantTenant) {
  eval::FleetCaseOptions case_options = SmallCaseOptions();
  case_options.anomaly_fraction = 0.1;
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(case_options);

  FleetReplayOptions options = BaseReplayOptions();
  options.fleet.correlator.storm_min_instances = 100;  // isolate neighbors
  options.fleet.correlator.neighbor_min_cotenants = 3;
  options.fleet.correlator.neighbor_window_sec = 120;
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);

  const auto verdict = std::find_if(
      result.neighbors.begin(), result.neighbors.end(),
      [&](const NoisyNeighborVerdict& v) {
        return v.host_id == fleet_case.noisy_host_id;
      });
  ASSERT_NE(verdict, result.neighbors.end())
      << "injected noisy host never flagged";
  EXPECT_EQ(verdict->dominant_instance, fleet_case.noisy_dominant_instance);
  EXPECT_GE(verdict->cotenants.size(), 3u);
  for (uint32_t instance_id : verdict->cotenants) {
    EXPECT_EQ(fleet_case.truth[instance_id].host_id,
              fleet_case.noisy_host_id)
        << "verdict crossed hosts";
  }
}

TEST(FleetServiceTest, GracefulDrainRunsInFlightDiagnoses) {
  const std::vector<FleetInstanceSpec> specs = {{1, 0}, {2, 0}};
  FleetOptions options;
  options.scheduler.diagnose_delay_sec = 60;
  options.scheduler.cooldown_sec = 300;
  options.pool.pool_size = 2;
  options.advance_workers = 2;
  FleetService service(specs, options);
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT c FROM t0 WHERE k = ?";
  entry.kind = sqltpl::StatementKind::kSelect;
  entry.tables = {"t0"};
  service.RegisterTemplateFleetWide(1001, entry);
  service.Start();

  // 100 s of calm, then a hard step: the trigger confirms a few seconds
  // in, but its diagnosis is due ~60 s later — past the stream's end.
  std::vector<FleetOutcome> advanced;
  for (int64_t sec = 0; sec < 140; ++sec) {
    for (uint32_t instance_id = 1; instance_id <= 2; ++instance_id) {
      const int64_t records = sec >= 100 ? 20 : 2;
      for (int64_t k = 0; k < records; ++k) {
        QueryLogRecord record;
        record.arrival_ms = sec * 1000 + k;
        record.sql_id = 1001;
        record.response_ms = sec >= 100 ? 90.0 : 4.0;
        record.examined_rows = sec >= 100 ? 30000 : 40;
        service.IngestRecord(instance_id, record);
      }
      online::PerfSample sample;
      sample.sec = sec;
      sample.active_session = sec >= 100 ? 45.0 : 5.0;
      sample.cpu_usage = 20.0;
      service.IngestMetrics(instance_id, sample);
    }
    for (FleetOutcome& outcome : service.AdvanceTo(sec)) {
      advanced.push_back(std::move(outcome));
    }
  }

  const FleetStats before = service.stats();
  ASSERT_EQ(before.triggers_accepted, 2u) << "one trigger per instance";
  EXPECT_TRUE(advanced.empty()) << "diagnoses were not yet due";
  EXPECT_EQ(before.pool.completed, 0u);

  const std::vector<FleetOutcome> drained = service.Stop();
  EXPECT_FALSE(service.running());
  const FleetStats after = service.stats();
  ASSERT_EQ(drained.size(), 2u);
  std::set<uint32_t> seen;
  for (const FleetOutcome& outcome : drained) {
    EXPECT_EQ(outcome.disposition, FleetOutcome::Disposition::kDiagnosed);
    EXPECT_TRUE(outcome.outcome.ok) << outcome.outcome.error;
    seen.insert(outcome.outcome.trigger.instance_id);
  }
  EXPECT_EQ(seen, (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(after.diagnoses_ok, 2u);
  EXPECT_LE(after.pool.max_observed_concurrency, options.pool.pool_size);

  // Idempotent: a second drain reports nothing and runs nothing.
  EXPECT_TRUE(service.Stop().empty());
  EXPECT_EQ(service.stats().diagnoses_ok, 2u);
}

/// Env whose file opens always fail: every instance's journal writer fails
/// to open and the fleet degrades to in-memory operation.
class OpenFailEnv : public store::Env {
 public:
  StatusOr<std::unique_ptr<store::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Status::Internal("injected open failure: " + path);
  }
  Status ReadFile(const std::string& path, std::string* out) override {
    return store::PosixEnv()->ReadFile(path, out);
  }
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    return store::PosixEnv()->ListDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return store::PosixEnv()->CreateDirs(dir);
  }
  Status DeleteFile(const std::string& path) override {
    return store::PosixEnv()->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return store::PosixEnv()->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return store::PosixEnv()->TruncateFile(path, size);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return store::PosixEnv()->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return store::PosixEnv()->FileExists(path);
  }
  Status SyncDir(const std::string& dir) override {
    return store::PosixEnv()->SyncDir(dir);
  }
};

TEST(FleetServiceTest, DegradedJournalDoesNotAccumulatePendingRecords) {
  std::string data_dir = ::testing::TempDir() + "pinsql_fleet_XXXXXX";
  ASSERT_NE(mkdtemp(data_dir.data()), nullptr);
  OpenFailEnv env;
  FleetOptions options;
  options.data_dir = data_dir;
  options.env = &env;
  FleetService service({{7, 0}}, options);
  service.Start();

  // The instance runs in-memory: ingest keeps streaming, and nothing may
  // buffer for a journal that has no writer to drain it.
  for (int64_t sec = 0; sec < 60; ++sec) {
    for (int64_t k = 0; k < 5; ++k) {
      QueryLogRecord record;
      record.arrival_ms = sec * 1000 + k;
      record.sql_id = 1001;
      record.response_ms = 4.0;
      record.examined_rows = 40;
      EXPECT_TRUE(service.IngestRecord(7, record));
    }
    online::PerfSample sample;
    sample.sec = sec;
    sample.active_session = 5.0;
    EXPECT_TRUE(service.IngestMetrics(7, sample));
    service.AdvanceTo(sec);
  }
  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.pending_journal_records, 0u);
  EXPECT_GT(stats.ingest.records_enqueued, 0u);
  service.Stop();
}

TEST(FleetServiceTest, LateRecordIsRefusedAndNeverJournaled) {
  std::string data_dir = ::testing::TempDir() + "pinsql_fleet_XXXXXX";
  ASSERT_NE(mkdtemp(data_dir.data()), nullptr);
  FleetOptions options;
  options.data_dir = data_dir;
  options.ingestor.late_grace_sec = 60;
  constexpr uint64_t kLateId = 4242;
  size_t accepted = 0;
  {
    FleetService service({{7, 0}}, options);
    service.Start();
    for (int64_t sec = 0; sec < 120; ++sec) {
      for (int64_t k = 0; k < 3; ++k) {
        QueryLogRecord record;
        record.arrival_ms = sec * 1000 + k;
        record.sql_id = 1001;
        record.response_ms = 4.0;
        record.examined_rows = 40;
        ASSERT_TRUE(service.IngestRecord(7, record));
        ++accepted;
      }
      if (sec == 100) {
        // Older than watermark (99) - grace (60): refused and counted once.
        QueryLogRecord late;
        late.arrival_ms = 10'000;
        late.sql_id = kLateId;
        EXPECT_FALSE(service.IngestRecord(7, late));
      }
      online::PerfSample sample;
      sample.sec = sec;
      sample.active_session = 5.0;
      ASSERT_TRUE(service.IngestMetrics(7, sample));
      service.AdvanceTo(sec);
    }
    const FleetStats stats = service.stats();
    EXPECT_EQ(stats.ingest.records_dropped_late, 1u);
    EXPECT_EQ(stats.ingest.records_enqueued, accepted + 1);
    EXPECT_EQ(stats.ingest.records_folded, accepted);
    service.Stop();
    const std::vector<QueryLogRecord> archived =
        service.archive(7)->SnapshotRange(0, 120'000);
    EXPECT_EQ(archived.size(), accepted);
    for (const QueryLogRecord& record : archived) {
      EXPECT_NE(record.sql_id, kLateId) << "late record was archived";
    }
  }
  // The journal holds only what the ingestor accepted.
  FleetService restarted({{7, 0}}, options);
  restarted.Start();
  EXPECT_EQ(restarted.recovery().records, accepted);
  restarted.Stop();
}

TEST(FleetServiceTest, UnknownInstanceIngestIsRejected) {
  FleetService service({{7, 0}}, FleetOptions{});
  service.Start();
  online::PerfSample sample;
  sample.sec = 1;
  EXPECT_FALSE(service.IngestMetrics(8, sample));
  EXPECT_TRUE(service.IngestMetrics(7, sample));
  EXPECT_FALSE(service.IngestRecord(8, QueryLogRecord{}));
  EXPECT_EQ(service.archive(8), nullptr);
  ASSERT_NE(service.archive(7), nullptr);
  service.Stop();
}

// --- Stop gate ----------------------------------------------------------------

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response = 4.0,
                   int64_t rows = 40) {
  QueryLogRecord record;
  record.arrival_ms = arrival_ms;
  record.sql_id = sql_id;
  record.response_ms = response;
  record.examined_rows = rows;
  return record;
}

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample sample;
  sample.sec = sec;
  sample.active_session = session;
  sample.cpu_usage = 20.0;
  return sample;
}

std::string MakeDataDir() {
  std::string dir = ::testing::TempDir() + "pinsql_fleet_XXXXXX";
  EXPECT_NE(mkdtemp(dir.data()), nullptr);
  return dir;
}

/// 100 s of calm, then a hard step on template 1001 — one incident.
/// Appends what the advances handed out to `outcomes` and `events`.
void StreamStep(FleetService* service, uint32_t instance_id, int64_t from_sec,
                int64_t to_sec, std::vector<FleetOutcome>* outcomes,
                FleetEvents* events) {
  for (int64_t sec = from_sec; sec < to_sec; ++sec) {
    const bool anomalous = sec >= 100;
    for (int64_t k = 0; k < (anomalous ? 20 : 2); ++k) {
      service->IngestRecord(
          instance_id, Rec(sec * 1000 + k, 1001, anomalous ? 90.0 : 4.0,
                           anomalous ? 30000 : 40));
    }
    service->IngestMetrics(instance_id, Sample(sec, anomalous ? 45.0 : 5.0));
    for (FleetOutcome& outcome : service->AdvanceTo(sec, events)) {
      outcomes->push_back(std::move(outcome));
    }
  }
}

TEST(FleetServiceTest, StoppedDurableFleetRefusesIngestAndRecovers) {
  const std::string data_dir = MakeDataDir();
  FleetOptions options;
  options.data_dir = data_dir;
  options.scheduler.zero_timings = true;
  std::string live;
  {
    FleetService service({{7, 0}}, options);
    // Before Start(): refused whole and counted — never staged, so never
    // archived without a journal entry behind it.
    EXPECT_FALSE(service.IngestRecord(7, Rec(50'000, 1001, 900.0, 900'000)));
    EXPECT_FALSE(service.IngestMetrics(7, Sample(50, 5.0)));
    FleetEvents events;
    std::vector<FleetOutcome> outcomes = service.Start(&events);
    StreamStep(&service, 7, 0, 140, &outcomes, &events);
    for (FleetOutcome& outcome : service.Stop(&events)) {
      outcomes.push_back(std::move(outcome));
    }
    // After Stop(): the same.
    EXPECT_FALSE(service.IngestRecord(7, Rec(141'000, 1001)));
    EXPECT_FALSE(service.IngestMetrics(7, Sample(141, 5.0)));
    const FleetStats stats = service.stats();
    EXPECT_EQ(stats.records_rejected_stopped, 2u);
    EXPECT_EQ(stats.samples_rejected_stopped, 2u);
    EXPECT_EQ(stats.ingest.records_enqueued, stats.ingest.records_folded);
    ASSERT_EQ(stats.diagnoses_ok, 1u) << "the step must be diagnosed";
    ASSERT_EQ(outcomes.size(), 1u) << "reported once";
    ASSERT_EQ(events.confirmed.size(), 1u) << "handed out once";
    live = CollectFleetResult(service, std::move(outcomes), std::move(events))
               .Fingerprint();
  }
  // The journal holds exactly what the live run processed, and no
  // checkpoint covers any of it: a restart's replay hands out every
  // outcome and confirmed trigger again, byte-identically.
  FleetService restarted({{7, 0}}, options);
  FleetEvents events;
  std::vector<FleetOutcome> recovered = restarted.Start(&events);
  EXPECT_TRUE(restarted.recovery().attempted);
  EXPECT_FALSE(restarted.recovery().checkpoint_loaded);
  for (FleetOutcome& outcome : restarted.Stop(&events)) {
    recovered.push_back(std::move(outcome));
  }
  EXPECT_EQ(CollectFleetResult(restarted, std::move(recovered),
                               std::move(events))
                .Fingerprint(),
            live);
}

TEST(FleetServiceTest, DrainMergesALaggingInstancesTriggerBehindTheClock) {
  // Instance 1 drives the fleet clock to 100500 while instance 0 stops at
  // 100399; instance 0's anomalous seconds 100400-100450 arrive only after
  // that. Stop()'s drain processes them behind the fleet clock, which does
  // not move: their trigger must still be confirmed, handed out and
  // diagnosed — exactly as when one more fleet second merges it first.
  std::vector<std::string> digests;
  for (const bool one_more_second : {false, true}) {
    SCOPED_TRACE(one_more_second);
    FleetOptions options;
    options.scheduler.zero_timings = true;
    FleetService service({{0, 0}, {1, 1}}, options);
    FleetEvents events;
    std::vector<FleetOutcome> outcomes = service.Start(&events);
    const auto take = [&](std::vector<FleetOutcome> more) {
      for (FleetOutcome& outcome : more) outcomes.push_back(std::move(outcome));
    };
    const auto feed = [&](uint32_t id, int64_t sec, bool anomalous) {
      for (int64_t k = 0; k < (anomalous ? 20 : 2); ++k) {
        service.IngestRecord(
            id, Rec(sec * 1000 + k, 1001, anomalous ? 90.0 : 4.0,
                    anomalous ? 30000 : 40));
      }
      service.IngestMetrics(id, Sample(sec, anomalous ? 45.0 : 5.0));
    };
    for (int64_t sec = 100'000; sec < 100'400; ++sec) {
      feed(0, sec, false);
      feed(1, sec, false);
      take(service.AdvanceTo(sec, &events));
    }
    for (int64_t sec = 100'400; sec <= 100'500; ++sec) feed(1, sec, false);
    take(service.AdvanceTo(100'500, &events));
    for (int64_t sec = 100'400; sec <= 100'450; ++sec) feed(0, sec, true);
    if (one_more_second) {
      feed(1, 100'501, false);
      take(service.AdvanceTo(100'501, &events));
    }
    take(service.Stop(&events));

    EXPECT_EQ(service.stats().triggers_confirmed, 1u);
    ASSERT_EQ(events.confirmed.size(), 1u);
    EXPECT_EQ(events.confirmed[0].instance_id, 0u);
    EXPECT_GE(events.confirmed[0].onset_sec, 100'400);
    ASSERT_EQ(outcomes.size(), 1u) << "the lagging trigger is diagnosed";
    EXPECT_EQ(outcomes[0].disposition, FleetOutcome::Disposition::kDiagnosed);
    std::string digest;
    AppendOutcomeFingerprint(outcomes[0].outcome, &digest);
    digests.push_back(digest);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(FleetServiceTest, GracefulDrainUnderRacingProducers) {
  FleetOptions options;
  options.ingestor.window_sec = 3600;
  FleetService service({{7, 0}}, options);
  EXPECT_FALSE(service.IngestRecord(7, Rec(999'000, 1)));  // not started
  service.Start();

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> producers;
  for (int tid = 0; tid < kProducers; ++tid) {
    producers.emplace_back([&, tid]() {
      for (int i = 0; i < kPerProducer; ++i) {
        if (service.IngestRecord(7, Rec(1'000'000 + (i % 600) * 1000 + tid,
                                        1 + static_cast<uint64_t>(i % 5)))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread metronome([&]() {
    for (int64_t sec = 1000; sec < 1040; ++sec) {
      service.IngestMetrics(7, Sample(sec, 5.0));
      service.AdvanceTo(sec);
    }
  });
  for (auto& t : producers) t.join();
  metronome.join();
  service.Stop();
  EXPECT_FALSE(service.running());

  // Drain accounting closes: every accepted record was archived or dropped
  // with a counted reason; every watermark second was processed.
  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.ingest.records_enqueued,
            accepted.load() + stats.ingest.records_dropped_backpressure);
  EXPECT_EQ(stats.ingest.records_folded + stats.ingest.records_dropped_late,
            accepted.load());
  EXPECT_EQ(stats.ingest.records_staged, 0u);
  EXPECT_EQ(stats.seconds_processed, 40);
  EXPECT_EQ(stats.samples_observed, 40u);

  service.Stop();  // idempotent
  EXPECT_EQ(service.stats().seconds_processed, 40);

  // Refused whole and counted before Start() and after Stop().
  EXPECT_FALSE(service.IngestRecord(7, Rec(1'100'000, 1)));
  EXPECT_FALSE(service.IngestMetrics(7, Sample(1100, 5.0)));
  const FleetStats after = service.stats();
  EXPECT_EQ(after.records_rejected_stopped, 2u);
  EXPECT_EQ(after.samples_rejected_stopped, 1u);
  EXPECT_EQ(after.ingest.records_enqueued, stats.ingest.records_enqueued);
}

TEST(FleetServiceTest, StopRacingProducersJournalsEveryAcceptedRecord) {
  // Producers hammer a durable fleet while the main thread Stop()s
  // mid-stream. Every call either lands whole before the drain's cut —
  // staged, archived and journaled — or is refused and counted; nothing is
  // stranded staged or accepted without a journal entry.
  const std::string data_dir = MakeDataDir();
  FleetOptions options;
  options.data_dir = data_dir;
  options.ingestor.window_sec = 3600;
  options.wal.fsync = store::FsyncPolicy::kNever;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> refused{0};
  {
    FleetService service({{7, 0}}, options);
    service.Start();
    service.IngestMetrics(7, Sample(2000, 5.0));
    service.AdvanceTo(2000);
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (int tid = 0; tid < kProducers; ++tid) {
      producers.emplace_back([&, tid]() {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kPerProducer; ++i) {
          if (service.IngestRecord(
                  7, Rec(2'000'000 + (i % 1000) + tid,
                         1 + static_cast<uint64_t>(i % 5)))) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else {
            refused.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    service.Stop();  // the gate decides each call
    for (auto& t : producers) t.join();

    const FleetStats stats = service.stats();
    EXPECT_EQ(stats.ingest.records_enqueued, accepted.load());
    EXPECT_EQ(stats.records_rejected_stopped, refused.load());
    EXPECT_EQ(stats.ingest.records_staged, 0u);
    EXPECT_EQ(stats.ingest.records_folded, accepted.load());
  }
  FleetService restarted({{7, 0}}, options);
  restarted.Start();
  EXPECT_EQ(restarted.recovery().records, accepted.load());
  restarted.Stop();
}

// --- Archive retention ------------------------------------------------------

/// A fleet second past the 3-day horizon and on the sweep cadence, and the
/// retention edge it implies.
constexpr int64_t kNowSec = 759'240;
static_assert(kNowSec % FleetService::kRetentionEverySec == 0);
constexpr int64_t kEdgeMs = kNowSec * 1000 - LogStore::kRetentionMs;

FleetOptions RetentionOptions() {
  FleetOptions options;
  // Records older than the 3-day horizon are not late for this ingestor,
  // and its metric ring is short, so its window floor pins nothing there.
  options.ingestor.late_grace_sec = 4 * 24 * 3600;
  options.ingestor.window_sec = 60;
  return options;
}

online::AnomalyTrigger TriggerAt(int64_t onset_sec) {
  online::AnomalyTrigger trigger;
  trigger.instance_id = 7;
  trigger.onset_sec = onset_sec;
  trigger.trigger_sec = onset_sec + 3;
  trigger.severity = 10.0;
  trigger.pettitt_p = 0.01;
  return trigger;
}

/// A diagnosis still waiting for its slot: due after kNowSec, so it is
/// queued when the sweep runs.
QueuedTrigger QueuedAt(int64_t onset_sec, uint64_t seq) {
  QueuedTrigger entry;
  entry.trigger = TriggerAt(onset_sec);
  entry.enqueue_sec = entry.trigger.trigger_sec;
  entry.due_sec = kNowSec + 60;
  entry.base_priority = entry.trigger.severity;
  entry.seq = seq;
  return entry;
}

/// Streams `records` plus the sample at kNowSec, one fleet second: the
/// retention sweep runs right after its dispatch wave.
void SweepOnce(FleetService* service,
               const std::vector<QueryLogRecord>& records) {
  for (const QueryLogRecord& record : records) {
    ASSERT_TRUE(service->IngestRecord(7, record));
  }
  ASSERT_TRUE(service->IngestMetrics(7, Sample(kNowSec, 5.0)));
  service->AdvanceTo(kNowSec);
}

std::vector<uint64_t> ArchivedIds(FleetService* service) {
  std::vector<uint64_t> ids;
  for (const QueryLogRecord& record :
       service->archive(7)->SnapshotRange(0, kNowSec * 1000 + 1)) {
    ids.push_back(record.sql_id);
  }
  return ids;
}

TEST(FleetRetentionTest, RetentionNeverTrimsAnOpenDiagnosisWindow) {
  // A queued diagnosis whose lookback window starts exactly at the 3-day
  // retention edge: the sweep keeps every record it will scan — including
  // the record at the exact edge — while still retiring everything older.
  const FleetOptions options = RetentionOptions();
  FleetService service({{7, 0}}, options);
  FleetState state = service.ExportState();
  const int64_t lookback = options.scheduler.diagnoser.delta_s_sec;
  state.scheduler.queue.push_back(QueuedAt(kEdgeMs / 1000 + lookback, 1));
  state.scheduler.next_seq = 2;
  ASSERT_TRUE(service.ImportState(state).ok());
  service.Start();

  SweepOnce(&service, {Rec(kEdgeMs - 2000, 1),    // expired, no window
                       Rec(kEdgeMs - 1, 2),       // expired by 1 ms
                       Rec(kEdgeMs, 3),           // exact edge: retained
                       Rec(kEdgeMs + 1000, 4)});  // inside the window
  EXPECT_EQ(ArchivedIds(&service), (std::vector<uint64_t>{3, 4}));
  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.retention_sweeps, 1u);
  EXPECT_EQ(stats.records_retired, 2u);
  service.Stop();
}

TEST(FleetRetentionTest, OpenWindowFloorCoversPendingDiagnoses) {
  // Two queued diagnoses: the older lookback wins, and it lies *before*
  // the retention horizon — records older than 3 days that a pending
  // diagnosis still needs survive; one millisecond older does not.
  const FleetOptions options = RetentionOptions();
  FleetService service({{7, 0}}, options);
  FleetState state = service.ExportState();
  const int64_t lookback = options.scheduler.diagnoser.delta_s_sec;
  const int64_t early_onset = kEdgeMs / 1000 - 500;
  state.scheduler.queue.push_back(QueuedAt(kEdgeMs / 1000 + 900, 1));
  state.scheduler.queue.push_back(QueuedAt(early_onset, 2));
  state.scheduler.next_seq = 3;
  ASSERT_TRUE(service.ImportState(state).ok());
  service.Start();

  const int64_t floor_ms = (early_onset - lookback) * 1000;
  SweepOnce(&service, {Rec(floor_ms - 1, 1), Rec(floor_ms, 2),
                       Rec(kEdgeMs - 1, 3), Rec(kEdgeMs + 5, 4)});
  EXPECT_EQ(ArchivedIds(&service), (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(service.stats().records_retired, 1u);
  service.Stop();
}

TEST(FleetRetentionTest, OpenStormMemberPinsItsWindow) {
  // A trigger held by an open storm batch is not queued, yet its diagnosis
  // may still run once triage picks it: its lookback is pinned too, even
  // past the retention horizon.
  FleetOptions options = RetentionOptions();
  options.correlator.storm_min_instances = 1;  // keeps the batch open
  FleetService service({{7, 0}}, options);
  FleetState state = service.ExportState();
  const int64_t lookback = options.scheduler.diagnoser.delta_s_sec;
  const int64_t onset = kEdgeMs / 1000 - 500;
  StormBatch batch;
  batch.id = 1;
  batch.opened_sec = kNowSec - 5;
  batch.members.push_back({TriggerAt(onset), kNowSec + 60, 10.0});
  state.correlator.open_batch = batch;
  state.correlator.recent.emplace_back(kNowSec - 1, 7);
  state.correlator.next_batch_id = 2;
  state.correlator.storms_detected = 1;
  ASSERT_TRUE(service.ImportState(state).ok());
  service.Start();

  const int64_t floor_ms = (onset - lookback) * 1000;
  SweepOnce(&service,
            {Rec(floor_ms - 1, 1), Rec(floor_ms, 2), Rec(kEdgeMs - 1, 3)});
  ASSERT_EQ(service.stats().pool.enqueued, 0u) << "the storm must stay open";
  EXPECT_EQ(ArchivedIds(&service), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(service.stats().records_retired, 1u);
  service.Stop();
}

TEST(FleetRetentionTest, OpenWindowFloorSurvivesACheckpointRoundTrip) {
  // Restart regression: a pending diagnosis is checkpointed and restored in
  // a fresh fleet (from a copy of the data dir taken without Stop, as a
  // crash leaves it). The restored fleet must keep every record the
  // still-pending diagnosis will scan — exactly as before the restart.
  FleetOptions options = RetentionOptions();
  options.data_dir = MakeDataDir();
  const std::string crash_copy = MakeDataDir();
  const int64_t lookback = options.scheduler.diagnoser.delta_s_sec;
  const int64_t onset = kEdgeMs / 1000 - 500;  // pinned past the horizon
  {
    FleetService service({{7, 0}}, options);
    FleetState state = service.ExportState();
    state.scheduler.queue.push_back(QueuedAt(onset, 1));
    state.scheduler.next_seq = 2;
    ASSERT_TRUE(service.ImportState(state).ok());
    service.Start();
    ASSERT_TRUE(service.Checkpoint().ok());
    std::filesystem::copy(options.data_dir, crash_copy,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
  }
  options.data_dir = crash_copy;
  FleetService restored({{7, 0}}, options);
  restored.Start();
  ASSERT_TRUE(restored.recovery().checkpoint_loaded);
  const int64_t floor_ms = (onset - lookback) * 1000;
  SweepOnce(&restored, {Rec(floor_ms - 1, 1), Rec(floor_ms, 2),
                        Rec(kEdgeMs - 1, 3), Rec(kEdgeMs, 4)});
  EXPECT_EQ(ArchivedIds(&restored), (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(restored.stats().records_retired, 1u);
  restored.Stop();
}

}  // namespace
}  // namespace pinsql::fleet
