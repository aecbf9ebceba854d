/// Fleet-service suite: byte-identical fleet fingerprints across ingest
/// shard counts, diagnoser pool sizes, advance workers and repeat runs;
/// storm triage shape (bounded concurrency, zero confirmed-trigger loss);
/// noisy-neighbor attribution; graceful drain with in-flight diagnoses.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
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
  options.fleet.ingestor.num_shards = 4;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 4;
  options.fleet.advance_workers = 4;
  options.num_ingest_workers = 2;
  return options;
}

TEST(FleetReplayTest, FingerprintInvariantAcrossShardsPoolWorkersAndRuns) {
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

  FleetReplayOptions one_shard = base;
  one_shard.fleet.ingestor.num_shards = 1;
  FleetReplayOptions serial_pool = base;
  serial_pool.fleet.pool.pool_size = 1;
  FleetReplayOptions wide_pool = base;
  wide_pool.fleet.pool.pool_size = 8;
  FleetReplayOptions serial_advance = base;
  serial_advance.fleet.advance_workers = 1;
  serial_advance.num_ingest_workers = 1;

  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, one_shard)
                .Fingerprint(),
            fingerprint)
      << "ingest shard count changed the fleet result";
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

TEST(FleetServiceTest, StormCollapsesIntoBoundedTriageWithZeroLoss) {
  eval::FleetCaseOptions case_options;
  case_options.num_instances = 16;
  case_options.instances_per_host = 4;
  case_options.seed = 33;
  case_options.duration_sec = 360;
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
    service.AdvanceTo(sec);
  }

  const FleetStats before = service.stats();
  ASSERT_EQ(before.triggers_accepted, 2u) << "one trigger per instance";
  EXPECT_TRUE(service.outcomes().empty()) << "diagnoses were not yet due";
  EXPECT_EQ(before.pool.completed, 0u);

  service.Stop();
  EXPECT_FALSE(service.running());
  const FleetStats after = service.stats();
  ASSERT_EQ(service.outcomes().size(), 2u);
  std::set<uint32_t> seen;
  for (const FleetOutcome& outcome : service.outcomes()) {
    EXPECT_EQ(outcome.disposition, FleetOutcome::Disposition::kDiagnosed);
    EXPECT_TRUE(outcome.outcome.ok) << outcome.outcome.error;
    seen.insert(outcome.outcome.trigger.instance_id);
  }
  EXPECT_EQ(seen, (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(after.diagnoses_ok, 2u);
  EXPECT_LE(after.pool.max_observed_concurrency, options.pool.pool_size);

  service.Stop();  // idempotent
  EXPECT_EQ(service.outcomes().size(), 2u);
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

}  // namespace
}  // namespace pinsql::fleet
