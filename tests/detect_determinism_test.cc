#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "detect/forecast.h"
#include "fleet/fleet_replay.h"
#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/replay.h"

namespace pinsql::online {
namespace {

/// Deterministic pseudo-noise without touching global rng state.
double Noise(uint64_t i, double amplitude) {
  uint64_t x = i * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return amplitude * (static_cast<double>(x % 2000) / 1000.0 - 1.0);
}

PerfSample Sample(int64_t sec, double session) {
  PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

OnlineDetectorOptions StockOptions() {
  OnlineDetectorOptions options;
  options.forecasters = detect::DefaultEnsembleForecasters();
  return options;
}

/// A creep the robust-z screen absorbs but the EWMA member's CUSUM
/// accumulates: flat baseline, then +0.02 sessions/sec for 20 minutes.
std::vector<double> DriftSessions() {
  std::vector<double> values;
  for (size_t i = 0; i < 700; ++i) values.push_back(8.0 + Noise(i, 0.4));
  for (size_t i = 0; i < 1200; ++i) {
    values.push_back(8.0 + 0.02 * static_cast<double>(i) + Noise(i, 0.4));
  }
  return values;
}

/// The drift case as a recorded stream: per-second samples plus a steady
/// trickle of query records so a confirmed trigger has something to
/// diagnose.
ReplayLog DriftIncident() {
  ReplayLog log;
  const int64_t t0 = 100'000;
  const std::vector<double> sessions = DriftSessions();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const int64_t sec = t0 + static_cast<int64_t>(i);
    log.samples.push_back(Sample(sec, sessions[i]));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const bool ramping = i >= 700;
    const int count = 5 + (ramping ? static_cast<int>((i - 700) / 120) : 0);
    for (int j = 0; j < count; ++j) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = j < 5 ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = j < 5 ? 2.0 : 90.0 + static_cast<double>(i - 700) / 8.0;
      r.examined_rows = j < 5 ? 20 : 200'000;
      log.records.push_back(r);
    }
  }
  return log;
}

LogStore DriftCatalog() {
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

TEST(DetectDeterminismTest, EnsembleReplayFingerprintAcrossIngestThreads) {
  const ReplayLog log = DriftIncident();
  const LogStore catalog = DriftCatalog();
  fleet::FleetReplayOptions options;
  options.num_ingest_workers = 1;
  options.fleet.detector = StockOptions();
  const auto replay = [&](const fleet::FleetReplayOptions& o) {
    return fleet::RunFleetReplay({{0, 0}}, {log}, catalog, o);
  };

  const fleet::FleetResult base = replay(options);
  // The whole point of the forecaster members: the creep is confirmed.
  ASSERT_FALSE(base.outcomes.empty()) << "drift must trigger a diagnosis";
  EXPECT_EQ(base.outcomes[0].outcome.trigger.source, "ewma");

  const std::string fingerprint = base.InstanceFingerprint(0);
  EXPECT_EQ(replay(options).InstanceFingerprint(0), fingerprint);

  fleet::FleetReplayOptions threaded = options;
  threaded.num_ingest_workers = 4;
  EXPECT_EQ(replay(threaded).InstanceFingerprint(0), fingerprint);
}

TEST(DetectDeterminismTest, GapsNeitherTriggerNorDesyncForecasters) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  OnlineAnomalyDetector detector(StockOptions());
  int64_t sec = 0;
  size_t triggers = 0;
  auto feed = [&](double v) {
    if (detector.Observe(sec++, v)) ++triggers;
  };
  for (size_t i = 0; i < 400; ++i) feed(9.0 + Noise(i, 0.4));
  // A gap shorter than the baseline window: carried forward, never an
  // anomaly boundary, and the forecasters' CUSUMs must not accumulate a
  // fake drift out of the frozen value.
  for (size_t i = 0; i < 100; ++i) feed(kNaN);
  for (size_t i = 0; i < 300; ++i) feed(9.0 + Noise(i + 500, 0.4));
  EXPECT_EQ(triggers, 0u);
  EXPECT_EQ(detector.stats().gaps_carried, 100u);
  EXPECT_EQ(detector.stats().baseline_resets, 0u);
  // A gap that outlives the baseline window resets the whole ensemble;
  // the post-gap world at a new level is a baseline, not an anomaly.
  for (size_t i = 0; i < 200; ++i) feed(kNaN);
  for (size_t i = 0; i < 400; ++i) feed(55.0 + Noise(i + 900, 0.4));
  EXPECT_EQ(detector.stats().baseline_resets, 1u);
  EXPECT_EQ(triggers, 0u);
}

TEST(DetectDeterminismTest, ExportImportMidDriftEquivalence) {
  const std::vector<double> sessions = DriftSessions();
  const size_t split = 1400;  // mid-ramp: CUSUM evidence partially built

  OnlineAnomalyDetector full(StockOptions());
  std::vector<AnomalyTrigger> full_triggers;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (auto t = full.Observe(static_cast<int64_t>(i), sessions[i])) {
      full_triggers.push_back(*t);
    }
  }
  ASSERT_FALSE(full_triggers.empty());

  OnlineAnomalyDetector first(StockOptions());
  std::vector<AnomalyTrigger> split_triggers;
  for (size_t i = 0; i < split; ++i) {
    if (auto t = first.Observe(static_cast<int64_t>(i), sessions[i])) {
      split_triggers.push_back(*t);
    }
  }
  const OnlineDetectorState state = first.ExportState();
  OnlineAnomalyDetector resumed(StockOptions());
  resumed.ImportState(state);
  for (size_t i = split; i < sessions.size(); ++i) {
    if (auto t = resumed.Observe(static_cast<int64_t>(i), sessions[i])) {
      split_triggers.push_back(*t);
    }
  }

  ASSERT_EQ(full_triggers.size(), split_triggers.size());
  for (size_t i = 0; i < full_triggers.size(); ++i) {
    EXPECT_EQ(full_triggers[i].onset_sec, split_triggers[i].onset_sec);
    EXPECT_EQ(full_triggers[i].trigger_sec, split_triggers[i].trigger_sec);
    EXPECT_DOUBLE_EQ(full_triggers[i].severity, split_triggers[i].severity);
    EXPECT_EQ(full_triggers[i].source, split_triggers[i].source);
  }
  // Detection latencies, from the triggers Observe returned.
  const auto latencies = [](const std::vector<AnomalyTrigger>& triggers) {
    std::vector<int64_t> out;
    for (const AnomalyTrigger& t : triggers) {
      out.push_back(t.trigger_sec - t.onset_sec);
    }
    return out;
  };
  EXPECT_EQ(latencies(full_triggers), latencies(split_triggers));
  EXPECT_EQ(full.stats().triggers, resumed.stats().triggers);
  EXPECT_EQ(full.stats().pettitt_rejections,
            resumed.stats().pettitt_rejections);
}

}  // namespace
}  // namespace pinsql::online
