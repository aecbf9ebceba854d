#ifndef PINSQL_EVAL_ONLINE_E2E_H_
#define PINSQL_EVAL_ONLINE_E2E_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/case_generator.h"
#include "fleet/fleet_replay.h"
#include "online/replay.h"

namespace pinsql::eval {

/// Converts a generated anomaly case into the online service's input: the
/// case's query-log records plus one PerfSample per monitored second.
online::ReplayLog RecordCaseReplay(const AnomalyCaseData& data);

struct OnlineE2EOptions {
  int num_cases = 6;
  uint64_t seed = 7;
  /// Case shape (per-case seed and anomaly type are derived from `seed`
  /// and the case index).
  CaseGenOptions case_gen;
  /// Fleet (ingestor/detector/scheduler) tuning and ingest-worker count of
  /// the fleet-of-one replay each case runs.
  fleet::FleetReplayOptions replay;
  /// Close the loop: run a shadow engine + RepairSupervisor per case so
  /// confirmed R-SQLs are actually repaired and time-to-repair is real.
  bool with_repair = true;
  /// Action-layer fault severity on the repair control plane (0 = perfect;
  /// the online path must behave identically to no injector at 0).
  double action_fault_severity = 0.0;
  /// Attach an ActionFaultInjector at all. With false, the supervisor runs
  /// hook-free — the reference a severity-0 injector must be
  /// indistinguishable from.
  bool use_fault_hook = true;
  /// A trigger is a true detection when its onset falls within this many
  /// seconds of the injected anomaly period.
  int64_t onset_tolerance_sec = 30;
  /// Case admission: a generated case whose anomaly even the *offline*
  /// batch detector cannot place (e.g. the random baseline saturates the
  /// instance before the injection) is a generator artifact, not a
  /// detection miss — it is regenerated with a deterministically derived
  /// seed, at most this many times. Regenerations are reported per case,
  /// never silent.
  size_t max_case_regens = 4;
};

struct OnlineCaseOutcome {
  bool detected = false;       // some accepted trigger hit the anomaly
  size_t true_triggers = 0;    // accepted triggers inside the anomaly
  size_t false_triggers = 0;   // accepted triggers outside it
  /// trigger_sec - injected_as of the first true trigger; negative when
  /// the case was missed.
  int64_t detection_latency_sec = -1;
  bool diagnosed = false;      // a diagnosis completed OK
  bool rsql_correct = false;   // top R-SQL == injected root cause
  double ttr_sec = -1.0;       // onset -> first supervised apply
  /// Times the case was regenerated before admission (see max_case_regens).
  size_t case_regens = 0;
  std::string fingerprint;     // replay determinism digest
  fleet::FleetStats stats;
};

struct OnlineE2ESummary {
  size_t cases = 0;
  size_t detected = 0;
  double recall = 0.0;
  double precision = 0.0;  // true triggers / all accepted triggers
  /// Accepted triggers beyond the first per anomaly — the dedup guarantee
  /// says this stays 0.
  size_t duplicate_triggers = 0;
  double median_detection_latency_sec = -1.0;
  size_t diagnosed = 0;
  size_t rsql_correct = 0;
  /// Mean over cases with a successful repair; negative when none.
  double mean_ttr_sec = -1.0;
  std::vector<OnlineCaseOutcome> outcomes;
};

/// Replays one generated case through a fleet of one carrying the case's
/// supervisor and history (deterministic in (options, index)).
OnlineCaseOutcome RunOnlineCase(const OnlineE2EOptions& options, size_t index);

/// Runs every case and aggregates.
OnlineE2ESummary RunOnlineE2E(const OnlineE2EOptions& options);

/// Ingest-throughput measurement: `records` synthetic records staged into
/// a StreamIngestor and pumped. Wall-clock timed (not part of any
/// deterministic guarantee).
///
/// `cooperative` is the single-core case: ONE thread alternates staging
/// batches with Pump(), so the number is the stage + pump capability of one
/// core with no scheduler interference — the records/sec/core figure.
/// Otherwise one producer thread stages while the calling thread pumps, as
/// a collector and the fleet's advance step do.
struct ThroughputPoint {
  bool cooperative = false;
  size_t records = 0;
  double seconds = 0.0;
  double records_per_sec = 0.0;
  size_t dropped = 0;
};
ThroughputPoint RunIngestThroughput(bool cooperative, size_t records);

}  // namespace pinsql::eval

#endif  // PINSQL_EVAL_ONLINE_E2E_H_
