/// Fleet-scale online diagnosis: hundreds to a thousand simulated
/// instances replayed behind one FleetService. Sweeps the fleet size and
/// reports ingest + detection throughput, trigger counts and detection
/// latency percentiles, then hard-checks the headline fleet guarantees at
/// the largest scale:
///
///   - byte-identical FleetResult fingerprints across {ingest workers 1 v
///     4, diagnoser pool 1 v 8} and across repeated runs;
///   - a storm collapses into prioritized triage batches with zero
///     confirmed-trigger loss and concurrency never above the pool bound;
///   - the noisy-neighbor correlator flags the injected host.
///
/// Environment knobs: PINSQL_BENCH_FLEET_INSTANCES (largest sweep point,
/// default 1000), PINSQL_BENCH_FLEET_DURATION (simulated seconds, default
/// 420), PINSQL_BENCH_SEED. `--smoke` shrinks everything for CI.
/// Exit code = number of violated shape checks.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "eval/fleet_cases.h"
#include "fleet/fleet_replay.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

pinsql::fleet::FleetReplayOptions ReplayOptions() {
  pinsql::fleet::FleetReplayOptions options;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 8;
  options.fleet.advance_workers = 4;
  options.num_ingest_workers = 2;
  return options;
}

int64_t Percentile(std::vector<int64_t> values, double p) {
  if (values.empty()) return -1;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int max_instances =
      EnvInt("PINSQL_BENCH_FLEET_INSTANCES", smoke ? 30 : 1000);
  const int duration =
      EnvInt("PINSQL_BENCH_FLEET_DURATION", smoke ? 240 : 420);
  const uint64_t seed = static_cast<uint64_t>(EnvInt("PINSQL_BENCH_SEED", 7));

  std::vector<int> sweep;
  for (int n : {50, 200, 1000}) {
    if (n < max_instances) sweep.push_back(n);
  }
  sweep.push_back(max_instances);

  std::printf("Fleet-scale online diagnosis: per-instance ingest and "
              "detectors -> cross-instance correlator -> bounded diagnoser "
              "pool\n(%d simulated seconds per instance, seed %llu)\n\n",
              duration, static_cast<unsigned long long>(seed));
  std::printf("%9s | %9s %10s | %8s %8s | %6s %6s | %7s %7s | %6s\n",
              "instances", "records", "rec/s", "inst-s/s", "wall(s)",
              "trig", "diag", "lat-p50", "lat-p99", "pool^");
  std::printf("----------+----------------------+-------------------+"
              "--------------+-----------------+-------\n");

  for (int n : sweep) {
    pinsql::eval::FleetCaseOptions case_options;
    case_options.num_instances = static_cast<size_t>(n);
    case_options.seed = seed;
    case_options.duration_sec = duration;
    const auto fleet_case = pinsql::eval::GenerateFleetCase(case_options);
    size_t total_records = 0;
    for (const auto& log : fleet_case.logs) total_records += log.records.size();

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = pinsql::fleet::RunFleetReplay(
        fleet_case.specs, fleet_case.logs, fleet_case.catalog,
        ReplayOptions());
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::vector<int64_t> latencies;
    for (const auto& [id, values] : result.latencies) {
      latencies.insert(latencies.end(), values.begin(), values.end());
    }
    const double instance_seconds = static_cast<double>(n) * duration;
    std::printf("%9d | %9zu %10.0f | %8.0f %8.2f | %6zu %6zu | %7lld %7lld "
                "| %6zu\n",
                n, total_records,
                static_cast<double>(total_records) / wall,
                instance_seconds / wall, wall, result.stats.triggers_accepted,
                result.stats.diagnoses_ok + result.stats.diagnoses_failed,
                static_cast<long long>(Percentile(latencies, 0.5)),
                static_cast<long long>(Percentile(latencies, 0.99)),
                result.stats.pool.max_observed_concurrency);
  }

  // --- Shape checks at the largest scale ---------------------------------
  std::printf("\nshape checks (%d instances):\n", max_instances);
  pinsql::eval::FleetCaseOptions case_options;
  case_options.num_instances = static_cast<size_t>(max_instances);
  case_options.seed = seed;
  case_options.duration_sec = duration;
  const auto fleet_case = pinsql::eval::GenerateFleetCase(case_options);

  const auto base_options = ReplayOptions();
  const auto base = pinsql::fleet::RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, base_options);
  const std::string fingerprint = base.Fingerprint();

  const auto fingerprint_at_workers = [&](int ingest_workers) {
    auto options = base_options;
    options.num_ingest_workers = ingest_workers;
    return pinsql::fleet::RunFleetReplay(fleet_case.specs, fleet_case.logs,
                                         fleet_case.catalog, options)
        .Fingerprint();
  };
  const bool workers_identical = fingerprint_at_workers(1) == fingerprint &&
                                 fingerprint_at_workers(4) == fingerprint;
  auto serial_pool = base_options;
  serial_pool.fleet.pool.pool_size = 1;
  const bool pool_identical =
      pinsql::fleet::RunFleetReplay(fleet_case.specs, fleet_case.logs,
                                    fleet_case.catalog, serial_pool)
          .Fingerprint() == fingerprint;
  const bool repeat_identical =
      pinsql::fleet::RunFleetReplay(fleet_case.specs, fleet_case.logs,
                                    fleet_case.catalog, base_options)
          .Fingerprint() == fingerprint;

  size_t deferred = 0;
  for (const auto& outcome : base.outcomes) {
    if (outcome.disposition ==
        pinsql::fleet::FleetOutcome::Disposition::kStormDeferred) {
      ++deferred;
    }
  }
  const bool no_loss =
      base.outcomes.size() == base.stats.triggers_accepted &&
      deferred == base.stats.storm_deferred;
  const bool bounded =
      base.stats.pool.max_observed_concurrency <=
      base_options.fleet.pool.pool_size;
  const bool triggered = base.stats.triggers_accepted > 0 &&
                         base.stats.diagnoses_ok > 0;
  bool neighbor_flagged = false;
  for (const auto& verdict : base.neighbors) {
    neighbor_flagged |= verdict.host_id == fleet_case.noisy_host_id;
  }

  // Storm run: a fleet-wide anomaly burst must collapse into triage
  // batches instead of flooding the pool, still with zero loss.
  auto storm_case_options = case_options;
  storm_case_options.num_instances =
      std::min<size_t>(case_options.num_instances, 200);
  storm_case_options.inject_noisy_host = false;
  storm_case_options.anomaly_fraction = 0.0;
  storm_case_options.inject_storm = true;
  storm_case_options.storm_fraction = 0.7;
  storm_case_options.storm_onset_offset_sec = duration / 2;
  storm_case_options.storm_duration_sec = std::min(60, duration / 4);
  const auto storm_case = pinsql::eval::GenerateFleetCase(storm_case_options);
  auto storm_options = base_options;
  storm_options.fleet.pool.pool_size = 4;
  storm_options.fleet.correlator.storm_min_instances = 8;
  storm_options.fleet.correlator.storm_window_sec = 20;
  storm_options.fleet.correlator.storm_triage_k = 4;
  const auto storm = pinsql::fleet::RunFleetReplay(
      storm_case.specs, storm_case.logs, storm_case.catalog, storm_options);
  const bool storm_detected = storm.stats.storms_detected > 0;
  const bool storm_collapsed = storm.stats.storm_deferred > 0;
  const bool storm_no_loss =
      storm.outcomes.size() == storm.stats.triggers_accepted;
  const bool storm_bounded = storm.stats.pool.max_observed_concurrency <=
                             storm_options.fleet.pool.pool_size;

  const struct {
    const char* name;
    bool ok;
  } checks[] = {
      {"fleet produced triggers and diagnoses", triggered},
      {"fingerprint identical at 1 vs 4 ingest workers", workers_identical},
      {"fingerprint identical at pool size 1 vs 8", pool_identical},
      {"fingerprint identical across repeated runs", repeat_identical},
      {"every accepted trigger accounted (zero loss)", no_loss},
      {"concurrent diagnoses never exceeded the pool bound", bounded},
      {"noisy-neighbor host flagged", neighbor_flagged},
      {"anomaly storm detected", storm_detected},
      {"storm collapsed into triage (deferrals > 0)", storm_collapsed},
      {"storm kept zero trigger loss", storm_no_loss},
      {"storm kept the pool bound", storm_bounded},
  };
  int violations = 0;
  for (const auto& check : checks) {
    std::printf("  %-52s %s\n", check.name, check.ok ? "OK" : "VIOLATED");
    violations += check.ok ? 0 : 1;
  }
  return violations;
}
