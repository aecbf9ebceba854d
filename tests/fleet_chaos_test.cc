/// Chaos suite: per-instance fault injection at mixed severities across a
/// fleet. Faults must degrade only the instance they are injected into —
/// a clean instance's fleet result stays byte-identical to (a) the same
/// fleet with every other instance faulted and (b) a fleet of one
/// replaying the same stream. Severity-0 plans are guaranteed no-ops.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/fleet_cases.h"
#include "faults/fault_injector.h"
#include "fleet/fleet_replay.h"
#include "online/replay.h"

namespace pinsql::fleet {
namespace {

eval::FleetCaseOptions ChaosCaseOptions() {
  eval::FleetCaseOptions options;
  options.num_instances = 8;
  options.instances_per_host = 4;
  options.seed = 77;
  options.duration_sec = 300;
  // Independent incidents only: every instance's stream is self-contained,
  // so solo and fleet deployments are comparable one instance at a time.
  options.inject_noisy_host = false;
  options.anomaly_fraction = 0.5;
  return options;
}

FleetReplayOptions ChaosReplayOptions() {
  FleetReplayOptions options;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 4;
  // Correlation off: cross-instance coupling is exactly what this suite
  // must prove absent.
  options.fleet.correlator.storm_min_instances = 0;
  options.fleet.correlator.neighbor_min_cotenants = 0;
  options.num_ingest_workers = 2;
  return options;
}

/// Severity per instance: 0, 0.3, 0.6, 0.9, 0, 0.3, ... — instances 0 and
/// 4 stay clean while their co-tenants degrade.
double SeverityFor(uint32_t instance_id) {
  return 0.3 * static_cast<double>(instance_id % 4);
}

TEST(FleetChaosTest, SeverityZeroPlanIsBitwiseNoOp) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  online::ReplayLog log = fleet_case.logs[0];

  faults::FaultPlan plan;
  plan.seed = 99;
  plan.severity = 0.0;
  const faults::InjectionStats stats = eval::ApplyInstanceFaults(plan, &log);
  EXPECT_EQ(stats.total(), 0u);
  ASSERT_EQ(log.records.size(), fleet_case.logs[0].records.size());
  for (size_t i = 0; i < log.records.size(); ++i) {
    EXPECT_EQ(log.records[i].arrival_ms,
              fleet_case.logs[0].records[i].arrival_ms);
    EXPECT_EQ(log.records[i].sql_id, fleet_case.logs[0].records[i].sql_id);
    EXPECT_EQ(log.records[i].response_ms,
              fleet_case.logs[0].records[i].response_ms);
  }
  ASSERT_EQ(log.samples.size(), fleet_case.logs[0].samples.size());
  for (size_t i = 0; i < log.samples.size(); ++i) {
    EXPECT_EQ(log.samples[i].active_session,
              fleet_case.logs[0].samples[i].active_session);
    EXPECT_EQ(log.samples[i].cpu_usage,
              fleet_case.logs[0].samples[i].cpu_usage);
  }
}

TEST(FleetChaosTest, FaultsDoNotContaminateCleanCoTenants) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  const FleetReplayOptions options = ChaosReplayOptions();

  // Mixed-severity fleet: perturb every instance by its own plan.
  std::vector<online::ReplayLog> faulted = fleet_case.logs;
  size_t perturbed_streams = 0;
  for (size_t i = 0; i < faulted.size(); ++i) {
    faults::FaultPlan plan;
    plan.seed = 500 + i;
    plan.severity = SeverityFor(static_cast<uint32_t>(i));
    const faults::InjectionStats stats =
        eval::ApplyInstanceFaults(plan, &faulted[i]);
    if (plan.severity == 0.0) {
      EXPECT_EQ(stats.total(), 0u) << "severity-0 instance " << i;
    } else if (stats.total() > 0) {
      ++perturbed_streams;
    }
  }
  ASSERT_GT(perturbed_streams, 0u) << "chaos run is vacuous";

  const FleetResult clean = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);
  const FleetResult chaotic =
      RunFleetReplay(fleet_case.specs, faulted, fleet_case.catalog, options);
  ASSERT_GT(clean.stats.triggers_accepted, 0u);

  for (const auto& spec : fleet_case.specs) {
    if (SeverityFor(spec.instance_id) != 0.0) continue;
    EXPECT_EQ(chaotic.InstanceFingerprint(spec.instance_id),
              clean.InstanceFingerprint(spec.instance_id))
        << "faulted co-tenants contaminated clean instance "
        << spec.instance_id;
  }
}

TEST(FleetChaosTest, CleanInstanceMatchesSoloReplayBitForBit) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  const FleetReplayOptions options = ChaosReplayOptions();

  std::vector<online::ReplayLog> faulted = fleet_case.logs;
  for (size_t i = 0; i < faulted.size(); ++i) {
    faults::FaultPlan plan;
    plan.seed = 500 + i;
    plan.severity = SeverityFor(static_cast<uint32_t>(i));
    eval::ApplyInstanceFaults(plan, &faulted[i]);
  }
  const FleetResult fleet_result =
      RunFleetReplay(fleet_case.specs, faulted, fleet_case.catalog, options);

  // The same instance deployed alone: a fleet of one.
  FleetReplayOptions solo = options;
  solo.num_ingest_workers = 1;

  size_t compared = 0;
  size_t with_outcomes = 0;
  for (const auto& spec : fleet_case.specs) {
    if (SeverityFor(spec.instance_id) != 0.0) continue;
    const FleetResult solo_result =
        RunFleetReplay({spec}, {fleet_case.logs[spec.instance_id]},
                       fleet_case.catalog, solo);
    EXPECT_EQ(fleet_result.InstanceFingerprint(spec.instance_id),
              solo_result.InstanceFingerprint(spec.instance_id))
        << "fleet deployment changed instance " << spec.instance_id;
    ++compared;
    if (!solo_result.outcomes.empty()) ++with_outcomes;
  }
  ASSERT_GT(compared, 0u);
  // At least one clean instance must carry a real incident, or the
  // bit-equality above only compared empty digests.
  EXPECT_GT(with_outcomes, 0u) << "solo-vs-fleet comparison is vacuous";
}

}  // namespace
}  // namespace pinsql::fleet
