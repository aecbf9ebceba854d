#ifndef PINSQL_FLEET_FLEET_REPLAY_H_
#define PINSQL_FLEET_FLEET_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "logstore/log_store.h"
#include "online/replay.h"

namespace pinsql::fleet {

struct FleetReplayOptions {
  FleetOptions fleet;
  /// Concurrent ingest workers feeding the fleet's streams. Worker w owns
  /// the instances i ≡ w (mod W) and pushes each one's records and samples
  /// in recorded order, so every instance's ingest order — and therefore
  /// the fingerprint — is identical at any worker count; a fleet of one
  /// is fed by one worker.
  int num_ingest_workers = 2;
};

struct FleetResult {
  /// Completion order (schedule-dependent; the fingerprint sorts).
  std::vector<FleetOutcome> outcomes;
  std::vector<StormBatch> storms;
  std::vector<NoisyNeighborVerdict> neighbors;
  /// Per-instance detection latencies, in firing order.
  std::map<uint32_t, std::vector<int64_t>> latencies;
  FleetStats stats;

  /// Deterministic digest of everything the fleet replay promises
  /// bit-reproducible: every outcome (sorted by instance, onset, trigger —
  /// schedule-invariant), every storm batch and every noisy-neighbor
  /// verdict. Two replays of one fleet log are correct iff their
  /// fingerprints are byte-identical — at any diagnoser pool size, any
  /// ingest worker count and any advance_workers. Stats are excluded
  /// (queue depths legitimately vary with pool size).
  std::string Fingerprint() const;

  /// The single-instance digest: one instance's detection latencies and
  /// outcomes (triggers, report JSON, repair accounting, time-to-repair),
  /// with the instance id normalized to 0. A fleet of one digests its
  /// stream this way; the chaos suite compares an unfaulted co-tenant's
  /// slice against its fleet-of-one run to prove per-instance isolation.
  std::string InstanceFingerprint(uint32_t instance_id) const;
};

/// Appends the deterministic digest of one diagnosis outcome (trigger
/// fields, report JSON, repair accounting), shared by both fingerprints.
void AppendOutcomeFingerprint(const online::DiagnosisOutcome& outcome,
                              std::string* out);

/// Collects what a service's caller gathered from its Start(), AdvanceTo()
/// and Stop() calls — outcomes, plus the closed storms, verdicts and
/// confirmed triggers of their FleetEvents — and the service's stats into
/// a FleetResult: the step RunFleetReplay ends with, and how a running
/// (e.g. recovered durable) fleet is fingerprinted. Each confirmed
/// trigger's detection latency (trigger_sec - onset_sec) joins its
/// instance's list in merge order, which per instance is firing order.
FleetResult CollectFleetResult(const FleetService& service,
                               std::vector<FleetOutcome> outcomes,
                               FleetEvents events);

/// The replay harness: replays one recorded stream per instance through a
/// fresh FleetService, bit-deterministically (wall-clock timing fields are
/// zeroed, so replays are byte-comparable). The fleet clock sweeps the
/// union of the instances' sample spans, each simulated second is fully
/// ingested for every instance before the fleet processes it, and
/// `catalog` seeds every instance's archive. `logs` is parallel to
/// `specs`; an instance with no samples never starts its virtual clock
/// (its records are not processed). A single-instance replay is a call
/// with one spec (its supervisor and history close the loop).
FleetResult RunFleetReplay(const std::vector<FleetInstanceSpec>& specs,
                           const std::vector<online::ReplayLog>& logs,
                           const LogStore& catalog,
                           const FleetReplayOptions& options);

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_REPLAY_H_
