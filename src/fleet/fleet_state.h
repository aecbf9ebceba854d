#ifndef PINSQL_FLEET_FLEET_STATE_H_
#define PINSQL_FLEET_FLEET_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fleet/correlator.h"
#include "fleet/fleet_scheduler.h"
#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/stream_ingestor.h"
#include "store/wal.h"
#include "util/status.h"

namespace pinsql::fleet {

/// The fleet's running totals (FleetStats reports them; checkpoints carry
/// them).
struct FleetCounters {
  int64_t seconds_processed = 0;
  /// Detector-confirmed triggers before dedup.
  size_t triggers_confirmed = 0;
  size_t triggers_accepted = 0;
  size_t triggers_suppressed = 0;
  size_t diagnoses_ok = 0;
  size_t diagnoses_failed = 0;
  size_t storm_deferred = 0;
  /// Noisy-neighbor verdicts flagged.
  size_t neighbor_verdicts = 0;
  /// Supervised actions applied / refused across every instance's loop.
  size_t repairs_applied = 0;
  size_t repairs_rejected = 0;
  /// Fleet seconds that ran an archive retention sweep, and the records
  /// those sweeps retired.
  size_t retention_sweeps = 0;
  size_t records_retired = 0;
};

/// One instance's slice of a FleetState.
struct FleetInstanceState {
  uint32_t instance_id = 0;
  online::IngestorState ingestor;
  online::OnlineDetectorState detector;
  bool processed_any = false;
  int64_t last_processed_sec = 0;
  /// Archive contents in arrival order (ties keep insertion order, which
  /// LogStore's stable sort preserves — required for bit-identical window
  /// snapshots after a restore).
  std::vector<QueryLogRecord> archive_records;
  /// Catalog sorted by sql_id, so exported state is deterministic.
  std::vector<std::pair<uint64_t, TemplateCatalogEntry>> catalog;
  /// Journal position the slice is consistent with: every record, sample
  /// and event folded into it was journaled at or before `lsn`, so
  /// recovery replays the instance's WAL from here.
  store::WalPosition lsn;
};

/// Complete serializable state of a FleetService, captured by
/// ExportState() and restored by ImportState(): a restored fleet continues
/// its streams bit-identically to one that never stopped. The durable
/// fleet checkpoints exactly this (EncodeFleetState). Outcomes, closed
/// storms, verdicts, confirmed triggers and repair events are not part of
/// it: the fleet hands each one out once and keeps none (the counters
/// still count them; repair events live in the WAL).
struct FleetState {
  /// In the fleet's instance order.
  std::vector<FleetInstanceState> instances;
  /// TriggerDeduper: instance id -> last anomalous activity second.
  std::vector<std::pair<uint32_t, int64_t>> dedup_activity;
  FleetSchedulerState scheduler;
  CorrelatorState correlator;
  /// The fleet clock.
  bool processed_any = false;
  int64_t last_fleet_sec = 0;
  FleetCounters counters;
};

/// The checkpoint body codec (the store frames it with magic, version and
/// CRC; see store/checkpoint.h). Decode rejects truncated, oversized or
/// trailing bytes with a ParseError.
std::string EncodeFleetState(const FleetState& state);
StatusOr<FleetState> DecodeFleetState(std::string_view body);

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_STATE_H_
