#ifndef PINSQL_FLEET_FLEET_STATE_H_
#define PINSQL_FLEET_FLEET_STATE_H_

#include <cstdint>
#include <limits>
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

/// One instance's slice of a FleetState. It carries none of the data the
/// instance's WAL holds — archived and staged records, the metric ring, the
/// watermark — only what says where that data starts and what of it the
/// archive has retired.
struct FleetInstanceState {
  uint32_t instance_id = 0;
  /// The ingestor's counters.
  online::IngestorState ingestor;
  online::OnlineDetectorState detector;
  bool processed_any = false;
  int64_t last_processed_sec = 0;
  /// Catalog sorted by sql_id, so exported state is deterministic.
  std::vector<std::pair<uint64_t, TemplateCatalogEntry>> catalog;
  /// Journal position the slice is consistent with: every record, sample
  /// and event the slice counts was journaled at or before `lsn`, so
  /// recovery rebuilds the data of the frames up to it and replays the
  /// frames after it.
  store::WalPosition lsn;
  /// The lowest WAL segment holding a record, sample or staged record the
  /// instance still keeps (at most `lsn.segment_seq`): recovery rebuilds
  /// from its start, and segments below it may be deleted.
  uint64_t first_needed_seq = 1;
  /// The highest retention cutoff the archive has applied: recovery trims
  /// the rebuilt archive to it, so no retired record comes back.
  int64_t retention_cutoff_ms = std::numeric_limits<int64_t>::min();
};

/// Complete serializable state of a FleetService that its WAL cannot give
/// back, captured by ExportState() and restored by ImportState(): detector
/// models, trigger routing, counters, clocks and the catalog. The durable
/// fleet checkpoints exactly this (EncodeFleetState) and rebuilds each
/// instance's archive, metric ring and staged records from its WAL.
/// Outcomes, closed storms, verdicts, confirmed triggers and repair events
/// are not part of it: the fleet hands each one out once and keeps none
/// (the counters still count them; repair events live in the WAL).
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
