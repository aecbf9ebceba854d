#ifndef PINSQL_ONLINE_REPLAY_H_
#define PINSQL_ONLINE_REPLAY_H_

#include <vector>

#include "logstore/log_store.h"
#include "online/stream_ingestor.h"

namespace pinsql::online {

/// A recorded stream: query-log records plus the per-second metric samples
/// that drive the virtual clock. Samples must be in ascending second
/// order; missing seconds inside the span are replayed as telemetry gaps
/// (NaN samples that still advance the clock). Records may be in any
/// order; the replay stably orders them by arrival time. The replay
/// harness is fleet::RunFleetReplay (a single instance is a fleet of one).
struct ReplayLog {
  std::vector<QueryLogRecord> records;
  std::vector<PerfSample> samples;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_REPLAY_H_
