#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

// The traced run: the serving path re-enacted in process, one layer call
// at a time from the benchmark's own code, so each layer's self time is
// measured without touching the program. It walks the same requests the
// HTTP run sends: HttpParser::Feed, Json::Parse and the ingest-body walk,
// AdmissionController::Enqueue / DequeueFair, FleetService::IngestRecord /
// IngestMetrics / AdvanceTo (with the diagnoses it encloses split into
// core stages from each report's trace block) and report serialization.
// Standalone passes over the same streams break fleet.advance and
// fleet.ingest down into the online, detect and store layers.

#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

struct TracedRunResult {
  std::map<std::string, LayerMetric> metrics;
  /// Self time per span name over the traced pipeline (seconds).
  std::map<std::string, double> self_s;
  /// Share of the traced wall time per layer group, plus "unexplained".
  std::map<std::string, double> group_share;
  double wall_untraced_s = 0.0;
  double wall_traced_s = 0.0;
  double explained_share = 0.0;
  std::string chrome_trace;
  std::vector<std::string> check_failures;
};

/// Runs the in-process pipeline untraced, then traced, over the
/// workload's measured phase. `data_dir` is scratch space the run owns.
TracedRunResult RunTraced(const Workload& workload,
                          const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
