#ifndef PERFBENCH_SERVED_RUN_H_
#define PERFBENCH_SERVED_RUN_H_

// The untraced, end-to-end run: a durable FleetService behind
// serve::Server on loopback, driven by one open-loop sender thread over
// three keep-alive connections plus one reader thread polling reports.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// One report as the reader first saw it.
struct ServedReport {
  uint32_t instance_id = 0;
  int64_t onset_sec = 0;
  int64_t trigger_sec = 0;
  bool ok = false;
  bool storm_deferred = false;
  std::vector<uint64_t> rsqls;
  std::vector<uint64_t> hsqls;
  /// Stage name -> seconds, plus "total", from the report's trace block.
  std::map<std::string, double> stage_seconds;
  /// Stage name -> counters (log_records, templates, ...).
  std::map<std::string, std::map<std::string, int64_t>> stage_counters;
  int64_t first_seen_ns = 0;
};

struct LadderStep {
  double sim_sec_per_s = 0.0;
  double records_per_s = 0.0;
  double ingest_p99_ms = 0.0;
  bool all_accepted = false;
  bool kept_pace = false;
  bool backlog_drained = false;
  bool passed = false;
};

struct ServedRunResult {
  // Raw samples of the measured phase (milliseconds), with the scheduled
  // time of each request (ns) for per-second windows.
  std::vector<double> ingest_ms;
  std::vector<int64_t> ingest_due_ns;
  std::vector<double> read_ms;
  std::vector<int64_t> read_due_ns;
  std::vector<double> report_ms;
  std::vector<double> generator_lag_ms;
  std::vector<double> setup_s;
  std::vector<double> render_us;  // traced runs only

  size_t ingest_requests = 0;
  size_t ingest_failed = 0;
  size_t reads = 0;
  size_t reads_failed = 0;
  size_t incidents = 0;
  size_t incidents_reported = 0;
  size_t incidents_hit1 = 0;
  size_t diagnoses_failed = 0;

  /// How long after the measured phase's last due time its last response
  /// came: beyond the ingest latency limit, the open loop fell behind.
  double backlog_ms = 0.0;

  /// CPU the server's and the fleet's threads spent from the start of the
  /// measured phase until its reports were served, per record it accepted.
  double serving_cpu_us_per_record = 0.0;
  size_t measured_records = 0;

  double sustained_records_per_s = 0.0;
  std::vector<LadderStep> ladder;
  /// Ladder probes the staircase estimate averages.
  size_t ladder_counted = 0;
  double records_per_sim_sec = 0.0;

  double rss_mb = 0.0;
  double disk_bytes = 0.0;
  double accepted_records = 0.0;

  pinsql::fleet::FleetStats fleet_stats;
  pinsql::fleet::FleetRecoveryStats recovery;
  std::map<std::string, uint64_t> drops;  // admission + ingest drop ledger

  std::map<std::pair<uint32_t, std::pair<int64_t, int64_t>>, ServedReport>
      reports;
  std::vector<std::string> check_failures;
};

/// Runs the workload end to end. `data_dir` is a scratch directory the
/// run owns (journals live under it and are removed afterwards).
/// Report reads run at the workload's mean rate with jittered spacing.
/// `trace` adds in-process timing of Server::HandleRequest on the read
/// path; everything else is identical.
ServedRunResult RunServed(const Workload& workload, const std::string& data_dir,
                          bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_RUN_H_
