#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three traffic mixes, generated from a seed before any
// timing starts. The program under test only ever sees the requests built
// from these streams.

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "logstore/log_store.h"
#include "online/replay.h"
#include "serve/server.h"

namespace perfbench {

/// One ground-truth incident: an injected anomaly on one instance.
struct Incident {
  uint32_t instance_id = 0;
  int64_t onset_sec = 0;
  int64_t end_sec = 0;
  /// True root-cause SQL ids (a report is a hit when its top R-SQL is one
  /// of them).
  std::vector<uint64_t> culprits;
};

struct Workload {
  std::string name;
  std::vector<pinsql::fleet::FleetInstanceSpec> specs;
  /// Parallel to specs; records are ordered by second.
  std::vector<pinsql::online::ReplayLog> logs;
  /// Parallel to specs: index of each log's first record of every second
  /// in [first_sec, end_sec], so second s of stream i is
  /// records[second_begin[i][s - first_sec], second_begin[i][s - first_sec + 1]).
  std::vector<std::vector<size_t>> second_begin;
  std::vector<size_t> tenant_of;
  std::vector<std::string> tenants;
  pinsql::LogStore catalog;
  std::vector<Incident> incidents;

  pinsql::fleet::FleetOptions fleet;
  pinsql::serve::ServerOptions server;

  /// Streamed seconds [first_sec, end_sec).
  int64_t first_sec = 0;
  int64_t end_sec = 0;
  /// Seconds [first_sec, journal_end_sec) are journaled, untimed, before
  /// set-up (the detectors' warm-up, a clean lookback or a long history),
  /// and recovered by every set-up.
  int64_t journal_end_sec = 0;
  /// Seconds [journal_end_sec, measured_end_sec) are the measured phase at
  /// the nominal rate; later seconds feed the throughput ladder.
  int64_t measured_end_sec = 0;

  /// Simulated seconds pushed per wall second at the nominal rate.
  double nominal_sim_sec_per_s = 1.0;
  /// Limit on ingest p99 for a ladder step (and for the nominal phase).
  double ingest_p99_limit_ms = 0.0;
  /// A run whose generator ran later than this at p99 is invalid.
  double generator_lag_limit_ms = 0.0;
  /// Reads of GET /v1/reports per wall second.
  double reads_per_s = 0.0;
  /// Offered-rate ladder (simulated seconds per wall second); empty for
  /// workloads without a ladder.
  std::vector<double> ladder;
  /// Wall seconds of one probe.
  double ladder_step_s = 0.0;
  /// Ladder index of the staircase's first probe, and the probes it
  /// averages from its first reversal on.
  size_t ladder_start = 0;
  size_t ladder_probes = 0;
};

/// Builds the named workload (fleet-serve, incident-diagnose,
/// restart-recover) for a run of `seconds` measured wall seconds.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out);

/// Records of stream `i` in second `sec`.
std::pair<const pinsql::QueryLogRecord*, const pinsql::QueryLogRecord*>
SecondRecords(const Workload& w, size_t i, int64_t sec);
/// Sample of stream `i` at `sec`, or nullptr.
const pinsql::online::PerfSample* SecondSample(const Workload& w, size_t i,
                                               int64_t sec);

/// Whether stream `i` has anything (records or a sample) in second `sec`;
/// agents push nothing for seconds outside their stream.
bool HasData(const Workload& w, size_t i, int64_t sec);

/// The ingest body for one instance-second, with every double printed so
/// it parses back bit-exactly.
void AppendIngestBody(uint32_t instance_id,
                      const pinsql::QueryLogRecord* begin,
                      const pinsql::QueryLogRecord* end,
                      const pinsql::online::PerfSample* sample,
                      std::string* out);
/// A complete POST /v1/ingest request.
void BuildIngestRequest(const Workload& w, size_t stream, int64_t sec,
                        std::string* wire);

/// Journals [first_sec, journal_end_sec) into `dir` through an in-process
/// durable fleet, untimed.
void WriteHistoryJournal(const Workload& w, const std::string& dir);

/// The reader's GET /v1/reports request (tenant "ops" sees every instance).
std::string ReportsRequest(size_t limit);
std::string MetricszRequest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
