#include "eval/online_e2e.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "dbsim/engine.h"
#include "faults/action_faults.h"
#include "repair/supervisor.h"
#include "workload/scenario.h"

namespace pinsql::eval {

namespace {

double SeriesValue(const TimeSeries& series, int64_t sec) {
  if (!series.Covers(sec)) return std::numeric_limits<double>::quiet_NaN();
  return series.AtTime(sec);
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Pins the injected anomaly's severity so every case carries a signal the
/// detectors are supposed to see (same rationale and constants as the
/// closed-loop chaos eval: random draws can be too mild to matter).
void PinInjectionSeverity(workload::AnomalyType type,
                          workload::Workload* workload,
                          workload::Injection* injection) {
  if (type == workload::AnomalyType::kPoorSql) {
    workload->templates.back().cpu_ms_mean = 320.0;
    injection->overrides[0].add_qps = 15.0;
  } else if (type == workload::AnomalyType::kRowLock) {
    workload->templates.back().cpu_ms_mean = 400.0;
    workload->templates.back().row_groups_touched = 3;
    workload->templates.back().hot_group_limit = 4;
    injection->overrides[0].add_qps = 2.5;
    for (auto& table : workload->tables) {
      if (table.id == workload->templates.back().table_id) {
        table.hot_row_groups = 4;
      }
    }
  }
}

/// Generates the case for (options, index), regenerating degenerate draws:
/// when even the offline batch detector cannot place the anomaly near the
/// injection, the case carries no usable signal (typically the random
/// baseline already saturates the instance) and scoring an online detector
/// against it measures the generator, not the detector.
AnomalyCaseData GenerateAdmittedCase(const OnlineE2EOptions& options,
                                     size_t index, size_t* regens_out) {
  CaseGenOptions case_gen = options.case_gen;
  static const workload::AnomalyType kTypes[] = {
      workload::AnomalyType::kBusinessSpike, workload::AnomalyType::kPoorSql,
      workload::AnomalyType::kRowLock};
  const workload::AnomalyType type = kTypes[index % 3];
  case_gen.type = type;
  case_gen.shape_injection = [type](workload::Workload* workload,
                                    workload::Injection* injection) {
    PinInjectionSeverity(type, workload, injection);
  };
  for (size_t regen = 0;; ++regen) {
    case_gen.seed =
        options.seed + index * 1000003ULL + regen * 0x9E3779B9ULL;
    AnomalyCaseData data = GenerateCase(case_gen);
    const bool admitted =
        data.detected &&
        data.detected_as >= data.injected_as - options.onset_tolerance_sec &&
        data.detected_as <= data.injected_ae;
    if (admitted || regen >= options.max_case_regens) {
      *regens_out = regen;
      return data;
    }
  }
}

}  // namespace

online::ReplayLog RecordCaseReplay(const AnomalyCaseData& data) {
  online::ReplayLog log;
  log.records = data.logs.SortedRecords();
  log.samples.reserve(
      static_cast<size_t>(data.window_end_sec - data.window_start_sec));
  for (int64_t sec = data.window_start_sec; sec < data.window_end_sec;
       ++sec) {
    online::PerfSample sample;
    sample.sec = sec;
    sample.active_session = SeriesValue(data.metrics.active_session, sec);
    sample.cpu_usage = SeriesValue(data.metrics.cpu_usage, sec);
    sample.iops_usage = SeriesValue(data.metrics.iops_usage, sec);
    sample.row_lock_waits = SeriesValue(data.metrics.row_lock_waits, sec);
    sample.mdl_waits = SeriesValue(data.metrics.mdl_waits, sec);
    log.samples.push_back(sample);
  }
  return log;
}

OnlineCaseOutcome RunOnlineCase(const OnlineE2EOptions& options,
                                size_t index) {
  OnlineCaseOutcome out;

  const AnomalyCaseData data =
      GenerateAdmittedCase(options, index, &out.case_regens);

  const online::ReplayLog log = RecordCaseReplay(data);

  // Shadow engine + supervisor: actions land somewhere real, so
  // time-to-repair reflects the full supervised lifecycle (guardrails,
  // retries, injected control-plane faults).
  std::unique_ptr<dbsim::Engine> engine;
  std::unique_ptr<faults::ActionFaultInjector> hook;
  std::unique_ptr<repair::RepairSupervisor> supervisor;
  if (options.with_repair) {
    engine = std::make_unique<dbsim::Engine>(options.case_gen.sim);
    if (options.use_fault_hook) {
      faults::ActionFaultPlan plan;
      plan.severity = options.action_fault_severity;
      plan.seed = options.seed + index * 7919ULL;
      hook = std::make_unique<faults::ActionFaultInjector>(plan);
    }
    repair::SupervisorOptions sup_options;
    sup_options.seed = options.seed + index * 31ULL;
    // The replay ends with the anomaly; there is no post-repair telemetry
    // to verify against, so verification windows would dangle.
    sup_options.verify.enabled = false;
    supervisor = std::make_unique<repair::RepairSupervisor>(
        engine.get(), sup_options, hook ? hook.get() : nullptr);
  }

  fleet::FleetInstanceSpec spec;
  spec.supervisor = supervisor.get();
  spec.history = &data.history;
  const fleet::FleetResult replay =
      fleet::RunFleetReplay({spec}, {log}, data.logs, options.replay);

  out.fingerprint = replay.InstanceFingerprint(spec.instance_id);
  out.stats = replay.stats;

  const int64_t lo = data.injected_as - options.onset_tolerance_sec;
  const int64_t hi = data.injected_ae + options.onset_tolerance_sec;
  for (const fleet::FleetOutcome& fleet_outcome : replay.outcomes) {
    const online::DiagnosisOutcome& outcome = fleet_outcome.outcome;
    const int64_t onset = outcome.trigger.onset_sec;
    const bool in_anomaly = onset >= lo && onset <= hi;
    if (in_anomaly) {
      ++out.true_triggers;
      if (!out.detected) {
        out.detected = true;
        out.detection_latency_sec =
            std::max<int64_t>(0, outcome.trigger.trigger_sec -
                                     data.injected_as);
      }
    } else {
      ++out.false_triggers;
    }
    if (outcome.ok) {
      out.diagnosed = true;
      if (!outcome.confirmed_rsqls.empty() && !data.rsql_truth.empty() &&
          std::find(data.rsql_truth.begin(), data.rsql_truth.end(),
                    outcome.confirmed_rsqls.front()) !=
              data.rsql_truth.end()) {
        out.rsql_correct = true;
      }
      if (outcome.ttr_sec >= 0.0 && out.ttr_sec < 0.0) {
        out.ttr_sec = outcome.ttr_sec;
      }
    }
  }
  return out;
}

OnlineE2ESummary RunOnlineE2E(const OnlineE2EOptions& options) {
  OnlineE2ESummary summary;
  summary.cases = static_cast<size_t>(options.num_cases);
  std::vector<double> latencies;
  double ttr_sum = 0.0;
  size_t ttr_count = 0;
  size_t true_triggers = 0, all_triggers = 0;
  for (size_t index = 0; index < summary.cases; ++index) {
    OnlineCaseOutcome out = RunOnlineCase(options, index);
    if (out.detected) {
      ++summary.detected;
      latencies.push_back(static_cast<double>(out.detection_latency_sec));
      summary.duplicate_triggers += out.true_triggers - 1;
    }
    true_triggers += out.true_triggers;
    all_triggers += out.true_triggers + out.false_triggers;
    if (out.diagnosed) ++summary.diagnosed;
    if (out.rsql_correct) ++summary.rsql_correct;
    if (out.ttr_sec >= 0.0) {
      ttr_sum += out.ttr_sec;
      ++ttr_count;
    }
    summary.outcomes.push_back(std::move(out));
  }
  summary.recall = summary.cases > 0
                       ? static_cast<double>(summary.detected) /
                             static_cast<double>(summary.cases)
                       : 0.0;
  summary.precision =
      all_triggers > 0
          ? static_cast<double>(true_triggers) /
                static_cast<double>(all_triggers)
          : 1.0;
  summary.median_detection_latency_sec = MedianOf(std::move(latencies));
  if (ttr_count > 0) {
    summary.mean_ttr_sec = ttr_sum / static_cast<double>(ttr_count);
  }
  return summary;
}

ThroughputPoint RunIngestThroughput(bool cooperative, size_t records) {
  ThroughputPoint point;
  point.cooperative = cooperative;
  point.records = records;

  online::IngestorOptions ingest_options;
  ingest_options.window_sec = 600;
  online::StreamIngestor ingestor(ingest_options);
  const auto record_at = [](size_t i) {
    QueryLogRecord record;
    record.sql_id = i % 512;
    record.arrival_ms = static_cast<int64_t>(i % 600'000);
    record.response_ms = 1.0 + static_cast<double>(i % 17);
    record.examined_rows = static_cast<int64_t>(i % 100);
    return record;
  };
  const auto finish = [&](std::chrono::steady_clock::time_point t0) {
    point.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    point.records_per_sec =
        point.seconds > 0.0
            ? static_cast<double>(point.records) / point.seconds
            : 0.0;
    point.dropped = ingestor.stats().records_dropped_backpressure;
    return point;
  };

  if (cooperative) {
    // Stage a batch, pump it, repeat — the same records and the same full
    // path (stage + pump), but one thread doing both halves so the
    // measurement is per-core work, not scheduling.
    constexpr size_t kPumpEvery = 4096;
    size_t since_pump = 0;
    const auto feed = [&](size_t i) {
      const QueryLogRecord record = record_at(i);
      while (!ingestor.IngestRecord(record)) ingestor.Pump();
      if (++since_pump >= kPumpEvery) {
        ingestor.Pump();
        since_pump = 0;
      }
    };
    // One full pass over the arrival ring untimed: ring-bucket columns,
    // lookup tables and pool slabs reach steady state before the clock
    // starts, so short sweeps report the sustained rate rather than
    // first-touch growth.
    constexpr size_t kWarmup = 600'000;
    for (size_t i = 0; i < kWarmup; ++i) feed(i);
    ingestor.Pump();
    since_pump = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = kWarmup; i < kWarmup + records; ++i) feed(i);
    ingestor.Pump();
    return finish(t0);
  }

  std::atomic<bool> done{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&]() {
    for (size_t i = 0; i < records; ++i) {
      const QueryLogRecord record = record_at(i);
      while (!ingestor.IngestRecord(record)) {
        // Full queue: yield to the pumper (drops are already counted; for
        // throughput we want the sustained rate, not the drop rate).
        std::this_thread::yield();
      }
    }
    done.store(true, std::memory_order_relaxed);
  });
  while (!done.load(std::memory_order_relaxed)) {
    if (ingestor.Pump() == 0) std::this_thread::yield();
  }
  producer.join();
  ingestor.Pump();
  return finish(t0);
}

}  // namespace pinsql::eval
