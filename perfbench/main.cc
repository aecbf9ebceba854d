// Serving-path benchmark program: builds one workload from a seed, runs it
// end to end over loopback HTTP (and, with --trace 1, the in-process
// traced pipeline), checks the outputs and prints every metric.
//
//   perfbench --workload fleet-serve --seed 1 --seconds 20 --trace 0
//             [--data-dir DIR] [--result FILE] [--chrome-trace FILE]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when a correctness check failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "served_run.h"
#include "traced_run.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pinsql::Json;

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  /// Percentile a tail metric reports (0 for non-tail metrics).
  double percentile = 0.0;
  /// One-second windows the percentile's median was taken over (0 = the
  /// percentile of all samples).
  size_t windows = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string data_dir = ".bench_build/data";
  std::string result;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--data-dir") {
      args->data_dir = value;
    } else if (key == "--result") {
      args->result = value;
    } else if (key == "--chrome-trace") {
      args->chrome_trace = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

double Ratio(size_t num, size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Median of a per-report stage statistic, over the served reports that
/// carry it.
Metric StageMedian(const ServedRunResult& run, const std::string& stage,
                   const std::string& counter) {
  std::vector<double> values;
  for (const auto& [key, r] : run.reports) {
    if (!r.ok) continue;
    if (counter.empty()) {
      auto it = r.stage_seconds.find(stage);
      if (it != r.stage_seconds.end()) values.push_back(it->second * 1e3);
    } else {
      auto s = r.stage_counters.find(stage);
      if (s == r.stage_counters.end()) continue;
      auto c = s->second.find(counter);
      if (c != s->second.end()) values.push_back(static_cast<double>(c->second));
    }
  }
  return {Median(values), counter.empty() ? "ms" : "count", values.size()};
}

std::map<std::string, Metric> EndToEnd(const ServedRunResult& run) {
  std::map<std::string, Metric> m;
  // Ingest and read percentiles: median over one-second windows (a p99
  // needs 100 samples in a window, a median 10).
  constexpr int64_t kWindowNs = 1'000'000'000;
  const auto windowed = [&](const std::vector<double>& v,
                            const std::vector<int64_t>& t, double p) {
    size_t windows = 0;
    const double value = WindowedPercentile(v, t, kWindowNs, p,
                                            p >= 99.0 ? 100 : 10, &windows);
    return Metric{value, "ms", v.size(), p, windows};
  };
  const TailSummary report = SummarizeTail(run.report_ms);
  m["ingest_p50_ms"] = windowed(run.ingest_ms, run.ingest_due_ns, 50.0);
  m["ingest_p99_ms"] = windowed(run.ingest_ms, run.ingest_due_ns, 99.0);
  m["read_p50_ms"] = windowed(run.read_ms, run.read_due_ns, 50.0);
  m["read_p99_ms"] = windowed(run.read_ms, run.read_due_ns, 99.0);
  m["report_p50_ms"] = {report.p50, "ms", report.n, 50.0};
  m["report_tail_ms"] = {report.tail, "ms", report.n, report.tail_pct};
  m["sustained_records_per_s"] = {run.sustained_records_per_s, "1/s",
                                  run.ladder.empty() ? 1 : run.ladder_counted};
  m["serving_cpu_us_per_record"] = {run.serving_cpu_us_per_record, "us",
                                    run.measured_records};
  m["rsql_hit1"] = {Ratio(run.incidents_hit1, run.incidents), "ratio",
                    run.incidents};
  m["incident_recall"] = {Ratio(run.incidents_reported, run.incidents),
                          "ratio", run.incidents};
  m["setup_s"] = {Median(run.setup_s), "s", run.setup_s.size()};
  m["rss_mb"] = {run.rss_mb, "MB", 1};
  m["disk_bytes_per_record"] = {
      run.disk_bytes / std::max(run.accepted_records, 1.0), "bytes",
      static_cast<size_t>(run.accepted_records)};
  return m;
}

std::map<std::string, Metric> PerLayer(const ServedRunResult& run,
                                       const TracedRunResult& traced) {
  std::map<std::string, Metric> m;
  for (const auto& [name, lm] : traced.metrics) {
    m[name] = {lm.value, lm.unit, lm.samples};
  }
  const auto& fs = run.fleet_stats;
  uint64_t drops = 0;
  for (const char* reason :
       {"rate_limited", "over_quota", "shed", "deadline_expired"}) {
    auto it = run.drops.find(std::string("admission.") + reason);
    const uint64_t v = it == run.drops.end() ? 0 : it->second;
    drops += v;
    m[std::string("serve.admission.drops.") + reason] = {
        static_cast<double>(v), "count", 1};
  }
  m["serve.admission.drops"] = {static_cast<double>(drops), "count", 1};
  m["serve.read.render_us"] = {Median(run.render_us), "us",
                               run.render_us.size()};
  m["fleet.pool.max_queue_depth"] = {
      static_cast<double>(fs.pool.max_queue_depth), "count", 1};
  m["fleet.pool.max_wait_sec"] = {static_cast<double>(fs.pool.max_wait_sec),
                                  "sim_s", 1};
  m["fleet.pool.max_concurrency"] = {
      static_cast<double>(fs.pool.max_observed_concurrency), "count", 1};
  m["fleet.triggers.confirmed"] = {static_cast<double>(fs.triggers_confirmed),
                                   "count", 1};
  m["fleet.triggers.accepted"] = {static_cast<double>(fs.triggers_accepted),
                                  "count", 1};
  m["fleet.triggers.suppressed"] = {
      static_cast<double>(fs.triggers_suppressed), "count", 1};
  m["fleet.diagnoses.ok"] = {static_cast<double>(fs.diagnoses_ok), "count", 1};
  m["fleet.diagnoses.failed"] = {static_cast<double>(fs.diagnoses_failed),
                                 "count", 1};
  m["fleet.useful_diagnosis_ratio"] = {
      Ratio(fs.diagnoses_ok, fs.triggers_confirmed), "ratio",
      fs.triggers_confirmed};
  for (const char* stage :
       {"session_estimation", "window_aggregation", "hsql_scoring",
        "rsql_clustering", "rsql_verification"}) {
    m[std::string("core.") + stage + ".ms"] = StageMedian(run, stage, "");
  }
  m["core.diagnose.total_ms"] = StageMedian(run, "total", "");
  m["core.window_aggregation.log_records"] =
      StageMedian(run, "window_aggregation", "log_records");
  m["core.window_aggregation.templates"] =
      StageMedian(run, "window_aggregation", "templates");
  m["core.session_estimation.templates"] =
      StageMedian(run, "session_estimation", "templates");
  const auto& rec = run.recovery;
  m["store.recovery.ms"] = {rec.recovery_ms, "ms", 1};
  m["store.recovery.frames"] = {static_cast<double>(rec.frames_valid), "count",
                                1};
  m["store.recovery.records"] = {static_cast<double>(rec.records), "count", 1};
  m["store.recovery.ms_per_frame"] = {
      rec.recovery_ms / std::max<double>(rec.frames_valid, 1), "ms",
      rec.frames_valid};
  m["bench.generator_lag_p99_ms"] = {Percentile(run.generator_lag_ms, 99.0),
                                     "ms", run.generator_lag_ms.size()};
  return m;
}

Json MetricsJson(const std::map<std::string, Metric>& metrics, bool full) {
  Json obj = Json::MakeObject();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    if (full) {
      entry.Set("samples", static_cast<int64_t>(metric.samples));
      if (metric.percentile > 0.0) entry.Set("percentile", metric.percentile);
      if (metric.windows > 0) {
        entry.Set("windows_1s", static_cast<int64_t>(metric.windows));
      }
    }
    obj.Set(name, std::move(entry));
  }
  return obj;
}

void PrintMetrics(const char* title,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-42s %14.6g %-6s n=%zu", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    if (m.percentile > 0.0) std::printf(" p%.4g", m.percentile);
    if (m.windows > 0) std::printf(" (median of %zu 1-s windows)", m.windows);
    std::printf("\n");
  }
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--result FILE] "
                 "[--chrome-trace FILE]\n");
    return 2;
  }
  Workload w;
  const int64_t gen_start = NowNs();
  if (!MakeWorkload(args.workload, args.seed, args.seconds, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string data_dir = args.data_dir + "/" + args.workload + "-" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(::getpid());
  std::fprintf(stderr, "[generated in %.3f s]\n",
               static_cast<double>(NowNs() - gen_start) / 1e9);
  std::printf("workload %s seed %llu: %zu instances, %zu incidents, "
              "seconds [%lld, %lld) measured to %lld, nominal %.1f sim-s/s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.specs.size(), w.incidents.size(),
              static_cast<long long>(w.first_sec),
              static_cast<long long>(w.end_sec),
              static_cast<long long>(w.measured_end_sec),
              w.nominal_sim_sec_per_s);
  std::fflush(stdout);

  const ServedRunResult run = RunServed(w, data_dir + "/served", args.trace);
  TracedRunResult traced;
  if (args.trace) traced = RunTraced(w, data_dir + "/traced");
  std::filesystem::remove_all(data_dir);

  std::vector<std::string> failures = run.check_failures;
  failures.insert(failures.end(), traced.check_failures.begin(),
                  traced.check_failures.end());
  const size_t attempted =
      run.ingest_requests + run.reads + run.incidents;
  const size_t failed = run.ingest_failed + run.reads_failed +
                        (run.incidents - run.incidents_reported) +
                        run.diagnoses_failed;
  // A run is invalid when the generator itself ran late, or when the
  // measured phase ended in a backlog (its figures then read the queue the
  // host built up, not the program).
  const double lag_p99 = Percentile(run.generator_lag_ms, 99.0);
  const bool valid = lag_p99 <= w.generator_lag_limit_ms &&
                     run.backlog_ms <= w.ingest_p99_limit_ms;

  const auto e2e = EndToEnd(run);
  PrintMetrics("end-to-end:", e2e);
  std::printf("  %-42s %14.6g ratio  (%zu failed of %zu attempted)\n",
              "failed_ratio", Ratio(failed, attempted), failed, attempted);
  std::printf("ladder (sim-s/s, records/s, ingest p99 ms, pass):\n");
  for (const LadderStep& step : run.ladder) {
    std::printf("  %8.1f %12.0f %10.3f %s\n", step.sim_sec_per_s,
                step.records_per_s, step.ingest_p99_ms,
                step.passed ? "pass" : "fail");
  }
  std::map<std::string, Metric> layers;
  if (args.trace) {
    layers = PerLayer(run, traced);
    PrintMetrics("per-layer:", layers);
    std::printf("traced pipeline: %.3f s traced vs %.3f s untraced "
                "(overhead %.2f%%); layers explain %.1f%% (unexplained "
                "%.1f%%)\n",
                traced.wall_traced_s, traced.wall_untraced_s,
                100.0 * (traced.wall_traced_s - traced.wall_untraced_s) /
                    traced.wall_untraced_s,
                100.0 * traced.explained_share,
                100.0 * (1.0 - traced.explained_share));
    std::printf("layer shares of traced wall time:\n");
    for (const auto& [group, share] : traced.group_share) {
      std::printf("  %-16s %6.1f%%\n", group.c_str(), 100.0 * share);
    }
    std::printf("self time by span (s):\n");
    for (const auto& [name, s] : traced.self_s) {
      std::printf("  %-32s %10.4f\n", name.c_str(), s);
    }
    if (!args.chrome_trace.empty()) {
      std::ofstream(args.chrome_trace) << traced.chrome_trace;
    }
  }
  if (!valid) {
    std::printf("INVALID RUN: generator lag p99 %.3f ms (limit %.3f ms), "
                "backlog at the end of the measured phase %.3f ms (limit "
                "%.3f ms)\n",
                lag_p99, w.generator_lag_limit_ms, run.backlog_ms,
                w.ingest_p99_limit_ms);
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  if (!args.result.empty()) {
    Json doc = Json::MakeObject();
    doc.Set("workload", args.workload);
    doc.Set("seed", static_cast<int64_t>(args.seed));
    doc.Set("seconds", args.seconds);
    doc.Set("trace", args.trace);
    doc.Set("valid", valid);
    doc.Set("generator_lag_p99_ms", lag_p99);
    doc.Set("generator_lag_limit_ms", w.generator_lag_limit_ms);
    doc.Set("backlog_ms", run.backlog_ms);
    doc.Set("backlog_limit_ms", w.ingest_p99_limit_ms);
    doc.Set("correct", failures.empty());
    doc.Set("attempted", static_cast<int64_t>(attempted));
    doc.Set("failed", static_cast<int64_t>(failed));
    doc.Set("failed_ratio", Ratio(failed, attempted));
    doc.Set("end_to_end", MetricsJson(e2e, true));
    if (args.trace) {
      doc.Set("per_layer", MetricsJson(layers, true));
      Json shares = Json::MakeObject();
      for (const auto& [group, share] : traced.group_share) {
        shares.Set(group, share);
      }
      doc.Set("layer_shares", std::move(shares));
    }
    Json checks = Json::MakeArray();
    for (const std::string& f : failures) checks.Append(f);
    doc.Set("check_failures", std::move(checks));
    std::ofstream(args.result) << doc.Dump(true) << "\n";
  }

  Json last = Json::MakeObject();
  last.Set("correct", failures.empty());
  last.Set("attempted", static_cast<int64_t>(attempted));
  last.Set("failed", static_cast<int64_t>(failed));
  last.Set("metrics", MetricsJson(args.trace ? layers : e2e, false));
  std::printf("%s\n", last.Dump().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
