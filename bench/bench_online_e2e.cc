/// Online end-to-end: the continuous diagnosis service replayed over
/// recorded streams. Each case feeds a generated anomaly day through a
/// fleet of one (StreamIngestor -> OnlineAnomalyDetector -> dedup and
/// diagnoser pool -> RepairSupervisor) and scores the whole loop: trigger recall/precision
/// against the injected ground truth, detection latency, diagnosis
/// quality, and end-to-end time-to-repair.
///
/// Headline properties: recall >= 0.9 with zero duplicate triggers per
/// anomaly; median detection latency <= 5 simulated seconds; replay is
/// bit-deterministic across runs, ingest-worker counts and diagnoser
/// thread counts; and a severity-0 action-fault injector is a no-op
/// through the online path. It also reports the ingestor's stage + pump
/// throughput, cooperatively on one core and with one producer thread
/// beside the pumping thread (printed, not checked: wall-clock rates on a
/// shared host are noise).
///
/// Environment knobs: PINSQL_BENCH_CASES (default 6), PINSQL_BENCH_SEED,
/// PINSQL_BENCH_THREADS (diagnoser threads), PINSQL_BENCH_INGEST_RECORDS
/// (records per throughput point). `--smoke` shrinks everything for CI.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "detect/forecast.h"
#include "eval/online_e2e.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  pinsql::eval::OnlineE2EOptions options;
  options.num_cases = EnvInt("PINSQL_BENCH_CASES", smoke ? 3 : 6);
  options.seed = static_cast<uint64_t>(EnvInt("PINSQL_BENCH_SEED", 7));
  options.replay.fleet.scheduler.diagnoser.num_threads =
      EnvInt("PINSQL_BENCH_THREADS", 2);
  options.replay.num_ingest_workers = 1;

  std::printf(
      "Online E2E: streaming ingest -> online trigger -> scheduled "
      "diagnosis -> supervised repair\n(%d replayed cases, %d diagnoser "
      "threads)\n\n",
      options.num_cases,
      options.replay.fleet.scheduler.diagnoser.num_threads);

  const auto summary = pinsql::eval::RunOnlineE2E(options);

  std::printf("%4s | %8s %7s %7s %7s | %6s %7s | %8s\n", "case", "detected",
              "lat(s)", "true", "false", "diag", "rsql-ok", "TTR(s)");
  std::printf("-----+------------------------------------+----------------+"
              "---------\n");
  for (size_t i = 0; i < summary.outcomes.size(); ++i) {
    const auto& out = summary.outcomes[i];
    char lat[24], ttr[24];
    if (out.detection_latency_sec >= 0) {
      std::snprintf(lat, sizeof(lat), "%7lld",
                    static_cast<long long>(out.detection_latency_sec));
    } else {
      std::snprintf(lat, sizeof(lat), "%7s", "-");
    }
    if (out.ttr_sec >= 0.0) {
      std::snprintf(ttr, sizeof(ttr), "%8.1f", out.ttr_sec);
    } else {
      std::snprintf(ttr, sizeof(ttr), "%8s", "-");
    }
    std::printf("%4zu | %8s %s %7zu %7zu | %6s %7s | %s\n", i,
                out.detected ? "yes" : "NO", lat, out.true_triggers,
                out.false_triggers, out.diagnosed ? "yes" : "NO",
                out.rsql_correct ? "yes" : "no", ttr);
  }
  std::printf("\nrecall %.2f  precision %.2f  duplicate triggers %zu  "
              "median latency %.1fs  mean TTR %.1fs\n\n",
              summary.recall, summary.precision, summary.duplicate_triggers,
              summary.median_detection_latency_sec, summary.mean_ttr_sec);

  // --- Replay determinism: same log, repeated / reshaped runs -----------
  pinsql::eval::OnlineE2EOptions det = options;
  det.num_cases = 1;
  const auto base = pinsql::eval::RunOnlineCase(det, 0);
  const auto repeat = pinsql::eval::RunOnlineCase(det, 0);
  pinsql::eval::OnlineE2EOptions det4 = det;
  det4.replay.num_ingest_workers = 4;
  const auto ingest4 = pinsql::eval::RunOnlineCase(det4, 0);
  pinsql::eval::OnlineE2EOptions detd4 = det;
  detd4.replay.fleet.scheduler.diagnoser.num_threads = 4;
  const auto diag4 = pinsql::eval::RunOnlineCase(detd4, 0);

  const bool repeat_identical = base.fingerprint == repeat.fingerprint;
  const bool ingest_identical = base.fingerprint == ingest4.fingerprint;
  const bool diag_identical = base.fingerprint == diag4.fingerprint;

  // --- Severity-0 action faults are invisible ---------------------------
  pinsql::eval::OnlineE2EOptions no_hook = det;
  no_hook.use_fault_hook = false;
  const auto hook_free = pinsql::eval::RunOnlineCase(no_hook, 0);
  const bool sev0_noop = base.fingerprint == hook_free.fingerprint;

  // --- Forecasting ensemble through the full online loop ----------------
  // The screen+forecaster ensemble must not regress the legacy pipeline's
  // recall on the standard cases, and its replays must stay bit-identical
  // across ingest-worker counts (the forecaster state is part of the
  // deterministic core, not a side channel).
  pinsql::eval::OnlineE2EOptions ens = options;
  ens.replay.fleet.detector.forecasters =
      pinsql::detect::DefaultEnsembleForecasters();
  const auto ens_summary = pinsql::eval::RunOnlineE2E(ens);
  std::printf("ensemble (screen + EWMA/Holt forecasters): recall %.2f  "
              "precision %.2f  duplicate triggers %zu\n\n",
              ens_summary.recall, ens_summary.precision,
              ens_summary.duplicate_triggers);
  pinsql::eval::OnlineE2EOptions ens_det = ens;
  ens_det.num_cases = 1;
  const auto ens_base = pinsql::eval::RunOnlineCase(ens_det, 0);
  pinsql::eval::OnlineE2EOptions ens_det4 = ens_det;
  ens_det4.replay.num_ingest_workers = 4;
  const auto ens_ingest4 = pinsql::eval::RunOnlineCase(ens_det4, 0);
  const bool ens_ingest_identical =
      ens_base.fingerprint == ens_ingest4.fingerprint;
  const bool ens_recall_ok = ens_summary.recall >= summary.recall;
  const bool ens_dup_ok = ens_summary.duplicate_triggers == 0;

  // --- Ingest throughput ----------------------------------------------
  const size_t records = static_cast<size_t>(
      EnvInt("PINSQL_BENCH_INGEST_RECORDS", smoke ? 50'000 : 400'000));
  std::printf("ingest throughput (%zu records):\n", records);
  for (bool cooperative : {true, false}) {
    const auto point = pinsql::eval::RunIngestThroughput(cooperative, records);
    std::printf("  %-12s: %9.0f rec/s  (%.3fs, %zu backpressure "
                "rejections)\n",
                cooperative ? "coop 1-core" : "1 producer",
                point.records_per_sec, point.seconds, point.dropped);
  }
  std::printf("\nshape checks:\n");
  const bool recall_ok = summary.recall >= 0.9;
  std::printf("  trigger recall >= 0.9 (%.2f): %s\n", summary.recall,
              recall_ok ? "OK" : "VIOLATED");
  const bool dup_ok = summary.duplicate_triggers == 0;
  std::printf("  zero duplicate triggers per anomaly (%zu): %s\n",
              summary.duplicate_triggers, dup_ok ? "OK" : "VIOLATED");
  const bool latency_ok = summary.median_detection_latency_sec >= 0.0 &&
                          summary.median_detection_latency_sec <= 5.0;
  std::printf("  median detection latency <= 5s (%.1fs): %s\n",
              summary.median_detection_latency_sec,
              latency_ok ? "OK" : "VIOLATED");
  const bool repaired_ok = summary.mean_ttr_sec >= 0.0;
  std::printf("  closed loop reached a supervised repair (mean TTR %.1fs): "
              "%s\n",
              summary.mean_ttr_sec, repaired_ok ? "OK" : "VIOLATED");
  std::printf("  replay bit-identical across repeated runs: %s\n",
              repeat_identical ? "OK" : "VIOLATED");
  std::printf("  replay bit-identical at 1 vs 4 ingest workers: %s\n",
              ingest_identical ? "OK" : "VIOLATED");
  std::printf("  replay bit-identical at 1 vs 4 diagnoser threads: %s\n",
              diag_identical ? "OK" : "VIOLATED");
  std::printf("  severity-0 action-fault injector is a no-op: %s\n",
              sev0_noop ? "OK" : "VIOLATED");
  std::printf("  ensemble recall >= legacy recall (%.2f vs %.2f): %s\n",
              ens_summary.recall, summary.recall,
              ens_recall_ok ? "OK" : "VIOLATED");
  std::printf("  ensemble zero duplicate triggers (%zu): %s\n",
              ens_summary.duplicate_triggers, ens_dup_ok ? "OK" : "VIOLATED");
  std::printf("  ensemble replay bit-identical at 1 vs 4 ingest workers: "
              "%s\n",
              ens_ingest_identical ? "OK" : "VIOLATED");

  return (recall_ok ? 0 : 1) + (dup_ok ? 0 : 1) + (latency_ok ? 0 : 1) +
         (repaired_ok ? 0 : 1) + (repeat_identical ? 0 : 1) +
         (ingest_identical ? 0 : 1) + (diag_identical ? 0 : 1) +
         (sev0_noop ? 0 : 1) + (ens_recall_ok ? 0 : 1) + (ens_dup_ok ? 0 : 1) +
         (ens_ingest_identical ? 0 : 1);
}
