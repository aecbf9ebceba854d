/// Google-benchmark micro-benchmarks for the hot kernels of PinSQL: SQL
/// fingerprinting, Pearson correlation, session estimation, the lock
/// manager, the simulation engine, JSON parsing, and the arena-backed
/// ingest path (staging, pump, arena and log-store primitives). These
/// back the efficiency discussion of Sec. VIII-B (stage times of the
/// 14.94 s average diagnosis) and the DESIGN.md §13 memory-layout numbers.
///
/// `--smoke` shortens every benchmark for CI (mapped to a small
/// --benchmark_min_time); combine with --benchmark_filter=Ingest and
/// --benchmark_out=BENCH_ingest.json --benchmark_out_format=json for the
/// machine-readable ingest sweep.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/session_estimator.h"
#include "dbsim/engine.h"
#include "dbsim/lock_manager.h"
#include "logstore/log_store.h"
#include "online/stream_ingestor.h"
#include "sqltpl/fingerprint.h"
#include "ts/stats.h"
#include "util/arena.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

void BM_Fingerprint(benchmark::State& state) {
  const char* sql =
      "SELECT a.c0, b.c1 FROM orders a JOIN customers b ON a.cid = b.id "
      "WHERE a.status = 'open' AND a.total > 100.5 AND a.region IN "
      "(1,2,3,4) ORDER BY a.created LIMIT 50";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pinsql::sqltpl::Fingerprint(sql));
  }
}
BENCHMARK(BM_Fingerprint);

void BM_PearsonCorrelation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  pinsql::Rng rng(1);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform01();
    y[i] = x[i] + rng.Normal(0, 0.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pinsql::PearsonCorrelation(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PearsonCorrelation)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SessionEstimation(benchmark::State& state) {
  const int64_t n_sec = state.range(0);
  pinsql::Rng rng(2);
  std::vector<pinsql::QueryLogRecord> logs;
  for (int64_t sec = 0; sec < n_sec; ++sec) {
    for (int q = 0; q < 200; ++q) {
      pinsql::QueryLogRecord rec;
      rec.arrival_ms = sec * 1000 + rng.UniformInt(0, 999);
      rec.response_ms = rng.Uniform(1.0, 300.0);
      rec.sql_id = static_cast<uint64_t>(rng.UniformInt(1, 100));
      logs.push_back(rec);
    }
  }
  pinsql::TimeSeries observed(0, 1, static_cast<size_t>(n_sec));
  for (size_t i = 0; i < observed.size(); ++i) {
    observed[i] = rng.Uniform(0.0, 20.0);
  }
  pinsql::core::SessionEstimatorOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pinsql::core::EstimateSessions(
        logs, observed, 0, n_sec, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_SessionEstimation)->Arg(60)->Arg(300);

void BM_LockManagerGrantRelease(benchmark::State& state) {
  pinsql::dbsim::LockManager lm;
  std::vector<uint64_t> granted;
  uint64_t query = 1;
  for (auto _ : state) {
    const uint64_t key = pinsql::dbsim::MakeRowKey(1, query % 64);
    lm.Request(query, key, pinsql::dbsim::LockMode::kExclusive);
    granted.clear();
    lm.Release(query, key, &granted);
    ++query;
  }
}
BENCHMARK(BM_LockManagerGrantRelease);

void BM_EngineThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    pinsql::dbsim::SimConfig config;
    pinsql::dbsim::Engine engine(config);
    pinsql::Rng rng(3);
    std::vector<pinsql::dbsim::QueryArrival> arrivals;
    for (int i = 0; i < 20'000; ++i) {
      pinsql::dbsim::QueryArrival a;
      a.arrival_ms = rng.UniformInt(0, 9'999);
      a.spec.sql_id = 1;
      a.spec.cpu_ms = rng.Uniform(0.5, 3.0);
      a.spec.locks.push_back({pinsql::dbsim::MakeMdlKey(0),
                              pinsql::dbsim::LockMode::kShared});
      arrivals.push_back(std::move(a));
    }
    state.ResumeTiming();
    engine.AddArrivals(arrivals);
    engine.RunToCompletion();
    benchmark::DoNotOptimize(engine.completed().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20'000);
}
BENCHMARK(BM_EngineThroughput);

void BM_JsonParse(benchmark::State& state) {
  const std::string doc = R"({
    "rules": [
      {"anomaly": "cpu_usage.spike",
       "template_feature": "examined_rows.sudden_increase",
       "action": "optimize", "params": {"cpu_factor": 0.25},
       "notify": ["dingtalk", "sms"]},
      {"anomaly": "active_session.spike", "action": "throttle",
       "params": {"max_qps": 5, "duration_sec": 120}}
    ]})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pinsql::Json::Parse(doc));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_JsonParse);

// --- Ingest hot path ------------------------------------------------------

pinsql::QueryLogRecord IngestRecordAt(size_t i, uint64_t tid = 0) {
  pinsql::QueryLogRecord record;
  record.sql_id = tid * 131071ULL + i % 512;
  record.arrival_ms = static_cast<int64_t>(i % 600'000);
  record.response_ms = 1.0 + static_cast<double>(i % 17);
  record.examined_rows = static_cast<int64_t>(i % 100);
  return record;
}

/// Producer-side staging only: the per-record cost a collector thread pays
/// (queue lock + chunk append), pump kept out of the timed loop.
void BM_IngestStage(benchmark::State& state) {
  pinsql::online::IngestorOptions options;
  options.window_sec = 600;
  options.queue_capacity = 1 << 20;
  pinsql::online::StreamIngestor ingestor(options);
  size_t i = 0;
  size_t staged = 0;
  for (auto _ : state) {
    ingestor.IngestRecord(IngestRecordAt(i++));
    if (++staged >= (1 << 19)) {  // drain outside the timed region
      state.PauseTiming();
      ingestor.Pump();
      staged = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IngestStage);

/// Staging plus pump without an archive: stage a batch, detach and
/// recycle its chunks, alternating — the queue-handoff cost per record.
void BM_IngestStagePump(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  pinsql::online::IngestorOptions options;
  options.window_sec = 600;
  options.queue_capacity = 1 << 20;
  pinsql::online::StreamIngestor ingestor(options);
  size_t i = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < batch; ++k) {
      ingestor.IngestRecord(IngestRecordAt(i++));
    }
    benchmark::DoNotOptimize(ingestor.Pump());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_IngestStagePump)->Arg(256)->Arg(4096)->Arg(65536);

/// Stage+pump with the archive attached: adds the arena-backed LogStore
/// append (spans into slabs) to every pumped record.
void BM_IngestStagePumpArchived(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  pinsql::online::IngestorOptions options;
  options.window_sec = 600;
  options.queue_capacity = 1 << 20;
  pinsql::online::StreamIngestor ingestor(options);
  pinsql::LogStore archive;
  ingestor.AttachArchive(&archive);
  size_t i = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < batch; ++k) {
      ingestor.IngestRecord(IngestRecordAt(i++));
    }
    benchmark::DoNotOptimize(ingestor.Pump());
    if (archive.size() > (1 << 22)) {
      state.PauseTiming();
      archive.TrimBefore(700'000'000);  // reset retention outside the timer
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_IngestStagePumpArchived)->Arg(4096)->Arg(65536);

/// Per-template window assembly out of the archive: SnapshotRange plus
/// the aggregation, the series a diagnosis of that window computes.
void BM_IngestSnapshotTemplates(benchmark::State& state) {
  pinsql::online::IngestorOptions options;
  options.window_sec = 600;
  options.queue_capacity = 1 << 20;
  pinsql::online::StreamIngestor ingestor(options);
  pinsql::LogStore archive;
  ingestor.AttachArchive(&archive);
  for (size_t i = 0; i < (1 << 19); ++i) {
    ingestor.IngestRecord(IngestRecordAt(i));
    if (i % (1 << 16) == 0) ingestor.Pump();
  }
  ingestor.Pump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ingestor.SnapshotTemplates(0, 600));
  }
}
BENCHMARK(BM_IngestSnapshotTemplates);

void BM_ArenaCreateRelease(benchmark::State& state) {
  pinsql::util::Arena arena;
  std::vector<pinsql::util::Arena::Handle> handles;
  handles.reserve(1 << 16);
  for (auto _ : state) {
    for (int i = 0; i < (1 << 16); ++i) {
      handles.push_back(arena.Create<pinsql::QueryLogRecord>({}));
    }
    for (const auto h : handles) {
      arena.Release(h, sizeof(pinsql::QueryLogRecord));
    }
    handles.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_ArenaCreateRelease);

void BM_LogStoreAppendScan(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    pinsql::LogStore store;
    state.ResumeTiming();
    for (size_t i = 0; i < (1 << 16); ++i) {
      store.Append(IngestRecordAt((i * 7919) % (1 << 16)));
    }
    double sum = 0;
    store.ScanRange(0, 700'000,
                    [&sum](const pinsql::QueryLogRecord& r) {
                      sum += r.response_ms;
                    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_LogStoreAppendScan);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): recognizes `--smoke` (CI's
/// short mode) and translates it into a small --benchmark_min_time before
/// handing the rest to google-benchmark.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static std::string min_time = "--benchmark_min_time=0.05s";
  bool smoke = false;
  args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) args.push_back(min_time.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
