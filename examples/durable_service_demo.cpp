// Durable online service demo: a durable fleet of one survives kill -9.
//
// First run: starts a WAL-backed, checkpointing fleet of one instance
// under --data-dir, streams the first half of a synthetic incident, then
// hard-exits mid-ingest without any shutdown — exactly what `kill -9` (or
// a power cut with fsync on) leaves behind. Second run: recovers from the
// newest checkpoint (the archive rebuilt from the WAL below it) plus the
// WAL suffix after it, streams the rest, and
// prints the outcomes its own Start(), AdvanceTo() and Stop() calls
// returned (the fleet keeps none) — identical to a run that never crashed.
// The second run exits non-zero unless it resumed from a checkpoint and
// diagnosed the incident.
//
//   ./build/examples/durable_service_demo --data-dir data/durable_demo
//   ./build/examples/durable_service_demo --data-dir data/durable_demo

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_service.h"
#include "online/replay.h"

namespace {

using pinsql::QueryLogRecord;
using pinsql::TemplateCatalogEntry;

pinsql::online::ReplayLog SyntheticIncident() {
  pinsql::online::ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200;
  const int64_t t1 = onset + 120;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = sec >= onset;
    pinsql::online::PerfSample s;
    s.sec = sec;
    s.active_session = anomalous ? 380.0 : 4.0;
    s.cpu_usage = s.active_session * 0.05;
    s.iops_usage = s.active_session * 0.1;
    log.samples.push_back(s);
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const int count = anomalous ? 46 : 6;
    for (int i = 0; i < count; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = i < 6 ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = i < 6 ? 2.0 : 450.0;
      r.examined_rows = i < 6 ? 20 : 500'000;
      log.records.push_back(r);
    }
  }
  return log;
}

void RegisterCatalog(pinsql::fleet::FleetService* service) {
  for (uint64_t id : {1, 2, 3, 4}) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = pinsql::sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    service->RegisterTemplateFleetWide(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = pinsql::sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  service->RegisterTemplateFleetWide(9, heavy);
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir = "data/durable_demo";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--data-dir") == 0) data_dir = argv[i + 1];
  }

  pinsql::fleet::FleetOptions options;
  options.data_dir = data_dir;
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = 60;
  constexpr uint32_t kInstance = 0;
  pinsql::fleet::FleetService service({{kInstance, 0}}, options);
  RegisterCatalog(&service);
  std::vector<pinsql::fleet::FleetOutcome> outcomes = service.Start();

  const auto& recovery = service.recovery();
  const int64_t already = service.stats().seconds_processed;
  if (already > 0) {
    std::printf("recovered %lld seconds of stream from %s\n",
                static_cast<long long>(already), data_dir.c_str());
    std::printf("  checkpoint: %s   WAL frames rebuilt: %llu   replayed: "
                "%llu   recovery: %.1f ms (scan %.1f ms, replay %.1f ms)\n",
                recovery.checkpoint_loaded ? "loaded" : "none",
                static_cast<unsigned long long>(recovery.frames_rebuilt),
                static_cast<unsigned long long>(recovery.frames_replayed),
                recovery.recovery_ms, recovery.scan_ms, recovery.replay_ms);
  } else {
    std::printf("fresh data dir %s\n", data_dir.c_str());
  }

  const pinsql::online::ReplayLog log = SyntheticIncident();
  const int64_t resume_from = 100'000 + already;
  const int64_t crash_at = already == 0 ? 100'160 : INT64_MAX;
  size_t cursor = 0;
  int64_t fed = 0;
  for (const auto& sample : log.samples) {
    if (sample.sec >= crash_at) {
      std::printf("streamed %lld more seconds... simulating kill -9 "
                  "mid-ingest (no shutdown, no final checkpoint).\n"
                  "run the same command again to recover.\n",
                  static_cast<long long>(fed));
      std::fflush(stdout);
      std::_Exit(0);  // no destructors, no drain: a crash
    }
    while (cursor < log.records.size() &&
           log.records[cursor].arrival_ms / 1000 <= sample.sec) {
      if (log.records[cursor].arrival_ms / 1000 == sample.sec &&
          sample.sec >= resume_from) {
        service.IngestRecord(kInstance, log.records[cursor]);
      }
      ++cursor;
    }
    if (sample.sec < resume_from) continue;
    service.IngestMetrics(kInstance, sample);
    for (auto& outcome : service.AdvanceTo(sample.sec)) {
      outcomes.push_back(std::move(outcome));
    }
    ++fed;
  }

  for (auto& outcome : service.Stop()) outcomes.push_back(std::move(outcome));
  std::printf("streamed %lld more seconds, drained cleanly.\n",
              static_cast<long long>(fed));
  size_t diagnosed = 0;
  for (const auto& fleet_outcome : outcomes) {
    const auto& outcome = fleet_outcome.outcome;
    if (outcome.ok) ++diagnosed;
    std::printf("  trigger at sec %lld (severity %.1f): %s\n",
                static_cast<long long>(outcome.trigger.trigger_sec),
                outcome.trigger.severity,
                outcome.ok ? "diagnosed" : outcome.error.c_str());
  }
  if (diagnosed == 0) {
    std::printf("FAILED: no anomaly diagnosed (did the first run crash "
                "before feeding anything?)\n");
    return 1;
  }
  if (!recovery.checkpoint_loaded) {
    std::printf("FAILED: the run resumed without a checkpoint\n");
    return 1;
  }
  std::printf("the diagnosis above is byte-identical to a run that never "
              "crashed.\n");
  return 0;
}
