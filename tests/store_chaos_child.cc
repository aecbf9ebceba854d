// Chaos child for store_chaos_test: streams the synthetic incident into a
// durable fleet of one under the given data dir, reporting per-second
// progress so the parent can SIGKILL it mid-ingest. Deliberately never
// stops gracefully — once the feed is done it sleeps until killed, so the
// WAL always ends the way a crashed process leaves it.
//
// usage: store_chaos_child <data_dir> <progress_file> <checkpoint_every_sec>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "online/replay.h"

namespace {

using pinsql::QueryLogRecord;
using pinsql::TemplateCatalogEntry;

pinsql::online::PerfSample Sample(int64_t sec, double session) {
  pinsql::online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

/// Same synthetic incident as the recovery/replay suites.
pinsql::online::ReplayLog SyntheticIncident() {
  pinsql::online::ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200;
  const int64_t t1 = onset + 120;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = sec >= onset;
    log.samples.push_back(Sample(sec, anomalous ? 380.0 : 4.0));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const int base = 6;
    const int extra = anomalous ? 40 : 0;
    for (int i = 0; i < base + extra; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = i < base ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = i < base ? 2.0 : 450.0;
      r.examined_rows = i < base ? 20 : 500'000;
      log.records.push_back(r);
    }
  }
  return log;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <data_dir> <progress_file> <ckpt_every_sec>\n",
                 argv[0]);
    return 2;
  }
  const std::string data_dir = argv[1];
  const int progress_fd = ::open(argv[2], O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (progress_fd < 0) return 2;

  pinsql::fleet::FleetOptions options;
  options.data_dir = data_dir;
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = std::atoll(argv[3]);
  pinsql::fleet::FleetService service({{0, 0}}, options);

  for (uint64_t id : {1, 2, 3, 4}) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = pinsql::sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    service.RegisterTemplateFleetWide(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = pinsql::sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  service.RegisterTemplateFleetWide(9, heavy);
  service.Start();

  const pinsql::online::ReplayLog log = SyntheticIncident();
  size_t record_cursor = 0;
  for (size_t i = 0; i < log.samples.size(); ++i) {
    const int64_t sec = log.samples[i].sec;
    while (record_cursor < log.records.size() &&
           log.records[record_cursor].arrival_ms / 1000 == sec) {
      service.IngestRecord(0, log.records[record_cursor]);
      ++record_cursor;
    }
    service.IngestMetrics(0, log.samples[i]);
    service.AdvanceTo(sec);
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%zu\n", i);
    if (n > 0) ::pwrite(progress_fd, buf, static_cast<size_t>(n), 0);
    ::usleep(2000);  // paced so the parent can aim its SIGKILL
  }
  // No Stop(): wait for the parent's SIGKILL so the run always ends like a
  // crash, never like a drain.
  for (;;) ::pause();
}
