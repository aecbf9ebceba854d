/// Durable store microbench: WAL append throughput under each fsync
/// policy, recovery (full-scan replay) time as a function of WAL length,
/// and a checkpointed durable fleet: checkpoint size and cost, and
/// recovery from the newest checkpoint against recovery from the WAL
/// alone, at two history lengths. Runs on throwaway temp directories; real
/// disks will show the fsync gap far more strongly than CI's tmpfs-backed
/// /tmp.
///
/// Shape checks (hard, exit code = violations): every appended frame is
/// recovered byte-exactly under every policy; a torn tail is truncated on
/// the first scan and the second scan is clean; recovery touches every
/// byte the writer reported; a checkpoint body does not grow with the
/// history (within 1% at three times the length); both recoveries end
/// with identical archives, record for record, and identical FleetStats;
/// and each of them ends the same at 1 and at 4 advance workers. Throughput
/// ordering across fsync policies, and the recovery times at either worker
/// count, are printed but not counted — they are hardware-dependent.
///
/// Environment knobs: PINSQL_BENCH_STORE_SECONDS (simulated seconds per
/// policy run, default 20000), PINSQL_BENCH_STORE_BATCH (records per
/// second, default 32). `--smoke` shrinks everything for CI.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "store/env.h"
#include "store/wal.h"

namespace {

using pinsql::QueryLogRecord;
using pinsql::store::FsyncPolicy;
using pinsql::store::PosixEnv;
using pinsql::store::ScanWal;
using pinsql::store::SegmentFileName;
using pinsql::store::WalFrame;
using pinsql::store::WalOptions;
using pinsql::store::WalPosition;
using pinsql::store::WalScanStats;
using pinsql::store::WalWriter;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

std::string MakeTempDir() {
  std::string tmpl = "/tmp/pinsql_bench_store_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(2);
  }
  return tmpl;
}

void RemoveTree(const std::string& dir) { std::filesystem::remove_all(dir); }

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct AppendRun {
  double seconds = 0;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
};

/// Streams `sim_seconds` seconds of `batch` records + one sample each
/// through a fresh WAL under the given fsync policy.
AppendRun RunAppend(const std::string& dir, FsyncPolicy policy,
                    int sim_seconds, int batch) {
  WalOptions options;
  options.fsync = policy;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  if (!writer.ok()) {
    std::fprintf(stderr, "wal open: %s\n", writer.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<QueryLogRecord> records(static_cast<size_t>(batch));
  const auto start = std::chrono::steady_clock::now();
  for (int sec = 0; sec < sim_seconds; ++sec) {
    for (int i = 0; i < batch; ++i) {
      records[static_cast<size_t>(i)].arrival_ms =
          100'000'000LL + sec * 1000 + i;
      records[static_cast<size_t>(i)].sql_id =
          1 + static_cast<uint64_t>((sec * 31 + i) % 64);
      records[static_cast<size_t>(i)].response_ms = 2.5;
      records[static_cast<size_t>(i)].examined_rows = 40;
    }
    (void)(*writer)->AppendRecordBatch(records);
    pinsql::online::PerfSample sample;
    sample.sec = 100'000 + sec;
    sample.active_session = 4.0;
    (void)(*writer)->AppendSample(sample);
  }
  (void)(*writer)->Sync();
  AppendRun run;
  run.seconds = Seconds(start, std::chrono::steady_clock::now());
  run.frames = (*writer)->stats().frames_appended;
  run.bytes = (*writer)->stats().bytes_written;
  run.fsyncs = (*writer)->stats().fsyncs;
  (void)(*writer)->Close();
  return run;
}

struct ScanRun {
  double seconds = 0;
  uint64_t frames = 0;
  uint64_t records = 0;
  WalScanStats stats;
};

ScanRun RunScan(const std::string& dir) {
  ScanRun run;
  const auto start = std::chrono::steady_clock::now();
  const auto status = ScanWal(PosixEnv(), dir, WalOptions(), WalPosition{},
                              [&run](const WalFrame& frame,
                                     const WalPosition&) {
                                ++run.frames;
                                run.records += frame.records.size();
                              },
                              &run.stats);
  run.seconds = Seconds(start, std::chrono::steady_clock::now());
  if (!status.ok()) {
    std::fprintf(stderr, "scan: %s\n", status.ToString().c_str());
    std::exit(2);
  }
  return run;
}

/// Bytes of the files under `dir` whose names end in `suffix`, and the
/// newest such file's name.
uint64_t FileBytes(const std::string& dir, const std::string& suffix,
                   std::string* newest = nullptr) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    bytes += entry.file_size();
    if (newest != nullptr && name > *newest) *newest = entry.path().string();
  }
  return bytes;
}

/// One recovery of a fleet over `dir`.
struct Recovered {
  double ms = 0;
  std::unique_ptr<pinsql::fleet::FleetService> fleet;
};

constexpr int kTemplates = 40;

void RegisterTemplates(pinsql::fleet::FleetService* fleet) {
  for (uint64_t id = 1; id <= kTemplates; ++id) {
    std::string table = "t";
    table += std::to_string(id);
    pinsql::TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM ";
    entry.template_text += table;
    entry.template_text += " WHERE k = ?";
    entry.kind = pinsql::sqltpl::StatementKind::kSelect;
    entry.tables = {table};
    fleet->RegisterTemplateFleetWide(id, entry);
  }
}

std::vector<pinsql::fleet::FleetInstanceSpec> Specs(int instances) {
  std::vector<pinsql::fleet::FleetInstanceSpec> specs;
  for (int i = 0; i < instances; ++i) {
    specs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i / 4)});
  }
  return specs;
}

pinsql::fleet::FleetOptions CheckpointingOptions(const std::string& dir,
                                                 int advance_workers = 4) {
  pinsql::fleet::FleetOptions options;
  options.data_dir = dir;
  options.advance_workers = advance_workers;
  options.checkpoint_every_sec = 300;
  options.wal.segment_bytes = 256 << 10;
  options.wal.fsync = FsyncPolicy::kNever;
  options.scheduler.zero_timings = true;
  return options;
}

Recovered Recover(const std::string& dir, int instances,
                  int advance_workers) {
  Recovered out;
  out.fleet = std::make_unique<pinsql::fleet::FleetService>(
      Specs(instances), CheckpointingOptions(dir, advance_workers));
  RegisterTemplates(out.fleet.get());
  out.fleet->Start();
  out.ms = out.fleet->recovery().recovery_ms;
  return out;
}

/// Whether two recovered fleets hold the same archives, record for record,
/// and the same FleetStats (the journal writers each incarnation opened
/// included).
bool SameRecovery(const Recovered& a, const Recovered& b) {
  for (uint32_t id : a.fleet->instance_ids()) {
    const auto left = a.fleet->archive(id)->SnapshotRange(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max());
    const auto right = b.fleet->archive(id)->SnapshotRange(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max());
    if (left.size() != right.size()) return false;
    for (size_t i = 0; i < left.size(); ++i) {
      if (left[i].arrival_ms != right[i].arrival_ms ||
          left[i].sql_id != right[i].sql_id ||
          left[i].response_ms != right[i].response_ms ||
          left[i].examined_rows != right[i].examined_rows) {
        return false;
      }
    }
  }
  const pinsql::fleet::FleetStats x = a.fleet->stats();
  const pinsql::fleet::FleetStats y = b.fleet->stats();
  const auto& xi = x.ingest;
  const auto& yi = y.ingest;
  return x.instances == y.instances &&
         xi.records_enqueued == yi.records_enqueued &&
         xi.records_folded == yi.records_folded &&
         xi.records_dropped_backpressure == yi.records_dropped_backpressure &&
         xi.records_dropped_late == yi.records_dropped_late &&
         xi.records_dropped_future == yi.records_dropped_future &&
         xi.records_staged == yi.records_staged &&
         xi.metric_samples == yi.metric_samples &&
         xi.metric_samples_dropped == yi.metric_samples_dropped &&
         x.samples_observed == y.samples_observed &&
         x.triggers_confirmed == y.triggers_confirmed &&
         x.triggers_accepted == y.triggers_accepted &&
         x.triggers_suppressed == y.triggers_suppressed &&
         x.diagnoses_ok == y.diagnoses_ok &&
         x.diagnoses_failed == y.diagnoses_failed &&
         x.storms_detected == y.storms_detected &&
         x.storm_deferred == y.storm_deferred &&
         x.neighbor_verdicts == y.neighbor_verdicts &&
         x.seconds_processed == y.seconds_processed &&
         x.retention_sweeps == y.retention_sweeps &&
         x.records_retired == y.records_retired &&
         x.pending_journal_records == y.pending_journal_records &&
         x.wal.bytes_written == y.wal.bytes_written &&
         x.wal.frames_appended == y.wal.frames_appended &&
         x.pool.enqueued == y.pool.enqueued &&
         x.pool.completed == y.pool.completed &&
         x.pool.max_queue_depth == y.pool.max_queue_depth &&
         x.pool.max_wait_sec == y.pool.max_wait_sec;
}

/// Advance-worker counts each recovery leg runs at; the first is serial.
constexpr int kRecoveryWorkers[] = {1, 4};

struct CheckpointRun {
  uint64_t body_bytes = 0;
  double checkpoint_ms = 0;
  uint64_t wal_bytes = 0;
  /// Recovery times at each of kRecoveryWorkers.
  double from_checkpoint_ms[2] = {0, 0};
  double from_wal_ms[2] = {0, 0};
  bool same = false;
  bool same_at_any_workers = false;
};

/// Streams `seconds` of ~13 records per instance-second through a durable
/// fleet checkpointing every 300 s, checkpoints once more, and recovers
/// copies of the data dir from the newest checkpoint and with the
/// checkpoints removed, each at every count of kRecoveryWorkers.
CheckpointRun RunCheckpointed(int instances, int seconds) {
  const std::string dir = MakeTempDir();
  std::vector<std::string> from_checkpoint_dirs;
  std::vector<std::string> from_wal_dirs;
  for (size_t k = 0; k < std::size(kRecoveryWorkers); ++k) {
    from_checkpoint_dirs.push_back(MakeTempDir());
    from_wal_dirs.push_back(MakeTempDir());
  }
  CheckpointRun run;
  {
    pinsql::fleet::FleetService fleet(Specs(instances),
                                      CheckpointingOptions(dir));
    RegisterTemplates(&fleet);
    fleet.Start();
    const int64_t t0 = 100'000;
    uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int64_t sec = t0; sec < t0 + seconds; ++sec) {
      for (int i = 0; i < instances; ++i) {
        for (int r = 0; r < 13; ++r) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          QueryLogRecord record;
          record.arrival_ms =
              sec * 1000 + static_cast<int64_t>((state >> 20) % 1000);
          record.sql_id = 1 + (state >> 40) % kTemplates;
          record.response_ms = 1.0 + static_cast<double>((state >> 8) % 50);
          record.examined_rows = static_cast<int64_t>((state >> 30) % 500);
          fleet.IngestRecord(static_cast<uint32_t>(i), record);
        }
        pinsql::online::PerfSample sample;
        sample.sec = sec;
        sample.active_session = 4.0 + static_cast<double>((state >> 12) % 3);
        sample.cpu_usage = 0.3;
        fleet.IngestMetrics(static_cast<uint32_t>(i), sample);
      }
      fleet.AdvanceTo(sec);
    }
    const auto start = std::chrono::steady_clock::now();
    const pinsql::Status status = fleet.Checkpoint();
    run.checkpoint_ms =
        Seconds(start, std::chrono::steady_clock::now()) * 1e3;
    if (!status.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", status.ToString().c_str());
      std::exit(2);
    }
    std::string newest;
    FileBytes(dir, ".ckpt", &newest);
    run.body_bytes = std::filesystem::file_size(newest) - 16;
    run.wal_bytes = FileBytes(dir, ".log");
    // Crash copies, taken without Stop() (whose final checkpoint would
    // leave no suffix to replay): some as is, some without checkpoints.
    for (const auto* copies : {&from_checkpoint_dirs, &from_wal_dirs}) {
      for (const std::string& copy : *copies) {
        std::filesystem::copy(
            dir, copy,
            std::filesystem::copy_options::recursive |
                std::filesystem::copy_options::overwrite_existing);
      }
    }
    for (const std::string& copy : from_wal_dirs) {
      for (const auto& entry : std::filesystem::directory_iterator(copy)) {
        if (entry.path().extension() == ".ckpt") {
          std::filesystem::remove(entry.path());
        }
      }
    }
    std::vector<Recovered> from_checkpoint;
    std::vector<Recovered> from_wal;
    for (size_t k = 0; k < std::size(kRecoveryWorkers); ++k) {
      from_checkpoint.push_back(Recover(from_checkpoint_dirs[k], instances,
                                        kRecoveryWorkers[k]));
      from_wal.push_back(
          Recover(from_wal_dirs[k], instances, kRecoveryWorkers[k]));
      run.from_checkpoint_ms[k] = from_checkpoint.back().ms;
      run.from_wal_ms[k] = from_wal.back().ms;
    }
    run.same = from_checkpoint[0].fleet->recovery().checkpoint_loaded &&
               !from_wal[0].fleet->recovery().checkpoint_loaded &&
               SameRecovery(from_checkpoint[0], from_wal[0]);
    run.same_at_any_workers = true;
    for (size_t k = 1; k < std::size(kRecoveryWorkers); ++k) {
      run.same_at_any_workers = run.same_at_any_workers &&
                                SameRecovery(from_checkpoint[0],
                                             from_checkpoint[k]) &&
                                SameRecovery(from_wal[0], from_wal[k]);
    }
    for (const auto* recovered : {&from_checkpoint, &from_wal}) {
      for (const Recovered& fleet : *recovered) fleet.fleet->Stop();
    }
  }
  RemoveTree(dir);
  for (const auto* copies : {&from_checkpoint_dirs, &from_wal_dirs}) {
    for (const std::string& copy : *copies) RemoveTree(copy);
  }
  return run;
}

const char* PolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryBatch:
      return "every-batch";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int sim_seconds =
      EnvInt("PINSQL_BENCH_STORE_SECONDS", smoke ? 1500 : 20'000);
  const int batch = EnvInt("PINSQL_BENCH_STORE_BATCH", 32);

  std::printf("Durable store: WAL append throughput and recovery scan\n");
  std::printf("(%d simulated seconds, %d records/sec, frame = batch+sample)"
              "\n\n",
              sim_seconds, batch);

  // --- Append throughput vs fsync policy ---------------------------------
  std::printf("%12s | %9s %9s %9s | %8s\n", "fsync", "MB/s", "frames/s",
              "fsyncs", "recovered");
  std::printf("-------------+-------------------------------+----------\n");
  bool recovered_ok = true;
  for (FsyncPolicy policy : {FsyncPolicy::kEveryBatch, FsyncPolicy::kInterval,
                             FsyncPolicy::kNever}) {
    const std::string dir = MakeTempDir();
    const AppendRun append = RunAppend(dir, policy, sim_seconds, batch);
    const ScanRun scan = RunScan(dir);
    const bool ok =
        scan.frames == append.frames &&
        scan.records ==
            static_cast<uint64_t>(sim_seconds) * static_cast<uint64_t>(batch) &&
        !scan.stats.seq_gap && scan.stats.frames_corrupt == 0;
    recovered_ok = recovered_ok && ok;
    std::printf("%12s | %9.1f %9.0f %9llu | %8s\n", PolicyName(policy),
                static_cast<double>(append.bytes) / 1e6 / append.seconds,
                static_cast<double>(append.frames) / append.seconds,
                static_cast<unsigned long long>(append.fsyncs),
                ok ? "all" : "LOST");
    RemoveTree(dir);
  }

  // --- Recovery time vs WAL length ---------------------------------------
  std::printf("\n%12s | %10s %10s %12s\n", "wal frames", "scan(ms)",
              "frames/ms", "records");
  std::printf("-------------+---------------------------------\n");
  bool scan_complete_ok = true;
  for (int scale : {1, 4, 16}) {
    const int secs = std::max(1, sim_seconds * scale / 16);
    const std::string dir = MakeTempDir();
    const AppendRun append = RunAppend(dir, FsyncPolicy::kNever, secs, batch);
    const ScanRun scan = RunScan(dir);
    scan_complete_ok = scan_complete_ok && scan.frames == append.frames;
    std::printf("%12llu | %10.2f %10.0f %12llu\n",
                static_cast<unsigned long long>(append.frames),
                scan.seconds * 1e3, scan.frames / (scan.seconds * 1e3),
                static_cast<unsigned long long>(scan.records));
    RemoveTree(dir);
  }

  // --- Torn tail: truncated on first scan, clean on the second -----------
  bool torn_ok = true;
  {
    const std::string dir = MakeTempDir();
    const AppendRun append =
        RunAppend(dir, FsyncPolicy::kNever, std::max(1, sim_seconds / 16),
                  batch);
    {
      std::ofstream f(dir + "/" + SegmentFileName(1),
                      std::ios::binary | std::ios::app);
      f.write("\x99\x00\x00\x00\x01", 5);  // half a frame header
    }
    const ScanRun first = RunScan(dir);
    torn_ok = torn_ok && first.stats.torn_tail_bytes_truncated > 0 &&
              first.frames == append.frames;
    const ScanRun second = RunScan(dir);
    torn_ok = torn_ok && second.stats.frames_corrupt == 0 &&
              second.stats.torn_tail_bytes_truncated == 0 &&
              second.frames == append.frames;
    RemoveTree(dir);
  }

  // --- Checkpointed durable fleet: size and recovery vs history ---------
  const int fleet_instances = smoke ? 4 : 16;
  const int short_history = smoke ? 600 : 900;
  std::printf("\nCheckpointed durable fleet (%d instances, ~13 records per "
              "instance-second, checkpoint every 300 s)\n",
              fleet_instances);
  std::printf("recovery times at %d / %d advance workers\n",
              kRecoveryWorkers[0], kRecoveryWorkers[1]);
  std::printf("%9s | %10s %13s %10s | %17s %17s\n", "history", "body(B)",
              "Checkpoint(ms)", "WAL(MB)", "from ckpt(ms)", "WAL only(ms)");
  std::printf("----------+--------------------------------------+------------"
              "------------------------\n");
  std::vector<CheckpointRun> checkpointed;
  for (int seconds : {short_history, 3 * short_history}) {
    checkpointed.push_back(RunCheckpointed(fleet_instances, seconds));
    const CheckpointRun& run = checkpointed.back();
    std::printf("%8ds | %10llu %13.2f %10.2f | %7.1f / %7.1f %7.1f / %7.1f\n",
                seconds, static_cast<unsigned long long>(run.body_bytes),
                run.checkpoint_ms, static_cast<double>(run.wal_bytes) / 1e6,
                run.from_checkpoint_ms[0], run.from_checkpoint_ms[1],
                run.from_wal_ms[0], run.from_wal_ms[1]);
  }
  const uint64_t short_body = checkpointed[0].body_bytes;
  const uint64_t long_body = checkpointed[1].body_bytes;
  const bool body_flat = short_body > 0 &&
                         long_body <= short_body + short_body / 100 &&
                         long_body + short_body / 100 >= short_body;
  const bool recoveries_agree = checkpointed[0].same && checkpointed[1].same;
  const bool workers_agree = checkpointed[0].same_at_any_workers &&
                             checkpointed[1].same_at_any_workers;

  std::printf("\nshape checks:\n");
  std::printf("  every appended frame recovered under every policy: %s\n",
              recovered_ok ? "OK" : "VIOLATED");
  std::printf("  recovery scan complete at every WAL length: %s\n",
              scan_complete_ok ? "OK" : "VIOLATED");
  std::printf("  torn tail truncated once, clean thereafter: %s\n",
              torn_ok ? "OK" : "VIOLATED");
  std::printf("  checkpoint body flat in history (within 1%%): %s\n",
              body_flat ? "OK" : "VIOLATED");
  std::printf("  checkpoint and WAL-only recoveries agree: %s\n",
              recoveries_agree ? "OK" : "VIOLATED");
  std::printf("  each recovery agrees at %d and %d advance workers: %s\n",
              kRecoveryWorkers[0], kRecoveryWorkers[1],
              workers_agree ? "OK" : "VIOLATED");

  return (recovered_ok ? 0 : 1) + (scan_complete_ok ? 0 : 1) +
         (torn_ok ? 0 : 1) + (body_flat ? 0 : 1) + (recoveries_agree ? 0 : 1) +
         (workers_agree ? 0 : 1);
}
