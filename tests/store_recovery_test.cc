#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dbsim/engine.h"
#include "detect/forecast.h"
#include "faults/storage_faults.h"
#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "fleet/fleet_state.h"
#include "online/replay.h"
#include "repair/supervisor.h"
#include "store/checkpoint.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "store/env.h"
#include "store/wal.h"

namespace pinsql::store {
namespace {

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "pinsql_store_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response = 2.0,
                   int64_t rows = 10) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response;
  r.examined_rows = rows;
  return r;
}

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

/// Same synthetic incident the replay determinism suite uses: flat
/// baseline, then template 9 floods the instance.
online::ReplayLog SyntheticIncident() {
  online::ReplayLog log;
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

LogStore SyntheticCatalog() {
  LogStore catalog;
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    catalog.RegisterTemplate(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  catalog.RegisterTemplate(9, heavy);
  return catalog;
}

void RegisterCatalog(fleet::FleetService* service) {
  const LogStore catalog = SyntheticCatalog();
  std::vector<uint64_t> ids;
  for (const auto& [id, entry] : catalog.catalog()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    service->RegisterTemplateFleetWide(id, catalog.catalog().at(id));
  }
}

/// The durable single instance: a fleet of one.
constexpr uint32_t kInstance = 0;

/// How much of each handed-out list a loaded checkpoint had counted, which
/// the recovered incarnation therefore never hands out again: each counter
/// right after Start() minus what Start() handed out (all 0 when no
/// checkpoint loaded). Closed storms have no counter of their own
/// (storms_detected counts an open one too): a test whose fleet storms
/// sets `storms` from the checkpoint's second.
struct Counted {
  size_t outcomes = 0;
  size_t confirmed = 0;
  size_t verdicts = 0;
  size_t storms = 0;
};

/// Drops the first `n` entries of `list`.
template <typename List>
void DropPrefix(List* list, size_t n) {
  EXPECT_LE(n, list->size());
  list->erase(list->begin(),
              list->begin() + static_cast<std::ptrdiff_t>(
                                  std::min(n, list->size())));
}

/// One incarnation of a durable fleet and everything its Start(),
/// AdvanceTo() and Stop() calls handed out: the fleet itself keeps none.
struct Incarnation {
  std::unique_ptr<fleet::FleetService> service;
  std::vector<fleet::FleetOutcome> outcomes;
  fleet::FleetEvents events;
  Counted checkpointed;

  void Take(std::vector<fleet::FleetOutcome> more) {
    outcomes.insert(outcomes.end(), std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
  }
  void Stop() { Take(service->Stop(&events)); }
  /// What this incarnation handed out, less the prefixes `skip` names (the
  /// recovery oracle, when this is the uninterrupted reference).
  fleet::FleetResult Result(const Counted& skip = {}) const {
    std::vector<fleet::FleetOutcome> kept = outcomes;
    fleet::FleetEvents kept_events = events;
    DropPrefix(&kept, skip.outcomes);
    DropPrefix(&kept_events.confirmed, skip.confirmed);
    DropPrefix(&kept_events.verdicts, skip.verdicts);
    DropPrefix(&kept_events.storms, skip.storms);
    return fleet::CollectFleetResult(*service, std::move(kept),
                                     std::move(kept_events));
  }
};

/// Starts `service` (recovering its data dir) as a new incarnation.
Incarnation Begin(std::unique_ptr<fleet::FleetService> service) {
  Incarnation run;
  run.outcomes = service->Start(&run.events);
  if (service->recovery().checkpoint_loaded) {
    const fleet::FleetStats stats = service->stats();
    run.checkpointed.outcomes = stats.diagnoses_ok + stats.diagnoses_failed +
                                stats.storm_deferred - run.outcomes.size();
    run.checkpointed.confirmed =
        stats.triggers_confirmed - run.events.confirmed.size();
    run.checkpointed.verdicts =
        stats.neighbor_verdicts - run.events.verdicts.size();
  }
  run.service = std::move(service);
  return run;
}

/// Feeds every second in [from_sec, to_sec) with the replay discipline:
/// the second's records, then its sample, then the clock.
void Feed(Incarnation* run, const online::ReplayLog& log, int64_t from_sec,
          int64_t to_sec) {
  for (const auto& sample : log.samples) {
    if (sample.sec < from_sec || sample.sec >= to_sec) continue;
    for (const auto& record : log.records) {
      if (record.arrival_ms / 1000 == sample.sec) {
        run->service->IngestRecord(kInstance, record);
      }
    }
    run->service->IngestMetrics(kInstance, sample);
    run->Take(run->service->AdvanceTo(sample.sec, &run->events));
  }
}

fleet::FleetOptions DurableOpts(const std::string& dir) {
  fleet::FleetOptions options;
  options.data_dir = dir;
  // Byte-comparable reports, as RunFleetReplay's.
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = 300;
  return options;
}

/// Constructs and starts (recovering `options.data_dir`) a fleet of one.
Incarnation Open(const fleet::FleetOptions& options, Env* env = nullptr) {
  fleet::FleetOptions with_env = options;
  with_env.env = env;
  auto service = std::make_unique<fleet::FleetService>(
      std::vector<fleet::FleetInstanceSpec>{{kInstance, 0}}, with_env);
  RegisterCatalog(service.get());
  return Begin(std::move(service));
}

std::string Fingerprint(const Incarnation& run) {
  return run.Result().InstanceFingerprint(kInstance);
}

/// The uninterrupted replay's digest, as the recovery oracle sees it: the
/// fleet of one's lists without the prefixes a loaded checkpoint had
/// counted — outcomes in completion order, confirmed triggers (detection
/// latencies) in firing order — which the recovered incarnation does not
/// hand out again.
std::string ReferenceFingerprint(const online::ReplayLog& log,
                                 const Counted& checkpointed = {},
                                 const fleet::FleetOptions& options = {}) {
  fleet::FleetReplayOptions replay;
  replay.fleet = options;
  replay.fleet.data_dir.clear();
  fleet::FleetResult reference = fleet::RunFleetReplay(
      {{kInstance, 0}}, {log}, SyntheticCatalog(), replay);
  DropPrefix(&reference.outcomes, checkpointed.outcomes);
  DropPrefix(&reference.latencies[kInstance], checkpointed.confirmed);
  DropPrefix(&reference.neighbors, checkpointed.verdicts);
  DropPrefix(&reference.storms, checkpointed.storms);
  return reference.InstanceFingerprint(kInstance);
}

std::string InstanceWalDir(const std::string& dir) {
  return dir + "/inst-" + std::to_string(kInstance);
}

/// Deletes every file in `dir` whose name ends in `suffix`; returns how
/// many.
size_t DeleteFilesEndingIn(const std::string& dir, const std::string& suffix) {
  auto names = PosixEnv()->ListDir(dir);
  EXPECT_TRUE(names.ok());
  size_t deleted = 0;
  for (const std::string& name : *names) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      EXPECT_TRUE(PosixEnv()->DeleteFile(dir + "/" + name).ok());
      ++deleted;
    }
  }
  return deleted;
}

/// Whether two archives hold the same records, field for field, in the
/// same order.
bool SameRecords(const LogStore* a, const LogStore* b) {
  const std::vector<QueryLogRecord> left = a->SnapshotRange(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max());
  const std::vector<QueryLogRecord> right = b->SnapshotRange(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max());
  return std::equal(left.begin(), left.end(), right.begin(), right.end(),
                    [](const QueryLogRecord& x, const QueryLogRecord& y) {
                      return x.arrival_ms == y.arrival_ms &&
                             x.response_ms == y.response_ms &&
                             x.sql_id == y.sql_id &&
                             x.examined_rows == y.examined_rows;
                    });
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerAndExtend) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  const std::string a = "hello ", b = "world";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c(a + b));
}

// --- Frame codec -----------------------------------------------------------

TEST(WalCodecTest, FramePayloadRoundTripAllKinds) {
  WalFrame records;
  records.kind = FrameKind::kRecordBatch;
  records.records = {Rec(123'456, 7, 9.5, 42), Rec(123'900, 8, 1.25, 0)};

  WalFrame sample;
  sample.kind = FrameKind::kSample;
  sample.sample = Sample(555, 12.5);
  sample.sample.row_lock_waits = 3.0;

  WalFrame tmpl;
  tmpl.kind = FrameKind::kTemplate;
  tmpl.template_id = 99;
  tmpl.template_entry.template_text = "SELECT * FROM t WHERE k = ?";
  tmpl.template_entry.kind = sqltpl::StatementKind::kSelect;
  tmpl.template_entry.tables = {"t", "u"};

  WalFrame event;
  event.kind = FrameKind::kRepairEvent;
  event.event.time_ms = 1234.5;
  event.event.kind = repair::RepairEventKind::kApplied;
  event.event.action = repair::ActionType::kThrottle;
  event.event.sql_id = 9;
  event.event.ticket = 3;
  event.event.attempt = 2;
  event.event.detail = "factor=0.5";

  for (const WalFrame* frame : {&records, &sample, &tmpl, &event}) {
    auto decoded = DecodeFramePayload(EncodeFramePayload(*frame));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->kind, frame->kind);
  }
  auto r = DecodeFramePayload(EncodeFramePayload(records));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 2u);
  EXPECT_EQ(r->records[0].arrival_ms, 123'456);
  EXPECT_DOUBLE_EQ(r->records[0].response_ms, 9.5);
  EXPECT_EQ(r->records[1].sql_id, 8u);

  auto s = DecodeFramePayload(EncodeFramePayload(sample));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->sample.sec, 555);
  EXPECT_DOUBLE_EQ(s->sample.row_lock_waits, 3.0);

  auto t = DecodeFramePayload(EncodeFramePayload(tmpl));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->template_id, 99u);
  EXPECT_EQ(t->template_entry.tables,
            (std::vector<std::string>{"t", "u"}));

  auto e = DecodeFramePayload(EncodeFramePayload(event));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->event.kind, repair::RepairEventKind::kApplied);
  EXPECT_EQ(e->event.detail, "factor=0.5");
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

TEST(WalCodecTest, FramePayloadBytesArePinned) {
  // The WAL's on-disk bytes are a format: one frame of each kind must
  // encode exactly as the format always has (a changed element codec shows
  // up here, not as unreadable journals).
  WalFrame records;
  records.kind = FrameKind::kRecordBatch;
  records.records = {Rec(123'456, 7, 9.5, 42), Rec(123'900, 8, 1.25, 0)};
  EXPECT_EQ(Hex(EncodeFramePayload(records)),
            "010200000040e2010000000000000000000000234007000000000000002a00"
            "000000000000fce3010000000000000000000000f43f080000000000000000"
            "00000000000000");

  WalFrame sample;
  sample.kind = FrameKind::kSample;
  sample.sample = Sample(555, 12.5);
  sample.sample.row_lock_waits = 3.0;
  sample.sample.mdl_waits = 0.5;
  EXPECT_EQ(Hex(EncodeFramePayload(sample)),
            "022b020000000000000000000000002940000000000000e43f000000000000"
            "f43f0000000000000840000000000000e03f");

  WalFrame tmpl;
  tmpl.kind = FrameKind::kTemplate;
  tmpl.template_id = 99;
  tmpl.template_entry.template_text = "SELECT * FROM t WHERE k = ?";
  tmpl.template_entry.kind = sqltpl::StatementKind::kSelect;
  tmpl.template_entry.tables = {"t", "u"};
  EXPECT_EQ(Hex(EncodeFramePayload(tmpl)),
            "0363000000000000001b0000000000000053454c454354202a2046524f4d20"
            "74205748455245206b203d203f000200000001000000000000007401000000"
            "0000000075");

  WalFrame event;
  event.kind = FrameKind::kRepairEvent;
  event.event.time_ms = 1234.5;
  event.event.kind = repair::RepairEventKind::kApplied;
  event.event.action = repair::ActionType::kThrottle;
  event.event.sql_id = 9;
  event.event.ticket = 3;
  event.event.attempt = 2;
  event.event.detail = "factor=0.5";
  EXPECT_EQ(Hex(EncodeFramePayload(event)),
            "0400000000004a934007000000000000006170706c69656408000000000000"
            "007468726f74746c65090000000000000003000000000000000200000000"
            "0000000a00000000000000666163746f723d302e35");
}

TEST(WalCodecTest, DecodeRejectsUnknownKindAndTrailingBytes) {
  EXPECT_FALSE(DecodeFramePayload("\x09junk").ok());
  EXPECT_FALSE(DecodeFramePayload("").ok());
  WalFrame frame;
  frame.kind = FrameKind::kSample;
  frame.sample = Sample(10, 1.0);
  std::string payload = EncodeFramePayload(frame);
  ASSERT_TRUE(DecodeFramePayload(payload).ok());
  payload.push_back('\0');  // trailing garbage must not be silently ignored
  EXPECT_FALSE(DecodeFramePayload(payload).ok());
}

// --- Writer / scanner ------------------------------------------------------

TEST(WalTest, WriterScannerRoundTrip) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());

  TemplateCatalogEntry entry;
  entry.template_text = "SELECT 1";
  ASSERT_TRUE((*writer)->AppendTemplate(5, entry).ok());
  ASSERT_TRUE(
      (*writer)->AppendRecordBatch({Rec(1000'000, 1), Rec(1000'500, 2)}).ok());
  ASSERT_TRUE((*writer)->AppendSample(Sample(1000, 4.0)).ok());
  repair::RepairEvent event;
  event.time_ms = 1000'700.0;
  event.kind = repair::RepairEventKind::kAttempt;
  ASSERT_TRUE((*writer)->AppendRepairEvent(event).ok());
  const WalPosition end = (*writer)->position();
  ASSERT_TRUE((*writer)->Close().ok());

  WalScanStats stats;
  std::vector<WalFrame> frames;
  WalPosition last_end;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f, const WalPosition& at) {
                        frames.push_back(f);
                        last_end = at;
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].kind, FrameKind::kTemplate);
  EXPECT_EQ(frames[1].kind, FrameKind::kRecordBatch);
  EXPECT_EQ(frames[1].records.size(), 2u);
  EXPECT_EQ(frames[2].kind, FrameKind::kSample);
  EXPECT_EQ(frames[3].kind, FrameKind::kRepairEvent);
  EXPECT_EQ(stats.frames_valid, 4u);
  EXPECT_EQ(stats.frames_corrupt, 0u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.samples, 1u);
  EXPECT_EQ(stats.last_seq, 1u);
  EXPECT_EQ(last_end, end);  // each frame's end position is handed out
  EXPECT_FALSE(stats.seq_gap);

  // Resuming from the end position replays nothing.
  WalScanStats tail_stats;
  size_t tail_frames = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, end,
                      [&](const WalFrame&, const WalPosition&) {
                        ++tail_frames;
                      },
                      &tail_stats)
                  .ok());
  EXPECT_EQ(tail_frames, 0u);
}

TEST(WalTest, RotationSealsAndScansAcrossSegments) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  options.segment_bytes = 512;  // force rotation quickly
  options.fsync = FsyncPolicy::kNever;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 2000; sec < 2040; ++sec) {
    ASSERT_TRUE((*writer)
                    ->AppendRecordBatch({Rec(sec * 1000, 1), Rec(sec * 1000, 2)})
                    .ok());
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 5.0)).ok());
  }
  EXPECT_GT((*writer)->stats().segments_sealed, 0u);
  EXPECT_FALSE((*writer)->sealed().empty());
  ASSERT_TRUE((*writer)->Close().ok());

  WalScanStats stats;
  size_t samples = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f, const WalPosition&) {
                        if (f.kind == FrameKind::kSample) ++samples;
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(samples, 40u);
  EXPECT_EQ(stats.records, 80u);
  EXPECT_GT(stats.last_seq, 1u);
  EXPECT_EQ(stats.segments_scanned, stats.segments.size());
  EXPECT_FALSE(stats.seq_gap);
  EXPECT_FALSE(stats.stopped_early);
}

TEST(WalTest, TornTailIsTruncatedAndCounted) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendSample(Sample(1000, 4.0)).ok());
  ASSERT_TRUE((*writer)->AppendSample(Sample(1001, 4.0)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  // Simulate a kill -9 mid-append: half a frame header at the tail.
  const std::string path = dir + "/" + SegmentFileName(1);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00", 3);
  }
  WalScanStats stats;
  size_t delivered = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame&, const WalPosition&) {
                        ++delivered;
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(stats.frames_corrupt, 1u);
  EXPECT_EQ(stats.torn_tail_bytes_truncated, 3u);

  // The truncation is physical: a second scan is clean.
  WalScanStats again;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &again)
                  .ok());
  EXPECT_EQ(again.frames_corrupt, 0u);
  EXPECT_EQ(again.frames_valid, 2u);
}

TEST(WalTest, MidSegmentCorruptionDiscardsRestOfSegmentOnly) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  options.segment_bytes = 256;
  options.fsync = FsyncPolicy::kNever;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 3000; sec < 3030; ++sec) {
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 5.0)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  WalScanStats clean;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &clean)
                  .ok());
  ASSERT_GT(clean.last_seq, 2u) << "fixture needs several segments";

  // Flip one payload byte in the middle of segment 1.
  const std::string path = dir + "/" + SegmentFileName(1);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(40);
    f.write(&byte, 1);
  }
  WalScanStats stats;
  std::vector<int64_t> secs;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f, const WalPosition&) {
                        secs.push_back(f.sample.sec);
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(stats.frames_corrupt, 1u);
  EXPECT_GT(stats.bytes_discarded, 0u);
  // The rest of segment 1 is abandoned, but later segments still replay:
  // the writer re-appends torn frames to the next segment, so mid-WAL
  // skip-to-next keeps the stream contiguous for the writer's own faults.
  EXPECT_LT(secs.size(), 30u);
  EXPECT_EQ(secs.back(), 3029);
  // The corrupted frame itself was never delivered.
  for (size_t i = 1; i < secs.size(); ++i) EXPECT_GT(secs[i], secs[i - 1]);
}

TEST(WalTest, MissingBaseSegmentIsAGap) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  options.segment_bytes = 256;
  options.fsync = FsyncPolicy::kNever;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 3000; sec < 3030; ++sec) {
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 5.0)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_TRUE(PosixEnv()->DeleteFile(dir + "/" + SegmentFileName(1)).ok());

  // A from-scratch scan that cannot find segment 1 lost the stream's base:
  // flagged as a gap, never passed off as a complete replay.
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &stats)
                  .ok());
  EXPECT_TRUE(stats.seq_gap);
}

TEST(WalTest, DuplicateSegmentSequenceKeepsFirstAndCounts) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  options.segment_bytes = 256;
  options.fsync = FsyncPolicy::kNever;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 3000; sec < 3030; ++sec) {
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 5.0)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  WalScanStats clean;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &clean)
                  .ok());

  // A second file whose header claims an already-seen sequence (e.g. a
  // botched copy-restore): the lexicographically-first name wins, the
  // duplicate is counted and ignored, and the replay is unchanged.
  std::string seg1;
  ASSERT_TRUE(
      PosixEnv()->ReadFile(dir + "/" + SegmentFileName(1), &seg1).ok());
  {
    std::ofstream dup(dir + "/" + SegmentFileName(99), std::ios::binary);
    dup.write(seg1.data(), static_cast<std::streamsize>(seg1.size()));
  }
  WalScanStats stats;
  size_t delivered = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame&, const WalPosition&) {
                        ++delivered;
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(stats.segments_duplicate_seq, 1u);
  EXPECT_EQ(delivered, clean.frames_valid);
  EXPECT_EQ(stats.last_seq, clean.last_seq);
}

TEST(WalTest, CrcValidFrameWithImpossibleTimestampIsRejected) {
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(PosixEnv()->CreateDirs(dir).ok());
  WalOptions options;

  // Hand-craft a segment: header, one valid frame at sec 1000, then a
  // CRC-valid frame dated ten days later — bytes that checksum are not
  // enough to be believed.
  std::string file;
  {
    codec::Writer w(&file);
    file.append("PSQLWAL1", 8);
    w.U32(1);  // version
    w.U64(1);  // seq
    w.U32(Crc32c(file.data(), file.size()));
  }
  WalFrame good;
  good.kind = FrameKind::kRecordBatch;
  good.records = {Rec(1'000'000, 1)};
  file += WrapFrame(EncodeFramePayload(good));
  WalFrame late;
  late.kind = FrameKind::kRecordBatch;
  late.records = {Rec(1'000'000 + 10LL * 24 * 3600 * 1000, 2)};
  file += WrapFrame(EncodeFramePayload(late));
  {
    std::ofstream f(dir + "/" + SegmentFileName(1), std::ios::binary);
    f.write(file.data(), static_cast<std::streamsize>(file.size()));
  }

  WalScanStats stats;
  std::vector<uint64_t> seen;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f, const WalPosition&) {
                        for (const auto& r : f.records) seen.push_back(r.sql_id);
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(stats.frames_valid, 1u);
  EXPECT_EQ(stats.frames_time_rejected, 1u);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_EQ(seen, (std::vector<uint64_t>{1}));
}

TEST(WalTest, OverflowingTimestampIsRejectedBeforeArithmetic) {
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(PosixEnv()->CreateDirs(dir).ok());
  WalOptions options;

  // First frame of the segment is a CRC-valid sample claiming a second
  // that cannot be multiplied into milliseconds without signed overflow.
  // As the segment's first timestamped frame it sees no range check
  // against a prior frame — the bounds check itself must reject it.
  std::string file;
  {
    codec::Writer w(&file);
    file.append("PSQLWAL1", 8);
    w.U32(1);  // version
    w.U64(1);  // seq
    w.U32(Crc32c(file.data(), file.size()));
  }
  WalFrame huge;
  huge.kind = FrameKind::kSample;
  huge.sample = Sample(std::numeric_limits<int64_t>::max() / 1000 + 1, 1.0);
  file += WrapFrame(EncodeFramePayload(huge));
  WalFrame good;
  good.kind = FrameKind::kSample;
  good.sample = Sample(1000, 4.0);
  file += WrapFrame(EncodeFramePayload(good));
  {
    std::ofstream f(dir + "/" + SegmentFileName(1), std::ios::binary);
    f.write(file.data(), static_cast<std::streamsize>(file.size()));
  }

  WalScanStats stats;
  size_t delivered = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame&, const WalPosition&) {
                        ++delivered;
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stats.frames_valid, 0u);
  EXPECT_EQ(stats.frames_time_rejected, 1u);
  EXPECT_TRUE(stats.stopped_early);

  // A repair event whose double timestamp is outside int64 range is
  // equally impossible: rejected before the cast, never delivered.
  const std::string dir2 = MakeTempDir();
  ASSERT_TRUE(PosixEnv()->CreateDirs(dir2).ok());
  std::string file2;
  {
    codec::Writer w(&file2);
    file2.append("PSQLWAL1", 8);
    w.U32(1);  // version
    w.U64(1);  // seq
    w.U32(Crc32c(file2.data(), file2.size()));
  }
  file2 += WrapFrame(EncodeFramePayload(good));
  WalFrame event;
  event.kind = FrameKind::kRepairEvent;
  event.event.time_ms = 1e300;
  event.event.kind = repair::RepairEventKind::kAttempt;
  file2 += WrapFrame(EncodeFramePayload(event));
  {
    std::ofstream f(dir2 + "/" + SegmentFileName(1), std::ios::binary);
    f.write(file2.data(), static_cast<std::streamsize>(file2.size()));
  }
  WalScanStats stats2;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir2, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &stats2)
                  .ok());
  EXPECT_EQ(stats2.frames_valid, 1u);
  EXPECT_EQ(stats2.frames_time_rejected, 1u);
}

TEST(WalTest, TornHeaderLeftoverIsTruncatedOnReopenNotPoisoned) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 1000; sec < 1005; ++sec) {
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 4.0)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  // kill -9 mid-header: segment 2 exists on disk with a torn header.
  {
    std::ofstream f(dir + "/" + SegmentFileName(2), std::ios::binary);
    f.write("PSQL", 4);
  }
  WalScanStats first;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&, const WalPosition&) {}, &first)
                  .ok());
  EXPECT_EQ(first.frames_valid, 5u);
  EXPECT_EQ(first.segments_invalid_header, 1u);
  EXPECT_EQ(first.last_seq, 1u);

  // The next incarnation reopens wal-2: opening truncates the garbage, so
  // its header lands at offset 0 instead of after it — the segment must
  // not be poisoned and the stream must stay contiguous.
  auto resumed = WalWriter::Open(PosixEnv(), dir, options, first.last_seq + 1);
  ASSERT_TRUE(resumed.ok());
  for (int64_t sec = 1005; sec < 1010; ++sec) {
    ASSERT_TRUE((*resumed)->AppendSample(Sample(sec, 4.0)).ok());
  }
  ASSERT_TRUE((*resumed)->Close().ok());

  WalScanStats second;
  std::vector<int64_t> secs;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f, const WalPosition&) {
                        secs.push_back(f.sample.sec);
                      },
                      &second)
                  .ok());
  EXPECT_EQ(second.frames_valid, 10u);
  EXPECT_EQ(second.segments_invalid_header, 0u);
  EXPECT_FALSE(second.seq_gap);
  EXPECT_EQ(second.last_seq, 2u);
  ASSERT_EQ(secs.size(), 10u);
  for (size_t i = 1; i < secs.size(); ++i) EXPECT_GT(secs[i], secs[i - 1]);
}

TEST(WalTest, CheckpointAtSegmentEndKeepsLsnSegment) {
  const std::string dir = MakeTempDir();
  WalOptions options;
  options.segment_bytes = 256;
  options.fsync = FsyncPolicy::kNever;
  auto writer = WalWriter::Open(PosixEnv(), dir, options, 1);
  ASSERT_TRUE(writer.ok());
  for (int64_t sec = 3000; sec < 3030; ++sec) {
    ASSERT_TRUE((*writer)->AppendSample(Sample(sec, 5.0)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  const std::vector<SealedSegment> sealed = (*writer)->sealed();
  ASSERT_GE(sealed.size(), 3u) << "fixture needs several sealed segments";

  // A checkpoint taken exactly at a sealed segment's end: its LSN points
  // one past that segment's last frame, and its first-needed segment is at
  // most the LSN's own. Deletion keeps every segment from the first-needed
  // one on, or a recovery from this checkpoint finds its start below the
  // oldest segment on disk and falsely reports a sequence gap.
  const SealedSegment& boundary = sealed[1];
  const WalPosition lsn{boundary.seq, boundary.size};
  const size_t deleted =
      (*writer)->DeleteSealedSegments(boundary.seq, PosixEnv());
  EXPECT_EQ(deleted, 1u);  // only segments strictly below the first needed
  EXPECT_TRUE(PosixEnv()->FileExists(boundary.path));

  WalScanStats stats;
  size_t delivered = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, lsn,
                      [&](const WalFrame&, const WalPosition&) {
                        ++delivered;
                      },
                      &stats)
                  .ok());
  EXPECT_FALSE(stats.seq_gap);
  EXPECT_FALSE(stats.stopped_early);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 30u);
}

// --- Checkpoint files -------------------------------------------------------

/// A checkpoint body decoder that accepts any body and keeps the last one.
CheckpointDecoder KeepBody(std::string* out) {
  return [out](std::string_view body) {
    *out = std::string(body);
    return Status::OK();
  };
}

TEST(CheckpointTest, NewestValidWinsAndCorruptNewestFallsBack) {
  const std::string dir = MakeTempDir();
  Env* env = PosixEnv();
  std::string body;
  auto empty = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->loaded);
  EXPECT_EQ(empty->highest_counter, 0u);

  ASSERT_TRUE(WriteCheckpoint(env, dir, 3, "state-at-1000").ok());
  ASSERT_TRUE(WriteCheckpoint(env, dir, 4, "state-at-2000").ok());

  auto loaded = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->loaded);
  EXPECT_EQ(loaded->counter, 4u);
  EXPECT_EQ(loaded->highest_counter, 4u);
  EXPECT_EQ(body, "state-at-2000");
  EXPECT_EQ(loaded->corrupt_skipped, 0u);

  // Flip a byte in the newest file: recovery must fall back to counter 3,
  // counting the skip, and delete the corrupt sibling — not the good
  // fallback.
  const std::string newest = dir + "/" + CheckpointFileName(4);
  std::string bytes;
  ASSERT_TRUE(env->ReadFile(newest, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto fallback = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(fallback.ok());
  EXPECT_TRUE(fallback->loaded);
  EXPECT_EQ(fallback->counter, 3u);
  EXPECT_EQ(fallback->highest_counter, 4u);
  EXPECT_EQ(body, "state-at-1000");
  EXPECT_EQ(fallback->corrupt_skipped, 1u);

  EXPECT_FALSE(env->FileExists(newest));
  auto survivor = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->counter, 3u);
  EXPECT_EQ(survivor->corrupt_skipped, 0u);

  // An intact body the decoder refuses as not fitting is skipped, counted
  // and kept.
  auto mismatched = LoadLatestCheckpoint(env, dir, [](std::string_view) {
    return Status::FailedPrecondition("another fleet shape");
  });
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(mismatched->loaded);
  EXPECT_EQ(mismatched->mismatched_skipped, 1u);
  EXPECT_EQ(mismatched->corrupt_skipped, 0u);
  EXPECT_EQ(mismatched->highest_counter, 3u);
  EXPECT_TRUE(env->FileExists(dir + "/" + CheckpointFileName(3)));

  // A body the decoder refuses otherwise is as invalid as a corrupt file.
  auto refused = LoadLatestCheckpoint(env, dir, [](std::string_view) {
    return Status::ParseError("refused");
  });
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->loaded);
  EXPECT_EQ(refused->corrupt_skipped, 1u);
  EXPECT_FALSE(env->FileExists(dir + "/" + CheckpointFileName(3)));

  // A directory that cannot be listed is an error, not "no checkpoint".
  EXPECT_FALSE(
      LoadLatestCheckpoint(env, dir + "/missing", KeepBody(&body)).ok());
}

/// Rewrites a checkpoint file's header version and re-seals its
/// whole-file CRC, so the version is the only thing that differs. Returns
/// the version the file had.
uint32_t RewriteCheckpointVersion(const std::string& path, uint32_t version) {
  std::string bytes;
  EXPECT_TRUE(PosixEnv()->ReadFile(path, &bytes).ok());
  EXPECT_GE(bytes.size(), 16u);
  codec::Reader header(std::string_view(bytes).substr(8, 4));
  uint32_t old_version = 0;
  header.U32(&old_version);
  std::string field;
  codec::Writer(&field).U32(version);
  bytes.replace(8, 4, field);
  field.clear();
  codec::Writer(&field).U32(Crc32c(bytes.data(), bytes.size() - 4));
  bytes.replace(bytes.size() - 4, 4, field);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return old_version;
}

TEST(CheckpointTest, OlderFormatVersionIsSkippedAndCounted) {
  const std::string dir = MakeTempDir();
  Env* env = PosixEnv();
  ASSERT_TRUE(WriteCheckpoint(env, dir, 3, "state-at-1000").ok());
  ASSERT_TRUE(WriteCheckpoint(env, dir, 4, "state-at-2000").ok());

  // Version 7 predates the v8 body with one ingest counter set per
  // instance: the otherwise intact newest file fails the version check and
  // recovery falls back, counting it.
  const std::string newest = dir + "/" + CheckpointFileName(4);
  const uint32_t current = RewriteCheckpointVersion(newest, 7);
  EXPECT_EQ(current, 8u);
  std::string older_format;
  ASSERT_TRUE(env->ReadFile(newest, &older_format).ok());
  std::string body;
  auto loaded = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->counter, 3u);
  EXPECT_EQ(body, "state-at-1000");
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
  EXPECT_FALSE(env->FileExists(newest)) << "an unusable file is deleted";

  // Only the version differed: restoring it makes the file win again.
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(older_format.data(),
            static_cast<std::streamsize>(older_format.size()));
  }
  RewriteCheckpointVersion(newest, current);
  auto restored = LoadLatestCheckpoint(env, dir, KeepBody(&body));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->counter, 4u);
  EXPECT_EQ(restored->corrupt_skipped, 0u);
}

TEST(CheckpointTest, PruneKeepsNewestAndSweepsTempFiles) {
  const std::string dir = MakeTempDir();
  Env* env = PosixEnv();
  for (uint64_t c = 1; c <= 4; ++c) {
    ASSERT_TRUE(WriteCheckpoint(env, dir, c, "state").ok());
  }
  {
    std::ofstream f(dir + "/" + CheckpointFileName(9) + ".tmp",
                    std::ios::binary);
    f << "interrupted";
  }
  EXPECT_EQ(PruneCheckpoints(env, dir, 2), 3u);  // 1, 2, and the .tmp
  EXPECT_FALSE(env->FileExists(dir + "/" + CheckpointFileName(1)));
  EXPECT_FALSE(env->FileExists(dir + "/" + CheckpointFileName(2)));
  EXPECT_TRUE(env->FileExists(dir + "/" + CheckpointFileName(3)));
  EXPECT_TRUE(env->FileExists(dir + "/" + CheckpointFileName(4)));
}

// --- Durable fleet of one: graceful restart -------------------------------

TEST(DurableFleetTest, UninterruptedRunMatchesReplayFingerprint) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  Incarnation run = Open(DurableOpts(dir));
  Feed(&run, log, 0, 1'000'000);
  run.Stop();
  ASSERT_FALSE(run.outcomes.empty()) << "the incident must trigger";
  EXPECT_EQ(Fingerprint(run), ReferenceFingerprint(log));
}

TEST(DurableFleetTest, GracefulRestartMidStreamIsByteIdentical) {
  const online::ReplayLog log = SyntheticIncident();
  const int64_t split = log.samples[log.samples.size() / 2].sec + 1;
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, split);
    run.Stop();
  }
  Incarnation resumed = Open(DurableOpts(dir));
  EXPECT_TRUE(resumed.service->recovery().checkpoint_loaded);
  Feed(&resumed, log, split, 1'000'000);
  resumed.Stop();
  ASSERT_FALSE(resumed.outcomes.empty());
  EXPECT_EQ(Fingerprint(resumed),
            ReferenceFingerprint(log, resumed.checkpointed));

  // Catalog survived: templates were journaled, not just kept in memory.
  EXPECT_NE(resumed.service->archive(kInstance)->FindTemplate(9), nullptr);
}

// --- Durable fleet of one: recovery edge cases ----------------------------

TEST(DurableFleetTest, EmptyDataDirStartsClean) {
  const std::string dir = MakeTempDir();
  Incarnation run = Open(DurableOpts(dir));
  EXPECT_FALSE(run.service->recovery().checkpoint_loaded);
  EXPECT_EQ(run.service->recovery().frames_valid, 0u);
  EXPECT_EQ(run.service->recovery().seq_gaps, 0u);
  EXPECT_TRUE(run.outcomes.empty());
  Feed(&run, SyntheticIncident(), 0, 100'010);
  run.Stop();
}

TEST(DurableFleetTest, CheckpointOnlyRecoveryRestoresState) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  // Remove every WAL segment: Stop()'s final checkpoint alone restores
  // detectors, routing and counters. It counted every outcome, so none is
  // reported again. The data it names is gone: recovery counts the missing
  // first-needed segment as a gap, and the archive comes back empty.
  ASSERT_GT(DeleteFilesEndingIn(InstanceWalDir(dir), ".log"), 0u);
  Incarnation resumed = Open(DurableOpts(dir));
  EXPECT_TRUE(resumed.service->recovery().checkpoint_loaded);
  EXPECT_EQ(resumed.service->recovery().frames_valid, 0u);
  EXPECT_EQ(resumed.service->recovery().seq_gaps, 1u);
  EXPECT_EQ(resumed.service->archive(kInstance)->size(), 0u);
  resumed.Stop();
  EXPECT_GT(resumed.checkpointed.outcomes, 0u);
  EXPECT_GT(resumed.checkpointed.confirmed, 0u);
  EXPECT_TRUE(resumed.outcomes.empty());
  EXPECT_TRUE(resumed.events.confirmed.empty());
  EXPECT_EQ(Fingerprint(resumed),
            ReferenceFingerprint(log, resumed.checkpointed));
}

TEST(DurableFleetTest, WalOnlyRecoveryReplaysEverything) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 0;  // the default: no checkpoint at all
  {
    Incarnation run = Open(options);
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  EXPECT_EQ(DeleteFilesEndingIn(dir, ".ckpt"), 0u) << "no checkpoint files";
  Incarnation resumed = Open(DurableOpts(dir));
  EXPECT_FALSE(resumed.service->recovery().checkpoint_loaded);
  EXPECT_GT(resumed.service->recovery().samples, 0u);
  EXPECT_EQ(resumed.service->recovery().seq_gaps, 0u);
  resumed.Stop();
  EXPECT_EQ(Fingerprint(resumed), ReferenceFingerprint(log));
}

TEST(DurableFleetTest, OlderFormatCheckpointsFallBackToWalReplay) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  // Every checkpoint claims version 7, the format before this one: none is
  // usable, so recovery must replay the WAL alone into the current format.
  auto names = PosixEnv()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  size_t rewritten = 0;
  for (const std::string& name : *names) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      RewriteCheckpointVersion(dir + "/" + name, 7);
      ++rewritten;
    }
  }
  ASSERT_GT(rewritten, 0u);
  Incarnation resumed = Open(DurableOpts(dir));
  EXPECT_FALSE(resumed.service->recovery().checkpoint_loaded);
  EXPECT_EQ(resumed.service->recovery().checkpoints_corrupt_skipped,
            rewritten);
  EXPECT_GT(resumed.service->recovery().samples, 0u);
  resumed.Stop();
  EXPECT_EQ(Fingerprint(resumed), ReferenceFingerprint(log));
}

/// The checkpoint files in `dir`, in counter order.
std::vector<std::string> CheckpointFiles(const std::string& dir) {
  auto names = PosixEnv()->ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::vector<std::string> files;
  for (const std::string& name : *names) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());  // zero-padded counters
  return files;
}

TEST(DurableFleetTest, CheckpointOfAnotherDetectorConfigurationIsKept) {
  // Checkpointed under [screen, EWMA, Holt], reopened under [Holt, EWMA]
  // without a screen, or with a Pettitt window or screen baseline shorter
  // than the buffers the checkpoints hold: every checkpoint is intact but
  // holds detector state of another configuration. Recovery skips and
  // keeps them all, and replays the WAL into the new configuration
  // instead.
  const online::ReplayLog log = SyntheticIncident();
  fleet::FleetOptions options = DurableOpts("");
  options.detector.forecasters = detect::DefaultEnsembleForecasters();
  fleet::FleetOptions reordered = options;
  reordered.detector.use_screen = false;
  reordered.detector.forecasters = {options.detector.forecasters[1],
                                    options.detector.forecasters[0]};
  fleet::FleetOptions shorter_pettitt = options;
  shorter_pettitt.detector.pettitt_window = 12;
  fleet::FleetOptions shorter_baseline = options;
  shorter_baseline.detector.screen.baseline_window = 60;
  for (fleet::FleetOptions reshaped :
       {reordered, shorter_pettitt, shorter_baseline}) {
    SCOPED_TRACE(testing::Message()
                 << "screen " << reshaped.detector.use_screen << ", pettitt "
                 << reshaped.detector.pettitt_window << ", baseline "
                 << reshaped.detector.screen.baseline_window);
    const std::string dir = MakeTempDir();
    options.data_dir = dir;
    {
      Incarnation run = Open(options);
      Feed(&run, log, 0, 1'000'000);
      run.Stop();
    }
    const std::vector<std::string> written = CheckpointFiles(dir);
    ASSERT_FALSE(written.empty());

    reshaped.data_dir = dir;
    Incarnation resumed = Open(reshaped);
    const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
    EXPECT_FALSE(recovery.checkpoint_loaded);
    EXPECT_EQ(recovery.checkpoints_mismatched_skipped, written.size());
    EXPECT_EQ(recovery.checkpoints_corrupt_skipped, 0u);
    EXPECT_GT(recovery.samples, 0u) << "the whole WAL replays";
    EXPECT_EQ(CheckpointFiles(dir), written) << "another shape deletes none";
    resumed.Stop();
    EXPECT_EQ(Fingerprint(resumed), ReferenceFingerprint(log, {}, reshaped));
  }
}

TEST(DurableFleetTest, CheckpointOfAnotherFleetShapeIsKeptAndOutnumbered) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  const std::vector<std::string> written = CheckpointFiles(dir);
  ASSERT_FALSE(written.empty());
  const uint64_t highest = std::stoull(written.back().substr(5, 6));

  // One more instance: every checkpoint is intact but shaped for the old
  // fleet. Recovery skips and keeps them all, and replays the WAL instead.
  auto service = std::make_unique<fleet::FleetService>(
      std::vector<fleet::FleetInstanceSpec>{{kInstance, 0}, {kInstance + 1, 0}},
      DurableOpts(dir));
  RegisterCatalog(service.get());
  Incarnation grown = Begin(std::move(service));
  const fleet::FleetRecoveryStats& recovery = grown.service->recovery();
  EXPECT_FALSE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.checkpoints_mismatched_skipped, written.size());
  EXPECT_EQ(recovery.checkpoints_corrupt_skipped, 0u);
  EXPECT_TRUE(recovery.checkpoint_error.empty());
  EXPECT_GT(recovery.samples, 0u);
  EXPECT_EQ(CheckpointFiles(dir), written) << "a reshaped fleet deletes none";

  // Its own checkpoint is numbered above every kept file, so it is the one
  // the next recovery tries first.
  ASSERT_TRUE(grown.service->Checkpoint().ok());
  EXPECT_TRUE(
      PosixEnv()->FileExists(dir + "/" + CheckpointFileName(highest + 1)));
  grown.Stop();
  EXPECT_EQ(Fingerprint(grown), ReferenceFingerprint(log));
}

/// A pass-through Env (fault severity 0) that cannot list one directory.
class UnlistableDirEnv : public faults::StorageFaultInjector {
 public:
  explicit UnlistableDirEnv(std::string dir)
      : StorageFaultInjector(PosixEnv(), faults::StorageFaultPlan{}),
        dir_(std::move(dir)) {}
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    if (dir == dir_) return Status::Internal("cannot list " + dir);
    return StorageFaultInjector::ListDir(dir);
  }

 private:
  std::string dir_;
};

TEST(DurableFleetTest, UnlistableDataDirReplaysTheWalAndWritesNoCheckpoint) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  const std::vector<std::string> written = CheckpointFiles(dir);
  ASSERT_FALSE(written.empty());

  // The checkpoints' counters are unknown, so a new one could sort below
  // them and be pruned in their favour: none is written this incarnation.
  UnlistableDirEnv env(dir);
  Incarnation resumed = Open(DurableOpts(dir), &env);
  const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
  EXPECT_FALSE(recovery.checkpoint_error.empty());
  EXPECT_FALSE(recovery.checkpoint_loaded);
  EXPECT_GT(recovery.samples, 0u) << "the whole WAL replays";
  EXPECT_EQ(resumed.service->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
  resumed.Stop();
  EXPECT_EQ(CheckpointFiles(dir), written);
  EXPECT_EQ(Fingerprint(resumed), ReferenceFingerprint(log));
}

TEST(DurableFleetTest, DuplicateSegmentSequenceIsCountedOnRecovery) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    Incarnation run = Open(DurableOpts(dir));
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
  }
  const std::string wal_dir = InstanceWalDir(dir);
  std::string seg1;
  ASSERT_TRUE(
      PosixEnv()->ReadFile(wal_dir + "/" + SegmentFileName(1), &seg1).ok());
  {
    std::ofstream dup(wal_dir + "/" + SegmentFileName(77), std::ios::binary);
    dup.write(seg1.data(), static_cast<std::streamsize>(seg1.size()));
  }
  Incarnation resumed = Open(DurableOpts(dir));
  EXPECT_EQ(resumed.service->recovery().segments_duplicate_seq, 1u);
  resumed.Stop();
  EXPECT_EQ(Fingerprint(resumed),
            ReferenceFingerprint(log, resumed.checkpointed));
}

TEST(DurableFleetTest, EachOutcomeIsReportedOnceAcrossACheckpointedCrash) {
  // One incident, a checkpoint every 60 s and a diagnose delay long enough
  // for one to land while the diagnosis waits. Two crash copies of the
  // data dir, each taken right after a periodic checkpoint: (a) one that
  // followed the completed diagnosis, (b) one that found it queued.
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 60;
  options.scheduler.diagnose_delay_sec = 60;
  const std::string reference = ReferenceFingerprint(log, {}, options);

  struct CrashCopy {
    std::string dir;
    int64_t sec = 0;       // the last second the copy holds
    size_t reported = 0;   // outcomes the live run had reported by then
    size_t confirmed = 0;  // and confirmed triggers it had handed out
  };
  std::optional<CrashCopy> after_diagnosis, while_queued;
  Incarnation live = Open(options);
  std::vector<std::string> checkpoints = CheckpointFiles(dir);
  for (const online::PerfSample& sample : log.samples) {
    Feed(&live, log, sample.sec, sample.sec + 1);
    if (CheckpointFiles(dir) == checkpoints) continue;
    checkpoints = CheckpointFiles(dir);
    const fleet::FleetStats stats = live.service->stats();
    const size_t queued =
        stats.pool.enqueued - stats.pool.completed - stats.pool.extracted;
    std::optional<CrashCopy>* slot = nullptr;
    if (queued > 0 && !while_queued.has_value()) {
      slot = &while_queued;
    } else if (queued == 0 && stats.diagnoses_ok > 0 &&
               !after_diagnosis.has_value()) {
      slot = &after_diagnosis;
    }
    if (slot == nullptr) continue;
    *slot = CrashCopy{MakeTempDir(), sample.sec, live.outcomes.size(),
                      live.events.confirmed.size()};
    std::filesystem::copy(dir, (*slot)->dir,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
  }
  live.Stop();
  ASSERT_TRUE(while_queued.has_value()) << "no checkpoint found it queued";
  ASSERT_TRUE(after_diagnosis.has_value()) << "no checkpoint followed it";
  ASSERT_EQ(live.outcomes.size(), 1u) << "one incident, reported once";
  ASSERT_EQ(live.events.confirmed.size(), 1u) << "confirmed once";
  EXPECT_EQ(Fingerprint(live), reference);
  EXPECT_EQ(while_queued->reported, 0u);
  EXPECT_EQ(after_diagnosis->reported, 1u);
  // Both checkpoints follow the trigger: it is handed out before either.
  EXPECT_EQ(while_queued->confirmed, 1u);
  EXPECT_EQ(after_diagnosis->confirmed, 1u);
  const online::AnomalyTrigger& incident = live.outcomes[0].outcome.trigger;

  for (const CrashCopy* copy : {&*after_diagnosis, &*while_queued}) {
    SCOPED_TRACE(copy == &*after_diagnosis ? "(a) after the diagnosis"
                                           : "(b) while it was queued");
    fleet::FleetOptions reopen = options;
    reopen.data_dir = copy->dir;
    Incarnation recovered = Open(reopen);
    ASSERT_TRUE(recovered.service->recovery().checkpoint_loaded);
    // The checkpoint counted exactly what the live run had handed out.
    EXPECT_EQ(recovered.checkpointed.outcomes, copy->reported);
    EXPECT_EQ(recovered.checkpointed.confirmed, copy->confirmed);
    Feed(&recovered, log, copy->sec + 1, 1'000'000);
    recovered.Stop();
    const auto reports = std::count_if(
        recovered.outcomes.begin(), recovered.outcomes.end(),
        [&](const fleet::FleetOutcome& outcome) {
          return outcome.outcome.trigger.onset_sec == incident.onset_sec &&
                 outcome.outcome.trigger.trigger_sec == incident.trigger_sec;
        });
    // (a) is not reported again, (b) exactly once; FleetStats counts the
    // diagnosis either way.
    EXPECT_EQ(static_cast<size_t>(reports), 1u - copy->reported);
    EXPECT_EQ(recovered.service->stats().diagnoses_ok, 1u);
    EXPECT_EQ(Fingerprint(recovered),
              ReferenceFingerprint(log, recovered.checkpointed, options));
    // What the first incarnation handed out up to the checkpoint plus what
    // the recovered one handed out is the uninterrupted run.
    std::vector<fleet::FleetOutcome> joined(
        live.outcomes.begin(),
        live.outcomes.begin() + static_cast<std::ptrdiff_t>(copy->reported));
    joined.insert(joined.end(), recovered.outcomes.begin(),
                  recovered.outcomes.end());
    fleet::FleetEvents joined_events;
    joined_events.confirmed.assign(
        live.events.confirmed.begin(),
        live.events.confirmed.begin() +
            static_cast<std::ptrdiff_t>(copy->confirmed));
    joined_events.confirmed.insert(joined_events.confirmed.end(),
                                   recovered.events.confirmed.begin(),
                                   recovered.events.confirmed.end());
    EXPECT_EQ(fleet::CollectFleetResult(*recovered.service, joined,
                                        joined_events)
                  .InstanceFingerprint(kInstance),
              reference);
  }
}

// --- Storage fault injection (always detected, never silently ingested) ---

TEST(StorageFaultTest, SeverityZeroIsAPassThrough) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  faults::StorageFaultPlan plan;  // severity 0
  plan.seed = 7;
  faults::StorageFaultInjector env(PosixEnv(), plan);
  {
    Incarnation run = Open(DurableOpts(dir), &env);
    Feed(&run, log, 0, 1'000'000);
    run.Stop();
    EXPECT_EQ(Fingerprint(run), ReferenceFingerprint(log));
  }
  EXPECT_EQ(env.stats().writes_torn, 0u);
  EXPECT_EQ(env.stats().fsyncs_failed, 0u);
  EXPECT_EQ(env.stats().reads_bit_flipped, 0u);
}

TEST(StorageFaultTest, TornWritesAndFsyncFailuresDegradeButKeepStreaming) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  faults::StorageFaultPlan plan;
  plan.seed = 11;
  plan.severity = 0.6;
  plan.bit_flip_rate = 0;  // write-path faults only in this test
  plan.short_read_rate = 0;
  faults::StorageFaultInjector env(PosixEnv(), plan);
  Incarnation run = Open(DurableOpts(dir), &env);
  Feed(&run, log, 0, 1'000'000);
  run.Stop();
  EXPECT_GT(env.stats().writes_torn + env.stats().fsyncs_failed, 0u)
      << "fault plan did not fire";
  // Write-path faults degrade durability, counted — they never kill the
  // stream. (Injector totals include checkpoint temp files, so the WAL's
  // own counters are a subset.)
  const fleet::FleetStats stats = run.service->stats();
  EXPECT_GT(stats.wal.fsync_failures, 0u);
  EXPECT_LE(stats.wal.fsync_failures, env.stats().fsyncs_failed);
  EXPECT_GT(stats.seconds_processed, 0);
  EXPECT_FALSE(run.outcomes.empty());
  // A recovery over what the torn disk retained must succeed, and any
  // data the faults destroyed must be *flagged* — a seq gap is only ever
  // reported alongside the corruption that caused it, never silently.
  Incarnation resumed = Open(DurableOpts(dir));
  const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
  if (recovery.seq_gaps > 0) {
    EXPECT_GT(recovery.segments_invalid_header + recovery.frames_corrupt +
                  recovery.frames_malformed,
              0u);
  }
  resumed.Stop();
}

TEST(StorageFaultTest, ReadPathBitFlipsAreAlwaysDetected) {
  const online::ReplayLog log = SyntheticIncident();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::string dir = MakeTempDir();
    {
      Incarnation run = Open(DurableOpts(dir));
      Feed(&run, log, 0, 1'000'000);
      run.Stop();
    }
    faults::StorageFaultPlan plan;
    plan.seed = seed;
    plan.severity = 1.0;
    plan.bit_flip_rate = 1.0;  // every read flips one random bit
    plan.torn_write_rate = 0;
    plan.short_read_rate = 0;
    plan.fsync_failure_rate = 0;
    faults::StorageFaultInjector env(PosixEnv(), plan);
    Incarnation resumed = Open(DurableOpts(dir), &env);
    ASSERT_GT(env.stats().reads_bit_flipped, 0u);
    const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
    // Every flipped file must have been caught by a CRC or header check —
    // a corrupt checkpoint skipped, a corrupt frame counted, or an invalid
    // segment header. Nothing corrupt is ever silently ingested.
    EXPECT_GT(recovery.checkpoints_corrupt_skipped + recovery.frames_corrupt +
                  recovery.frames_malformed + recovery.frames_time_rejected +
                  recovery.segments_invalid_header,
              0u)
        << "seed " << seed;
    resumed.Stop();
  }
}

// --- Forecasting-detector state through the durable path -------------------

/// A creep only the EWMA member's CUSUM accumulates: flat baseline, then
/// +0.02 sessions/sec. Records trickle in so a confirmed trigger has
/// something to diagnose.
online::ReplayLog DriftIncident() {
  online::ReplayLog log;
  const int64_t t0 = 100'000;
  for (int64_t i = 0; i < 1900; ++i) {
    const int64_t sec = t0 + i;
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double noise =
        static_cast<double>(state % 2000) / 1000.0 - 1.0;
    const double ramp = i < 700 ? 0.0 : 0.02 * static_cast<double>(i - 700);
    log.samples.push_back(Sample(sec, 8.0 + ramp + 0.4 * noise));
    const int count = 5 + (i < 700 ? 0 : static_cast<int>((i - 700) / 120));
    for (int j = 0; j < count; ++j) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = j < 5 ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms =
          j < 5 ? 2.0 : 90.0 + static_cast<double>(i - 700) / 8.0;
      r.examined_rows = j < 5 ? 20 : 200'000;
      log.records.push_back(r);
    }
  }
  return log;
}

TEST(CheckpointTest, ForecasterSnapshotFieldsRoundTripThroughCodec) {
  // Build live mid-excursion forecaster state (partial CUSUM block, anchor
  // set, evidence accumulated) and require every field to survive the
  // checkpoint codec — a dropped field would silently fork the post-
  // recovery stream.
  online::OnlineDetectorOptions detector_options;
  detector_options.forecasters = detect::DefaultEnsembleForecasters();
  online::OnlineAnomalyDetector detector(detector_options);
  const online::ReplayLog log = DriftIncident();
  // Stop mid-ramp: CUSUM evidence exists but no trigger has fired yet.
  for (size_t i = 0; i < 1300; ++i) {
    detector.Observe(log.samples[i].sec, log.samples[i].active_session);
  }

  const online::OnlineDetectorState state = detector.ExportState();
  std::string bytes;
  codec::Writer writer(&bytes);
  EncodeDetector(&writer, state);
  codec::Reader reader(bytes);
  online::OnlineDetectorState decoded;
  ASSERT_TRUE(DecodeDetector(&reader, &decoded));
  ASSERT_TRUE(reader.exhausted());

  const auto& want = state.ensemble;
  const auto& got = decoded.ensemble;
  ASSERT_EQ(want.forecasters.size(), got.forecasters.size());
  ASSERT_FALSE(want.forecasters.empty());
  bool any_evidence = false;
  for (size_t i = 0; i < want.forecasters.size(); ++i) {
    const detect::ForecastSnapshot& a = want.forecasters[i];
    const detect::ForecastSnapshot& b = got.forecasters[i];
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.cusum, b.cusum);
    EXPECT_EQ(a.cusum_start, b.cusum_start);
    EXPECT_EQ(a.cusum_anchor, b.cusum_anchor);
    EXPECT_EQ(a.cusum_anchor_set, b.cusum_anchor_set);
    EXPECT_EQ(a.block_sum, b.block_sum);
    EXPECT_EQ(a.block_n, b.block_n);
    EXPECT_EQ(a.in_run, b.in_run);
    EXPECT_EQ(a.drift_run, b.drift_run);
    EXPECT_EQ(a.model, b.model);
    if (a.cusum > 0.0 || a.block_n > 0) any_evidence = true;
  }
  EXPECT_TRUE(any_evidence) << "mid-ramp state should carry CUSUM evidence";

  // The restored state continues the stream bit-identically.
  online::OnlineAnomalyDetector resumed(detector_options);
  resumed.ImportState(decoded);
  for (size_t i = 1300; i < log.samples.size(); ++i) {
    const auto a =
        detector.Observe(log.samples[i].sec, log.samples[i].active_session);
    const auto b =
        resumed.Observe(log.samples[i].sec, log.samples[i].active_session);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->onset_sec, b->onset_sec);
      EXPECT_EQ(a->source, b->source);
    }
  }
  EXPECT_GE(detector.stats().triggers, 1u) << "the drift must confirm";
}

TEST(DurableFleetTest, RestartMidDriftResumesForecastersByteIdentically) {
  // Stop mid-ramp — after CUSUM evidence accumulated, before the drift
  // confirms — and require the recovered run to finish the incident
  // exactly like an uninterrupted replay, attributed to the forecaster
  // member. This is the durable-recovery contract for the detector state
  // (block CUSUM progress included).
  const online::ReplayLog log = DriftIncident();
  // The drift confirms at ~sample 960 with this realization; stop at 900 —
  // CUSUM evidence accumulated, trigger still ahead.
  const int64_t split = log.samples[900].sec + 1;
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.detector.forecasters = detect::DefaultEnsembleForecasters();
  {
    Incarnation run = Open(options);
    Feed(&run, log, 0, split);
    run.Stop();
    EXPECT_TRUE(run.outcomes.empty()) << "must stop pre-trigger";
  }
  Incarnation resumed = Open(options);
  EXPECT_TRUE(resumed.service->recovery().checkpoint_loaded);
  Feed(&resumed, log, split, 1'000'000);
  resumed.Stop();
  ASSERT_FALSE(resumed.outcomes.empty()) << "drift must trigger";
  EXPECT_EQ(resumed.outcomes[0].outcome.trigger.source, "ewma");
  EXPECT_EQ(Fingerprint(resumed),
            ReferenceFingerprint(log, resumed.checkpointed, options));
}

// --- Fleet checkpoints ------------------------------------------------------

online::AnomalyTrigger Trigger(uint32_t instance_id, int64_t onset) {
  online::AnomalyTrigger trigger;
  trigger.instance_id = instance_id;
  trigger.onset_sec = onset;
  trigger.trigger_sec = onset + 4;
  trigger.severity = 12.5 + instance_id;
  trigger.pettitt_p = 0.003;
  trigger.source = "ewma";
  return trigger;
}

/// One instance's slice with live component state at its own clock.
fleet::FleetInstanceState InstanceSlice(uint32_t instance_id, int64_t clock) {
  fleet::FleetInstanceState slice;
  slice.instance_id = instance_id;
  online::StreamIngestor ingestor(online::IngestorOptions{});
  online::OnlineAnomalyDetector detector(online::OnlineDetectorOptions{});
  for (int64_t sec = clock - 200; sec <= clock; ++sec) {
    ingestor.IngestMetrics(Sample(sec, sec > clock - 10 ? 300.0 : 4.0));
    detector.Observe(sec, sec > clock - 10 ? 300.0 : 4.0);
    ingestor.IngestRecord(Rec(sec * 1000 + 7, 1 + sec % 5));
  }
  slice.ingestor = ingestor.ExportState();
  slice.detector = detector.ExportState();
  slice.processed_any = true;
  slice.last_processed_sec = clock;
  const LogStore catalog = SyntheticCatalog();
  slice.catalog.assign(catalog.catalog().begin(), catalog.catalog().end());
  std::sort(slice.catalog.begin(), slice.catalog.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  slice.lsn = store::WalPosition{instance_id + 2, 4096u + instance_id};
  slice.first_needed_seq = instance_id;
  slice.retention_cutoff_ms = (clock - 3 * 24 * 3600) * 1000;
  return slice;
}

TEST(FleetCheckpointTest, StateCodecRoundTripsEveryField) {
  fleet::FleetState state;
  state.instances = {InstanceSlice(3, 100'200), InstanceSlice(5, 100'150)};
  state.dedup_activity = {{3, 100'190}, {5, 100'140}};

  fleet::QueuedTrigger queued;
  queued.trigger = Trigger(3, 100'170);
  queued.enqueue_sec = 100'174;  // aged: waiting since then
  queued.due_sec = 100'204;
  queued.base_priority = 12.5;
  queued.seq = 41;
  queued.storm_batch = 2;  // triaged out of a storm
  state.scheduler.queue.push_back(queued);
  state.scheduler.next_seq = 42;
  state.scheduler.stats = {40, 37, 2, 9, 4, 31};

  fleet::StormBatch open;
  open.id = 2;
  open.opened_sec = 100'180;
  open.members = {{Trigger(5, 100'176), 100'210, 17.5},
                  {Trigger(3, 100'177), 100'211, 15.5}};
  open.triaged = {5};
  state.correlator.open_batch = open;
  state.correlator.recent = {{100'176, 5}, {100'177, 3}};
  state.correlator.next_batch_id = 3;
  state.correlator.storms_detected = 2;
  fleet::HostEpisode episode;
  episode.events.push_back({100'176, 5, 100'172, 17.5});
  episode.flagged = true;
  state.correlator.hosts[1] = episode;

  state.processed_any = true;
  state.last_fleet_sec = 100'200;
  state.counters = {201, 7, 6, 1, 3, 1, 2, 4, 1, 1, 3, 17};

  const std::string bytes = fleet::EncodeFleetState(state);
  auto decoded = fleet::DecodeFleetState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Every field is covered by the encoder: the decoded state re-encodes to
  // the same bytes.
  EXPECT_EQ(fleet::EncodeFleetState(*decoded), bytes);

  const fleet::FleetState& got = *decoded;
  ASSERT_EQ(got.instances.size(), 2u);
  EXPECT_EQ(got.instances[1].instance_id, 5u);
  EXPECT_EQ(got.instances[0].last_processed_sec, 100'200);
  EXPECT_EQ(got.instances[1].last_processed_sec, 100'150);
  EXPECT_EQ(got.instances[1].lsn, (store::WalPosition{7, 4101}));
  EXPECT_EQ(got.instances[1].first_needed_seq, 5u);
  EXPECT_EQ(got.instances[0].retention_cutoff_ms,
            (100'200 - 3 * 24 * 3600) * 1000);
  EXPECT_EQ(got.instances[0].ingestor.enqueued, 201u);
  EXPECT_EQ(got.instances[0].ingestor.dropped_late, 0u);
  EXPECT_EQ(got.instances[0].ingestor.metric_samples, 201u);
  EXPECT_EQ(got.instances[0].catalog.size(), 5u);
  EXPECT_EQ(got.dedup_activity, state.dedup_activity);
  ASSERT_EQ(got.scheduler.queue.size(), 1u);
  EXPECT_EQ(got.scheduler.queue[0].seq, 41u);
  EXPECT_EQ(got.scheduler.queue[0].enqueue_sec, 100'174);
  EXPECT_EQ(got.scheduler.queue[0].storm_batch, 2u);
  EXPECT_EQ(got.scheduler.next_seq, 42u);
  EXPECT_EQ(got.scheduler.stats.max_wait_sec, 31);
  ASSERT_TRUE(got.correlator.open_batch.has_value());
  EXPECT_EQ(got.correlator.open_batch->members.size(), 2u);
  EXPECT_EQ(got.correlator.open_batch->triaged,
            (std::vector<uint32_t>{5}));
  EXPECT_EQ(got.correlator.recent.size(), 2u);
  EXPECT_TRUE(got.correlator.hosts.at(1).flagged);
  EXPECT_EQ(got.counters.neighbor_verdicts, 4u);
  EXPECT_EQ(got.counters.records_retired, 17u);

  // Truncation anywhere is a clean ParseError, never a partial state.
  for (size_t cut : {size_t{0}, bytes.size() / 3, bytes.size() - 1}) {
    EXPECT_FALSE(fleet::DecodeFleetState(bytes.substr(0, cut)).ok());
  }
  EXPECT_FALSE(fleet::DecodeFleetState(bytes + "x").ok());
}

TEST(FleetCheckpointTest, ImportRefusesStateItCannotRun) {
  // A real two-instance state under the default ensemble, every member
  // warm, imported into fresh fleets.
  fleet::FleetOptions options;
  options.detector.forecasters = detect::DefaultEnsembleForecasters();
  const std::vector<fleet::FleetInstanceSpec> specs = {{3, 0}, {5, 0}};
  fleet::FleetState exported;
  {
    fleet::FleetService source(specs, options);
    source.Start();
    for (int64_t sec = 100'000; sec < 100'120; ++sec) {
      for (const fleet::FleetInstanceSpec& spec : specs) {
        source.IngestMetrics(spec.instance_id, Sample(sec, 4.0 + sec % 3));
      }
      source.AdvanceTo(sec);
    }
    exported = source.ExportState();
    source.Stop();
  }
  const auto import = [&](const fleet::FleetState& state,
                          const fleet::FleetOptions& with) {
    fleet::FleetService target(specs, with);
    return target.ImportState(state).code();
  };
  ASSERT_EQ(import(exported, options), StatusCode::kOk);

  // Detector state of another configuration is another shape.
  fleet::FleetOptions no_screen = options;
  no_screen.detector.use_screen = false;
  EXPECT_EQ(import(exported, no_screen), StatusCode::kFailedPrecondition);
  fleet::FleetOptions fewer = options;
  fewer.detector.forecasters.pop_back();
  EXPECT_EQ(import(exported, fewer), StatusCode::kFailedPrecondition);
  fleet::FleetOptions swapped = options;
  std::swap(swapped.detector.forecasters[0], swapped.detector.forecasters[1]);
  EXPECT_EQ(import(exported, swapped), StatusCode::kFailedPrecondition);
  // So is one whose buffers outgrow this configuration's windows.
  const detect::EnsembleSnapshot& ensemble =
      exported.instances[0].detector.ensemble;
  fleet::FleetOptions shorter_pettitt = options;
  shorter_pettitt.detector.pettitt_window = 12;
  ASSERT_GT(ensemble.trailing.size(), 12u);
  EXPECT_EQ(import(exported, shorter_pettitt),
            StatusCode::kFailedPrecondition);
  fleet::FleetOptions shorter_baseline = options;
  shorter_baseline.detector.screen.baseline_window = 60;
  ASSERT_GT(ensemble.screen.clean.size(), 60u);
  EXPECT_EQ(import(exported, shorter_baseline),
            StatusCode::kFailedPrecondition);

  // A queued trigger or an open-storm member of an instance the fleet
  // lacks would be looked up when it runs.
  fleet::FleetState queued = exported;
  fleet::QueuedTrigger entry;
  entry.trigger = Trigger(9, 100'100);
  entry.enqueue_sec = 100'104;
  entry.due_sec = 100'134;
  queued.scheduler.queue.push_back(entry);
  EXPECT_EQ(import(queued, options), StatusCode::kInvalidArgument);
  fleet::FleetState storm = exported;
  storm.correlator.open_batch.emplace();
  storm.correlator.open_batch->opened_sec = 100'110;
  storm.correlator.open_batch->members = {{Trigger(9, 100'100), 100'134, 1.0}};
  EXPECT_EQ(import(storm, options), StatusCode::kInvalidArgument);

  // Ingest counters that account for more records than were offered: a
  // recovery would restage a wrapped count. A sum of them that wraps back
  // under the offered count is caught too.
  fleet::FleetState overcounted = exported;
  overcounted.instances[0].ingestor.folded =
      overcounted.instances[0].ingestor.enqueued + 5;
  EXPECT_EQ(import(overcounted, options), StatusCode::kInvalidArgument);
  fleet::FleetState wrapped = exported;
  online::IngestorState& counts = wrapped.instances[1].ingestor;
  counts.enqueued = 5;
  counts.folded = std::numeric_limits<uint64_t>::max();
  counts.dropped_late = 1;
  EXPECT_EQ(import(wrapped, options), StatusCode::kInvalidArgument);

  // A member clock that starts, or ends after its samples, beyond the
  // WAL's bound would put a trigger's onset there.
  for (int64_t start :
       {int64_t{1} << 60, -(int64_t{1} << 60), kMaxEventSec - 10}) {
    fleet::FleetState forecaster = exported;
    forecaster.instances[0].detector.ensemble.forecasters[0].start_time = start;
    EXPECT_EQ(import(forecaster, options), StatusCode::kInvalidArgument)
        << start;
    fleet::FleetState screen = exported;
    screen.instances[1].detector.ensemble.screen.start_time = start;
    EXPECT_EQ(import(screen, options), StatusCode::kInvalidArgument) << start;
  }

  // A screen baseline value no screen admits: its sorted window would be
  // unordered, and an erase of it could miss.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    fleet::FleetState screen = exported;
    std::vector<double>& clean =
        screen.instances[0].detector.ensemble.screen.clean;
    ASSERT_FALSE(clean.empty());
    clean[clean.size() / 2] = bad;
    EXPECT_EQ(import(screen, options), StatusCode::kInvalidArgument) << bad;
  }

  // A Holt update count that no conversion to an integer survives.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0, 1e20}) {
    fleet::FleetState holt = exported;
    std::vector<double>& model =
        holt.instances[1].detector.ensemble.forecasters[1].model;
    ASSERT_EQ(holt.instances[1].detector.ensemble.forecasters[1].method,
              detect::ForecastMethod::kHolt);
    ASSERT_EQ(model.size(), 3u);
    model[2] = bad;
    EXPECT_EQ(import(holt, options), StatusCode::kInvalidArgument) << bad;
  }
}

/// One instance's stream for the storm scenario: a calm baseline, then
/// (when `onset` >= 0) an active-session step with template 9 flooding.
online::ReplayLog StepStream(uint64_t salt, int64_t t0, int64_t t1,
                             int64_t onset) {
  online::ReplayLog log;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = onset >= 0 && sec >= onset;
    log.samples.push_back(Sample(sec, anomalous ? 380.0 : 4.0));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + salt;
    for (int i = 0; i < (anomalous ? 46 : 6); ++i) {
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

/// Streams seconds [from, to) of every instance's log, then advances.
void FeedFleet(Incarnation* run,
               const std::vector<fleet::FleetInstanceSpec>& specs,
               const std::vector<online::ReplayLog>& logs, int64_t from,
               int64_t to) {
  for (int64_t sec = from; sec < to; ++sec) {
    for (size_t i = 0; i < specs.size(); ++i) {
      for (const QueryLogRecord& record : logs[i].records) {
        if (record.arrival_ms / 1000 == sec) {
          run->service->IngestRecord(specs[i].instance_id, record);
        }
      }
      for (const online::PerfSample& sample : logs[i].samples) {
        if (sample.sec == sec) {
          run->service->IngestMetrics(specs[i].instance_id, sample);
        }
      }
    }
    run->Take(run->service->AdvanceTo(sec, &run->events));
  }
}

/// An audit trail as comparable text.
std::string AuditDigest(const std::vector<repair::RepairEvent>& audit) {
  std::string out;
  for (const repair::RepairEvent& event : audit) {
    out += event.ToJson().Dump();
    out += '\n';
  }
  return out;
}

/// The durable audit trail: the repair events one instance's WAL journaled.
std::string JournaledAudit(const std::string& data_dir, uint32_t instance_id) {
  std::vector<repair::RepairEvent> journaled;
  WalScanStats scan;
  EXPECT_TRUE(ScanWal(PosixEnv(),
                      data_dir + "/inst-" + std::to_string(instance_id),
                      WalOptions(), WalPosition{},
                      [&](const WalFrame& frame, const WalPosition&) {
                        if (frame.kind == FrameKind::kRepairEvent) {
                          journaled.push_back(frame.event);
                        }
                      },
                      &scan)
                  .ok());
  return AuditDigest(journaled);
}

/// How many of `storms` had closed by fleet second `sec` (and were handed
/// out before a checkpoint taken then).
size_t StormsClosedBy(const std::vector<fleet::StormBatch>& storms,
                      int64_t sec) {
  return static_cast<size_t>(
      std::count_if(storms.begin(), storms.end(),
                    [sec](const fleet::StormBatch& storm) {
                      return storm.closed_sec <= sec;
                    }));
}

/// A shadow engine + supervisor that closes one instance's loop.
struct Repairer {
  dbsim::Engine engine{dbsim::SimConfig{}};
  repair::RepairSupervisor supervisor{&engine, [] {
                                        repair::SupervisorOptions options;
                                        options.seed = 5;
                                        options.verify.enabled = false;
                                        return options;
                                      }()};
};

TEST(FleetCheckpointTest, StormCheckpointRecoversAfterStopAndCrash) {
  // Ten instances: six storm together at kStorm, one (the supervised one)
  // fires alone 25 s earlier, three stay calm. The checkpoint lands while
  // the storm is open and the supervised diagnosis still waits in the
  // queue; both a graceful reopen and a crash copy must then reproduce the
  // uninterrupted run's fingerprint (less what their checkpoint counted)
  // and journal its repair events exactly once.
  constexpr int64_t kT0 = 100'000;
  constexpr int64_t kStorm = kT0 + 260;
  constexpr int64_t kT1 = kStorm + 120;
  constexpr uint32_t kSupervised = 6;
  std::vector<online::ReplayLog> logs;
  for (uint32_t id = 0; id < 10; ++id) {
    int64_t onset = -1;
    if (id < 6) onset = kStorm + id % 3;
    if (id == kSupervised) onset = kStorm - 25;
    logs.push_back(StepStream(17 + id, kT0, kT1, onset));
  }

  fleet::FleetOptions options;
  options.scheduler.zero_timings = true;
  options.correlator.storm_min_instances = 4;
  options.correlator.storm_window_sec = 20;
  options.correlator.storm_triage_k = 3;
  options.correlator.neighbor_min_cotenants = 0;
  options.pool.pool_size = 2;
  options.checkpoint_every_sec = 100'000;  // explicit + final checkpoints
  const auto specs_with = [&](repair::RepairSupervisor* supervisor) {
    std::vector<fleet::FleetInstanceSpec> specs;
    for (uint32_t id = 0; id < 10; ++id) specs.push_back({id, id});
    specs[kSupervised].supervisor = supervisor;
    return specs;
  };
  const auto make = [&](const std::string& dir,
                        repair::RepairSupervisor* supervisor) {
    fleet::FleetOptions with_dir = options;
    with_dir.data_dir = dir;
    auto service =
        std::make_unique<fleet::FleetService>(specs_with(supervisor), with_dir);
    RegisterCatalog(service.get());
    return Begin(std::move(service));
  };

  Repairer reference_loop;
  Incarnation reference = make("", &reference_loop.supervisor);
  FeedFleet(&reference, specs_with(nullptr), logs, kT0, kT1);
  reference.Stop();
  const fleet::FleetResult want = reference.Result();
  const std::string want_audit =
      AuditDigest(reference_loop.supervisor.events());
  ASSERT_GE(reference.events.storms.size(), 1u);
  ASSERT_FALSE(want_audit.empty()) << "the supervised loop must act";

  const std::string dir = MakeTempDir();
  const std::string crash_copy = MakeTempDir();
  int64_t copied_at = 0;
  int64_t checkpointed_at = 0;
  {
    Repairer loop;
    Incarnation live = make(dir, &loop.supervisor);
    int64_t sec = kT0;
    for (; sec < kT1; ++sec) {
      FeedFleet(&live, specs_with(nullptr), logs, sec, sec + 1);
      const fleet::FleetStats stats = live.service->stats();
      const bool storm_open = stats.storms_detected > live.events.storms.size();
      const size_t queued =
          stats.pool.enqueued - stats.pool.completed - stats.pool.extracted;
      if (storm_open && queued > 0) break;
    }
    ASSERT_LT(sec, kT1) << "no second with an open storm and a queued "
                           "diagnosis";
    ASSERT_TRUE(loop.supervisor.events().empty())
        << "the supervised diagnosis must still be queued";
    ASSERT_TRUE(live.service->Checkpoint().ok());
    checkpointed_at = sec;
    // Stream on until the supervised diagnosis has run, so its repair
    // events sit in the WAL suffix only; then copy the data dir without
    // Stop(), as a crash leaves it.
    for (++sec; sec < kT1 && loop.supervisor.events().empty(); ++sec) {
      FeedFleet(&live, specs_with(nullptr), logs, sec, sec + 1);
    }
    ASSERT_LT(sec, kT1);
    copied_at = sec;
    std::filesystem::copy(dir, crash_copy,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    FeedFleet(&live, specs_with(nullptr), logs, copied_at, kT1);
    live.Stop();
    EXPECT_EQ(live.Result().Fingerprint(), want.Fingerprint());
    EXPECT_EQ(JournaledAudit(dir, kSupervised), want_audit);
  }

  {  // Reopen after the graceful Stop(): its final checkpoint wins, and it
     // counted everything, so the reopened fleet hands out nothing again.
    Repairer loop;
    Incarnation reopened = make(dir, &loop.supervisor);
    EXPECT_TRUE(reopened.service->recovery().checkpoint_loaded);
    reopened.checkpointed.storms =
        StormsClosedBy(reference.events.storms, kT1 - 1);
    reopened.Stop();
    EXPECT_EQ(reopened.checkpointed.outcomes, reference.outcomes.size());
    EXPECT_EQ(reopened.checkpointed.confirmed,
              reference.events.confirmed.size());
    EXPECT_EQ(reopened.checkpointed.storms, reference.events.storms.size());
    EXPECT_TRUE(reopened.outcomes.empty());
    EXPECT_TRUE(reopened.events.storms.empty());
    EXPECT_TRUE(reopened.events.confirmed.empty());
    EXPECT_EQ(reopened.Result().Fingerprint(),
              reference.Result(reopened.checkpointed).Fingerprint());
    EXPECT_EQ(JournaledAudit(dir, kSupervised), want_audit);
  }
  {  // Reopen the crash copy: the mid-storm checkpoint plus its suffix. The
     // storms it counted are those closed by its second; the replay of the
     // suffix does not journal the supervised events a second time.
    Repairer loop;
    Incarnation recovered = make(crash_copy, &loop.supervisor);
    EXPECT_TRUE(recovered.service->recovery().checkpoint_loaded);
    EXPECT_EQ(recovered.service->recovery().checkpoint_counter, 1u);
    EXPECT_GT(recovered.service->recovery().frames_valid, 0u);
    recovered.checkpointed.storms =
        StormsClosedBy(reference.events.storms, checkpointed_at);
    FeedFleet(&recovered, specs_with(nullptr), logs, copied_at, kT1);
    recovered.Stop();
    EXPECT_EQ(recovered.Result().Fingerprint(),
              reference.Result(recovered.checkpointed).Fingerprint());
    EXPECT_EQ(JournaledAudit(crash_copy, kSupervised), want_audit);
  }
}

TEST(FleetCheckpointTest, RecoveryMergesALaggingInstanceBehindTheClock) {
  // Instance 1 drives the fleet clock to kClock, and a checkpoint lands
  // there while instance 0 still stops at kLag - 1. Instance 0's anomalous
  // seconds from kLag arrive next, each followed by an advance that does
  // not move the clock, and the process then crashes. Recovery replays
  // them from the WAL suffix behind the checkpoint's clock: their trigger
  // is confirmed, handed out and diagnosed, as in the uninterrupted run.
  constexpr int64_t kT0 = 100'000;
  constexpr int64_t kLag = kT0 + 400;
  constexpr int64_t kLagEnd = kLag + 51;
  constexpr int64_t kClock = kT0 + 500;
  const std::vector<fleet::FleetInstanceSpec> specs = {{0, 0}, {1, 1}};
  const std::vector<online::ReplayLog> logs = {
      StepStream(17, kT0, kLagEnd, kLag), StepStream(18, kT0, kClock + 1, -1)};
  fleet::FleetOptions options;
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = 100'000;  // the explicit checkpoint only
  const auto make = [&](const std::string& dir) {
    fleet::FleetOptions with_dir = options;
    with_dir.data_dir = dir;
    auto service = std::make_unique<fleet::FleetService>(specs, with_dir);
    RegisterCatalog(service.get());
    return Begin(std::move(service));
  };
  const auto lead = [&](Incarnation* run) {
    FeedFleet(run, specs, logs, kT0, kLag);
    FeedFleet(run, {specs[1]}, {logs[1]}, kLag, kClock + 1);
  };
  const auto lag = [&](Incarnation* run) {
    FeedFleet(run, {specs[0]}, {logs[0]}, kLag, kLagEnd);
  };

  Incarnation reference = make("");
  lead(&reference);
  lag(&reference);
  reference.Stop();
  ASSERT_EQ(reference.events.confirmed.size(), 1u);
  EXPECT_EQ(reference.events.confirmed[0].instance_id, 0u);
  EXPECT_GE(reference.events.confirmed[0].onset_sec, kLag);
  ASSERT_EQ(reference.outcomes.size(), 1u);

  const std::string dir = MakeTempDir();
  const std::string crash_copy = MakeTempDir();
  {
    Incarnation live = make(dir);
    lead(&live);
    ASSERT_TRUE(live.service->Checkpoint().ok());
    lag(&live);
    std::filesystem::copy(dir, crash_copy,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    live.Stop();
    EXPECT_EQ(live.Result().Fingerprint(), reference.Result().Fingerprint());
  }
  Incarnation recovered = make(crash_copy);
  ASSERT_TRUE(recovered.service->recovery().checkpoint_loaded);
  EXPECT_EQ(recovered.checkpointed.confirmed, 0u) << "checkpointed first";
  ASSERT_EQ(recovered.events.confirmed.size(), 1u)
      << "replayed behind the checkpoint's clock";
  EXPECT_EQ(recovered.events.confirmed[0].instance_id, 0u);
  recovered.Stop();
  EXPECT_EQ(recovered.outcomes.size(), 1u);
  EXPECT_EQ(recovered.Result().Fingerprint(),
            reference.Result(recovered.checkpointed).Fingerprint());
}

TEST(FleetCheckpointTest, RecordsStagedAtACheckpointSurviveACrash) {
  // Two instances stream five templates each; instance 0's template 9
  // floods from kOnset. A checkpoint lands after kCut's records are
  // ingested but before its samples, so both instances hold them staged
  // (instance 0's queued diagnosis will read them), and the data dir is
  // copied as a crash leaves it. Recovery must stage exactly those records
  // again, and the rest of the stream must end as the uninterrupted run
  // does, archives included.
  constexpr int64_t kT0 = 100'000;
  constexpr int64_t kCut = kT0 + 300;
  constexpr int64_t kOnset = kCut - 10;
  constexpr int64_t kT1 = kCut + 120;
  const std::vector<fleet::FleetInstanceSpec> specs = {{0, 0}, {1, 1}};
  const std::vector<online::ReplayLog> logs = {
      StepStream(31, kT0, kT1, kOnset), StepStream(32, kT0, kT1, -1)};
  fleet::FleetOptions options;
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = 100'000;  // the explicit checkpoint only
  const auto make = [&](const std::string& dir) {
    fleet::FleetOptions with_dir = options;
    with_dir.data_dir = dir;
    auto service = std::make_unique<fleet::FleetService>(specs, with_dir);
    RegisterCatalog(service.get());
    return Begin(std::move(service));
  };
  // kCut's samples and the advance, after its records went in.
  const auto close_cut = [&](Incarnation* run) {
    for (size_t i = 0; i < specs.size(); ++i) {
      for (const online::PerfSample& sample : logs[i].samples) {
        if (sample.sec == kCut) {
          run->service->IngestMetrics(specs[i].instance_id, sample);
        }
      }
    }
    run->Take(run->service->AdvanceTo(kCut, &run->events));
    FeedFleet(run, specs, logs, kCut + 1, kT1);
    run->Stop();
  };

  Incarnation reference = make("");
  FeedFleet(&reference, specs, logs, kT0, kT1);
  reference.Stop();
  ASSERT_EQ(reference.outcomes.size(), 1u);
  ASSERT_TRUE(reference.outcomes[0].outcome.ok);

  const std::string dir = MakeTempDir();
  const std::string crash_copy = MakeTempDir();
  online::IngestStats at_checkpoint;
  {
    Incarnation live = make(dir);
    FeedFleet(&live, specs, logs, kT0, kCut);
    for (size_t i = 0; i < specs.size(); ++i) {
      std::set<uint64_t> templates;
      for (const QueryLogRecord& record : logs[i].records) {
        if (record.arrival_ms / 1000 != kCut) continue;
        ASSERT_TRUE(live.service->IngestRecord(specs[i].instance_id, record));
        templates.insert(record.sql_id);
      }
      ASSERT_GE(templates.size(), 3u) << "instance " << i;
    }
    const fleet::FleetStats stats = live.service->stats();
    ASSERT_EQ(stats.pool.enqueued, 1u) << "the diagnosis must be queued";
    ASSERT_EQ(stats.pool.completed, 0u);
    at_checkpoint = stats.ingest;
    ASSERT_GT(at_checkpoint.records_staged, 0u);
    ASSERT_TRUE(live.service->Checkpoint().ok());
    std::filesystem::copy(dir, crash_copy,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    close_cut(&live);
    EXPECT_EQ(live.Result().Fingerprint(), reference.Result().Fingerprint());
  }

  Incarnation recovered = make(crash_copy);
  ASSERT_TRUE(recovered.service->recovery().checkpoint_loaded);
  const online::IngestStats cut = recovered.service->stats().ingest;
  EXPECT_EQ(cut.records_staged, at_checkpoint.records_staged);
  EXPECT_EQ(cut.records_enqueued,
            cut.records_folded + cut.records_dropped_late +
                cut.records_dropped_future + cut.records_dropped_backpressure +
                cut.records_staged);
  EXPECT_EQ(cut.records_enqueued, at_checkpoint.records_enqueued);
  close_cut(&recovered);
  EXPECT_EQ(recovered.Result().Fingerprint(),
            reference.Result(recovered.checkpointed).Fingerprint());
  for (const fleet::FleetInstanceSpec& spec : specs) {
    EXPECT_TRUE(SameRecords(recovered.service->archive(spec.instance_id),
                            reference.service->archive(spec.instance_id)))
        << "instance " << spec.instance_id;
  }
}

TEST(FleetCheckpointTest, RecoveryReplaysOnlyTheSuffix) {
  // With a checkpoint every 60 s, a crash replays through the advance at
  // most the frames journaled since the newest checkpoint — one record
  // batch and one sample per second, under 60 seconds — however long the
  // history. Every retained frame before them rebuilds the archive.
  constexpr int64_t kT0 = 100'000;
  const online::ReplayLog log = StepStream(3, kT0, kT0 + 1200, -1);
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 60;
  Incarnation live = Open(options);
  std::vector<size_t> replayed;
  for (int64_t streamed : {600, 1200}) {
    Feed(&live, log, kT0 + streamed - 600, kT0 + streamed);
    const std::string copy = MakeTempDir();
    std::filesystem::copy(dir, copy,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    // A full replay would have had to scan the whole history.
    WalScanStats full;
    ASSERT_TRUE(ScanWal(PosixEnv(), InstanceWalDir(copy), WalOptions(),
                        WalPosition{},
                        [](const WalFrame&, const WalPosition&) {}, &full)
                    .ok());
    EXPECT_GE(full.samples, static_cast<size_t>(streamed));
    fleet::FleetOptions reopen = options;
    reopen.data_dir = copy;
    Incarnation recovered = Open(reopen);
    const fleet::FleetRecoveryStats& recovery = recovered.service->recovery();
    ASSERT_TRUE(recovery.checkpoint_loaded) << streamed;
    EXPECT_GT(recovery.frames_replayed, 0u);
    EXPECT_LE(recovery.frames_replayed, 2u * 60) << streamed;
    replayed.push_back(recovery.frames_replayed);

    // The rebuild covers the rest of the retained history: every frame of
    // the journal is either rebuilt or replayed, and the archive is whole.
    EXPECT_EQ(recovery.frames_rebuilt + recovery.frames_replayed,
              full.frames_valid);
    EXPECT_GE(recovery.frames_rebuilt, 2u * (streamed - 60)) << streamed;
    EXPECT_TRUE(SameRecords(recovered.service->archive(kInstance),
                            live.service->archive(kInstance)));
    recovered.Stop();
  }
  EXPECT_EQ(replayed[0], replayed[1]) << "recovery cost grew with history";
  live.Stop();
}

/// The body bytes of the newest checkpoint in `dir` (0 when there is none).
uint64_t NewestCheckpointBodyBytes(const std::string& dir) {
  auto names = PosixEnv()->ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::string newest;
  for (const std::string& name : *names) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0 &&
        name > newest) {
      newest = name;
    }
  }
  if (newest.empty()) return 0;
  std::string bytes;
  EXPECT_TRUE(PosixEnv()->ReadFile(dir + "/" + newest, &bytes).ok());
  return bytes.size() - 16;  // magic, version and CRC frame the body
}

TEST(FleetCheckpointTest, CheckpointBodyDoesNotGrowWithHistory) {
  // A checkpoint holds only what the WAL cannot rebuild: three times the
  // history leaves its body the same size.
  constexpr int64_t kT0 = 100'000;
  const online::ReplayLog log = StepStream(5, kT0, kT0 + 1800, -1);
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 100'000;  // explicit checkpoints only
  options.wal.fsync = FsyncPolicy::kNever;
  Incarnation live = Open(options);
  std::vector<uint64_t> body_bytes;
  for (int64_t streamed : {600, 1800}) {
    Feed(&live, log, body_bytes.empty() ? kT0 : kT0 + 600, kT0 + streamed);
    ASSERT_TRUE(live.service->Checkpoint().ok());
    body_bytes.push_back(NewestCheckpointBodyBytes(dir));
  }
  ASSERT_GT(body_bytes[0], 0u);
  EXPECT_LE(body_bytes[1], body_bytes[0] + body_bytes[0] / 100)
      << body_bytes[0] << " -> " << body_bytes[1];
  EXPECT_GE(body_bytes[1] + body_bytes[0] / 100, body_bytes[0]);
  EXPECT_EQ(live.service->archive(kInstance)->size(), log.records.size());
  live.Stop();
}

TEST(DurableFleetTest, FarFutureRecordIsRefusedAndCostsNoRecovery) {
  // 600 s at 5 records/s. At second 100 a record dated 7,200 s ahead is
  // offered: the WAL scan would reject the frame after it (dated more than
  // time_grace_sec before it) and abandon the rest of its segment at every
  // later recovery, so ingest refuses it and counts it. One dated 3,000 s
  // ahead is within the grace: accepted, and nothing is lost.
  constexpr int64_t kT0 = 100'000;
  online::ReplayLog log;
  for (int64_t sec = kT0; sec < kT0 + 600; ++sec) {
    log.samples.push_back(Sample(sec, 4.0));
    for (int64_t i = 0; i < 5; ++i) {
      log.records.push_back(Rec(sec * 1000 + i * 200, 1 + i % 4));
    }
  }
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 0;
  options.wal.fsync = FsyncPolicy::kNever;
  {
    Incarnation run = Open(options);
    Feed(&run, log, kT0, kT0 + 100);
    EXPECT_FALSE(
        run.service->IngestRecord(kInstance, Rec((kT0 + 99 + 7200) * 1000, 2)));
    EXPECT_TRUE(
        run.service->IngestRecord(kInstance, Rec((kT0 + 99 + 3000) * 1000, 3)));
    Feed(&run, log, kT0 + 100, kT0 + 600);
    const fleet::FleetStats stats = run.service->stats();
    EXPECT_EQ(stats.ingest.records_dropped_future, 1u);
    EXPECT_EQ(stats.ingest.records_enqueued,
              stats.ingest.records_folded + stats.ingest.records_dropped_late +
                  stats.ingest.records_dropped_future +
                  stats.ingest.records_dropped_backpressure +
                  stats.ingest.records_staged);
    run.Stop();
  }
  Incarnation resumed = Open(options);
  const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
  EXPECT_EQ(recovery.records, log.records.size() + 1);
  EXPECT_EQ(recovery.samples, log.samples.size());
  EXPECT_EQ(recovery.frames_time_rejected, 0u);
  EXPECT_EQ(recovery.stopped_early, 0u);
  resumed.Stop();

  // An in-memory fleet accepts the same stream; an instance without a
  // sample yet is measured from the fleet clock.
  fleet::FleetService memory({{0, 0}, {1, 0}}, fleet::FleetOptions{});
  memory.Start();
  EXPECT_TRUE(memory.IngestMetrics(0, Sample(kT0, 4.0)));
  memory.AdvanceTo(kT0);
  EXPECT_FALSE(memory.IngestRecord(0, Rec((kT0 + 7200) * 1000, 2)));
  EXPECT_FALSE(memory.IngestRecord(1, Rec((kT0 + 7200) * 1000, 2)));
  EXPECT_TRUE(memory.IngestRecord(1, Rec((kT0 + 3000) * 1000, 2)));
  EXPECT_EQ(memory.stats().ingest.records_dropped_future, 2u);
  memory.Stop();
}

TEST(DurableFleetTest, SecondsTheWalCannotJournalAreRefused) {
  // A sample second or record arrival beyond kMaxEventSec is refused and
  // counted in every fleet, so no later retention sweep, window floor or
  // lookback multiplies it into milliseconds (signed overflow under UBSan
  // before the bound existed).
  fleet::FleetService fleet({{0, 0}}, fleet::FleetOptions{});
  fleet.Start();
  EXPECT_TRUE(fleet.IngestMetrics(0, Sample(100'000, 4.0)));
  EXPECT_FALSE(fleet.IngestMetrics(0, Sample(int64_t{1} << 55, 4.0)));
  EXPECT_FALSE(fleet.IngestMetrics(0, Sample(-(int64_t{1} << 55), 4.0)));
  EXPECT_FALSE(fleet.IngestMetrics(0, Sample(kMaxEventSec + 1, 4.0)));
  EXPECT_FALSE(fleet.IngestRecord(0, Rec(int64_t{1} << 62, 1)));
  for (int64_t sec = 100'001; sec <= 100'080; ++sec) {
    ASSERT_TRUE(fleet.IngestMetrics(0, Sample(sec, 4.0)));
    fleet.AdvanceTo(sec);  // a retention sweep runs at 100'020 and 100'080
  }
  const fleet::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.ingest.metric_samples_dropped, 3u);
  EXPECT_EQ(stats.ingest.records_dropped_future, 1u);
  EXPECT_EQ(stats.retention_sweeps, 2u);
  fleet.Stop();

  // At the edge itself the sample is taken, and the arithmetic around it
  // holds.
  fleet::FleetService edge({{0, 0}}, fleet::FleetOptions{});
  edge.Start();
  EXPECT_TRUE(edge.IngestMetrics(0, Sample(kMaxEventSec - 120, 4.0)));
  edge.AdvanceTo(kMaxEventSec - 120);
  edge.Stop();
}

TEST(FleetCheckpointTest, SegmentDeletionFollowsTheFirstNeededSegment) {
  // Small segments, a checkpoint every 10 minutes and a history that
  // crosses the 3-day retention horizon, so segments really are deleted.
  // A burst of records at the start, a sparse stretch (one sample every
  // 5 minutes) across the horizon, then a dense tail with an incident.
  constexpr int64_t kT0 = 1'000'000;
  constexpr int64_t kDay = 24 * 3600;
  constexpr int64_t kDense = kT0 + 3 * kDay + 900;
  constexpr int64_t kEnd = kDense + 900;
  online::ReplayLog log;
  const online::ReplayLog head = StepStream(7, kT0, kT0 + 600, -1);
  const online::ReplayLog tail = StepStream(8, kDense, kEnd, kDense + 600);
  log.samples = head.samples;
  log.records = head.records;
  for (int64_t sec = kT0 + 600; sec < kDense; sec += 300) {
    log.samples.push_back(Sample(sec, 4.0));
    log.records.push_back(Rec(sec * 1000 + 5, 1));
  }
  log.samples.insert(log.samples.end(), tail.samples.begin(),
                     tail.samples.end());
  log.records.insert(log.records.end(), tail.records.begin(),
                     tail.records.end());

  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 600;
  options.wal.segment_bytes = 16 << 10;
  options.wal.fsync = FsyncPolicy::kNever;
  const std::string wal_dir = InstanceWalDir(dir);

  /// Sequences of the WAL segments on disk.
  const auto segments_on_disk = [&](const std::string& at) {
    std::vector<uint64_t> seqs;
    auto names = PosixEnv()->ListDir(at);
    EXPECT_TRUE(names.ok());
    for (const std::string& name : *names) {
      if (name.compare(0, 4, "wal-") == 0) {
        seqs.push_back(std::stoull(name.substr(4, 20)));
      }
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  /// The oldest retained checkpoint's first-needed segment.
  const auto oldest_first_needed = [&]() {
    const std::vector<std::string> files = CheckpointFiles(dir);
    EXPECT_FALSE(files.empty());
    std::string bytes;
    EXPECT_TRUE(PosixEnv()->ReadFile(dir + "/" + files.front(), &bytes).ok());
    auto state = fleet::DecodeFleetState(
        std::string_view(bytes).substr(12, bytes.size() - 16));
    EXPECT_TRUE(state.ok());
    return state.ok() ? state->instances[0].first_needed_seq : 0;
  };

  Incarnation live = Open(options);
  std::string crash_copy;
  std::vector<QueryLogRecord> archive_at_copy;
  std::vector<std::string> checkpoints = CheckpointFiles(dir);
  size_t sample_index = 0;
  for (const online::PerfSample& sample : log.samples) {
    Feed(&live, log, sample.sec, sample.sec + 1);
    ++sample_index;
    if (CheckpointFiles(dir) == checkpoints) continue;
    checkpoints = CheckpointFiles(dir);
    // No segment from the oldest retained checkpoint's first-needed one
    // on is ever deleted.
    const uint64_t first_needed = oldest_first_needed();
    const std::vector<uint64_t> seqs = segments_on_disk(wal_dir);
    ASSERT_FALSE(seqs.empty());
    for (uint64_t seq = first_needed; seq <= seqs.back(); ++seq) {
      EXPECT_TRUE(std::binary_search(seqs.begin(), seqs.end(), seq))
          << "segment " << seq << " deleted, first needed " << first_needed;
    }
    if (crash_copy.empty() && sample.sec >= kDense + 300) {
      crash_copy = MakeTempDir();
      std::filesystem::copy(
          dir, crash_copy,
          std::filesystem::copy_options::recursive |
              std::filesystem::copy_options::overwrite_existing);
      archive_at_copy = live.service->archive(kInstance)->SnapshotRange(
          std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max());
    }
  }
  live.Stop();
  ASSERT_FALSE(crash_copy.empty());
  EXPECT_GT(live.service->stats().records_retired, 0u);
  EXPECT_GT(segments_on_disk(wal_dir).front(), 1u) << "nothing was deleted";
  ASSERT_FALSE(live.outcomes.empty()) << "the tail's incident must trigger";

  fleet::FleetOptions reopen = options;
  reopen.data_dir = crash_copy;
  Incarnation recovered = Open(reopen);
  const fleet::FleetRecoveryStats& recovery = recovered.service->recovery();
  ASSERT_TRUE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.seq_gaps, 0u);
  EXPECT_GT(recovery.frames_rebuilt, 0u);
  // The recovered archive is the live one at the copy, record for record:
  // nothing retired comes back, nothing retained is lost.
  const std::vector<QueryLogRecord> rebuilt =
      recovered.service->archive(kInstance)->SnapshotRange(
          std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max());
  ASSERT_EQ(rebuilt.size(), archive_at_copy.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    ASSERT_EQ(rebuilt[i].arrival_ms, archive_at_copy[i].arrival_ms) << i;
    ASSERT_EQ(rebuilt[i].sql_id, archive_at_copy[i].sql_id) << i;
  }
  EXPECT_GE(rebuilt.front().arrival_ms, kT0 * 1000 + 600 * 1000)
      << "the head burst was retired";
  Feed(&recovered, log, kDense + 301, kEnd);
  recovered.Stop();
  EXPECT_EQ(recovered.Result().InstanceFingerprint(kInstance),
            live.Result(recovered.checkpointed).InstanceFingerprint(kInstance));
}

TEST(DurableFleetTest, RecordDatedDaysBeforeTheFirstSampleCostsNoRecovery) {
  // Before an instance's first sample no late bound applies, so a record
  // dated 5 days back is accepted and journaled with the first second's
  // records. The sample frame after it lies more than
  // max_segment_span_sec past that record: the writer starts a new
  // segment there, so no recovery rejects the rest of the journal.
  constexpr int64_t kT0 = 1'000'000;
  const std::string dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(dir);
  options.checkpoint_every_sec = 0;
  options.wal.fsync = FsyncPolicy::kNever;
  online::ReplayLog log;
  for (int64_t sec = kT0; sec < kT0 + 600; ++sec) {
    log.samples.push_back(Sample(sec, 4.0));
    for (int64_t i = 0; i < 5; ++i) {
      log.records.push_back(Rec(sec * 1000 + i * 200, 1 + i % 4));
    }
  }
  std::vector<QueryLogRecord> live_archive;
  {
    Incarnation run = Open(options);
    ASSERT_TRUE(
        run.service->IngestRecord(kInstance, Rec((kT0 - 5 * 86'400) * 1000, 2)));
    Feed(&run, log, kT0, kT0 + 600);
    EXPECT_EQ(run.service->stats().ingest.records_enqueued, 3'001u);
    run.Stop();
    live_archive = run.service->archive(kInstance)->SnapshotRange(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max());
  }
  Incarnation resumed = Open(options);
  const fleet::FleetRecoveryStats& recovery = resumed.service->recovery();
  EXPECT_EQ(recovery.records, 3'001u);
  EXPECT_EQ(recovery.samples, 600u);
  EXPECT_EQ(recovery.frames_time_rejected, 0u);
  EXPECT_EQ(recovery.stopped_early, 0u);
  const std::vector<QueryLogRecord> recovered =
      resumed.service->archive(kInstance)->SnapshotRange(
          std::numeric_limits<int64_t>::min(),
          std::numeric_limits<int64_t>::max());
  ASSERT_GE(live_archive.size(), 3'000u);
  ASSERT_EQ(recovered.size(), live_archive.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i].arrival_ms, live_archive[i].arrival_ms) << i;
    ASSERT_EQ(recovered[i].sql_id, live_archive[i].sql_id) << i;
  }
  resumed.Stop();
}

/// FleetStats as comparable text (every count a recovery determines).
std::string StatsDigest(const fleet::FleetStats& stats) {
  const online::IngestStats& in = stats.ingest;
  std::string out;
  for (uint64_t value :
       {uint64_t{stats.instances}, uint64_t{in.records_enqueued},
        uint64_t{in.records_folded}, uint64_t{in.records_dropped_backpressure},
        uint64_t{in.records_dropped_late}, uint64_t{in.records_dropped_future},
        uint64_t{in.records_staged}, uint64_t{in.metric_samples},
        uint64_t{in.metric_samples_dropped}, uint64_t{stats.samples_observed},
        uint64_t{stats.triggers_confirmed}, uint64_t{stats.triggers_accepted},
        uint64_t{stats.triggers_suppressed}, uint64_t{stats.diagnoses_ok},
        uint64_t{stats.diagnoses_failed}, uint64_t{stats.storms_detected},
        uint64_t{stats.storm_deferred}, uint64_t{stats.neighbor_verdicts},
        static_cast<uint64_t>(stats.seconds_processed),
        uint64_t{stats.repairs_applied}, uint64_t{stats.repairs_rejected},
        uint64_t{stats.retention_sweeps}, uint64_t{stats.records_retired},
        uint64_t{stats.pending_journal_records}, stats.wal.bytes_written,
        stats.wal.frames_appended, uint64_t{stats.pool.enqueued},
        uint64_t{stats.pool.completed}, uint64_t{stats.pool.max_queue_depth}}) {
    out += std::to_string(value);
    out += ',';
  }
  return out;
}

/// The counts of a FleetRecoveryStats as comparable text (not its times).
std::string RecoveryCounts(const fleet::FleetRecoveryStats& r) {
  std::string out = r.checkpoint_error;
  for (uint64_t value :
       {uint64_t{r.attempted}, uint64_t{r.checkpoint_loaded},
        r.checkpoint_counter, uint64_t{r.checkpoints_corrupt_skipped},
        uint64_t{r.checkpoints_mismatched_skipped},
        uint64_t{r.instances_with_wal}, uint64_t{r.frames_valid},
        uint64_t{r.frames_rebuilt}, uint64_t{r.frames_replayed},
        uint64_t{r.frames_corrupt}, uint64_t{r.frames_malformed},
        uint64_t{r.frames_time_rejected}, uint64_t{r.segments_duplicate_seq},
        uint64_t{r.segments_invalid_header}, uint64_t{r.seq_gaps},
        uint64_t{r.stopped_early}, uint64_t{r.records}, uint64_t{r.samples},
        uint64_t{r.templates}, r.torn_tail_bytes_truncated}) {
    out += ',';
    out += std::to_string(value);
  }
  return out;
}

/// Seven instances, two of which step into an incident, journaled with a
/// checkpoint every 300 s and small segments, then left as a crash would
/// (no Stop(), so the WAL holds a suffix above the newest checkpoint).
struct CrashedFleet {
  std::vector<fleet::FleetInstanceSpec> specs;
  std::string dir;
};

CrashedFleet JournalCrashedFleet() {
  CrashedFleet crashed;
  std::vector<online::ReplayLog> logs;
  constexpr int64_t kT0 = 100'000;
  for (uint32_t id = 0; id < 7; ++id) {
    crashed.specs.push_back({id, id / 3});
    logs.push_back(StepStream(id + 1, kT0, kT0 + 1000,
                              id % 3 == 1 ? kT0 + 700 + 40 * id : -1));
  }
  const std::string live_dir = MakeTempDir();
  fleet::FleetOptions options = DurableOpts(live_dir);
  options.wal.segment_bytes = 64 << 10;
  options.wal.fsync = FsyncPolicy::kNever;
  {
    auto service =
        std::make_unique<fleet::FleetService>(crashed.specs, options);
    RegisterCatalog(service.get());
    Incarnation run = Begin(std::move(service));
    FeedFleet(&run, crashed.specs, logs, kT0, kT0 + 1000);
    EXPECT_FALSE(run.outcomes.empty());
    // The copy is taken while the fleet runs: its destructor would drain
    // and checkpoint.
    crashed.dir = MakeTempDir();
    std::filesystem::copy(
        live_dir, crashed.dir,
        std::filesystem::copy_options::recursive |
            std::filesystem::copy_options::overwrite_existing);
  }
  std::filesystem::remove_all(live_dir);
  return crashed;
}

/// Recovers a copy of `source` at `advance_workers` and digests what it
/// recovered: the replay's outcomes and events, every archive, the stats
/// and the recovery counts.
std::string RecoveredDigest(const CrashedFleet& crashed, bool keep_checkpoints,
                            int advance_workers, Env* env = nullptr) {
  const std::string dir = MakeTempDir();
  std::filesystem::copy(crashed.dir, dir,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  if (!keep_checkpoints) DeleteFilesEndingIn(dir, ".ckpt");
  fleet::FleetOptions options = DurableOpts(dir);
  options.wal.segment_bytes = 64 << 10;
  options.wal.fsync = FsyncPolicy::kNever;
  options.advance_workers = advance_workers;
  options.env = env;
  auto service = std::make_unique<fleet::FleetService>(crashed.specs, options);
  RegisterCatalog(service.get());
  Incarnation run = Begin(std::move(service));
  EXPECT_EQ(run.service->recovery().checkpoint_loaded, keep_checkpoints);
  std::string digest = run.Result().Fingerprint();
  for (const fleet::FleetInstanceSpec& spec : crashed.specs) {
    digest += run.Result().InstanceFingerprint(spec.instance_id);
    for (const QueryLogRecord& record :
         run.service->archive(spec.instance_id)
             ->SnapshotRange(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max())) {
      digest += std::to_string(record.arrival_ms) + ':' +
                std::to_string(record.sql_id) + ':' +
                std::to_string(record.examined_rows) + ';';
    }
  }
  digest += StatsDigest(run.service->stats());
  digest += RecoveryCounts(run.service->recovery());
  run.Stop();
  std::filesystem::remove_all(dir);
  return digest;
}

TEST(DurableFleetTest, RecoveryIsIdenticalAtAnyAdvanceWorkerCount) {
  // Recovery parses and rebuilds each instance, and ingests its replayed
  // batches, on the advance workers: copies of one crashed data dir,
  // recovered WAL-only and from the checkpoint, must come back the same
  // at 1, 2 and 4 workers.
  const CrashedFleet crashed = JournalCrashedFleet();
  for (bool from_checkpoint : {false, true}) {
    const std::string one = RecoveredDigest(crashed, from_checkpoint, 1);
    EXPECT_EQ(RecoveredDigest(crashed, from_checkpoint, 2), one)
        << "from_checkpoint " << from_checkpoint;
    EXPECT_EQ(RecoveredDigest(crashed, from_checkpoint, 4), one)
        << "from_checkpoint " << from_checkpoint;
  }
}

TEST(StorageFaultTest, ReadFaultsFallTheSameAtAnyAdvanceWorkerCount) {
  // The journals load on the recovering thread in instance order, so a
  // seeded injector flips the same bits and shortens the same reads at
  // any worker count, and the recovery counts what they destroyed alike.
  const CrashedFleet crashed = JournalCrashedFleet();
  faults::StorageFaultPlan plan;
  plan.seed = 3;
  plan.severity = 1.0;
  plan.bit_flip_rate = 0.3;
  plan.short_read_rate = 0.2;
  plan.torn_write_rate = 0;
  plan.fsync_failure_rate = 0;
  for (bool from_checkpoint : {false, true}) {
    faults::StorageFaultInjector serial_env(PosixEnv(), plan);
    faults::StorageFaultInjector parallel_env(PosixEnv(), plan);
    const std::string serial =
        RecoveredDigest(crashed, from_checkpoint, 1, &serial_env);
    const std::string parallel =
        RecoveredDigest(crashed, from_checkpoint, 4, &parallel_env);
    EXPECT_GT(serial_env.stats().reads_bit_flipped +
                  serial_env.stats().reads_shortened,
              0u);
    EXPECT_EQ(parallel_env.stats().ToString(), serial_env.stats().ToString());
    EXPECT_EQ(parallel, serial) << "from_checkpoint " << from_checkpoint;
  }
}

}  // namespace
}  // namespace pinsql::store
