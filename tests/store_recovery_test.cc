#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "detect/forecast.h"
#include "faults/storage_faults.h"
#include "online/replay.h"
#include "store/checkpoint.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "store/durable_service.h"
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

void RegisterCatalog(DurableOnlineService* service) {
  const LogStore catalog = SyntheticCatalog();
  std::vector<uint64_t> ids;
  for (const auto& [id, entry] : catalog.catalog()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    service->RegisterTemplate(id, catalog.catalog().at(id));
  }
}

/// Feeds every second in [from_sec, to_sec) with the replay discipline:
/// the second's records, then its sample.
void Feed(DurableOnlineService* service, const online::ReplayLog& log,
          int64_t from_sec, int64_t to_sec) {
  for (const auto& sample : log.samples) {
    if (sample.sec < from_sec || sample.sec >= to_sec) continue;
    for (const auto& record : log.records) {
      if (record.arrival_ms / 1000 == sample.sec) {
        service->IngestRecord(record);
      }
    }
    service->IngestMetrics(sample);
  }
}

DurableServiceOptions DurableOpts() {
  DurableServiceOptions options;
  // Byte-comparable reports, matching ReplayOptions::zero_timings.
  options.service.scheduler.zero_timings = true;
  return options;
}

std::string ReferenceFingerprint(const online::ReplayLog& log) {
  online::ReplayOptions options;  // zero_timings defaults on
  return RunReplay(log, SyntheticCatalog(), options).Fingerprint();
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
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [&](const WalFrame& f) { frames.push_back(f); },
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
  EXPECT_EQ(stats.end, end);
  EXPECT_FALSE(stats.seq_gap);

  // Resuming from the end position replays nothing.
  WalScanStats tail_stats;
  size_t tail_frames = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, end,
                      [&](const WalFrame&) { ++tail_frames; }, &tail_stats)
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
                      [&](const WalFrame& f) {
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
                      [&](const WalFrame&) { ++delivered; }, &stats)
                  .ok());
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(stats.frames_corrupt, 1u);
  EXPECT_EQ(stats.torn_tail_bytes_truncated, 3u);

  // The truncation is physical: a second scan is clean.
  WalScanStats again;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, WalPosition{},
                      [](const WalFrame&) {}, &again)
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
                      [](const WalFrame&) {}, &clean)
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
                      [&](const WalFrame& f) { secs.push_back(f.sample.sec); },
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
                      [](const WalFrame&) {}, &stats)
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
                      [](const WalFrame&) {}, &clean)
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
                      [&](const WalFrame&) { ++delivered; }, &stats)
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
                      [&](const WalFrame& f) {
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
                      [&](const WalFrame&) { ++delivered; }, &stats)
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
                      [](const WalFrame&) {}, &stats2)
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
                      [](const WalFrame&) {}, &first)
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
                      [&](const WalFrame& f) { secs.push_back(f.sample.sec); },
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
  // one past that segment's last frame. Retention must keep the LSN's own
  // segment, or a recovery from this checkpoint finds its start below the
  // oldest segment on disk and falsely reports a sequence gap.
  const SealedSegment& boundary = sealed[1];
  const WalPosition lsn{boundary.seq, boundary.size};
  const size_t deleted = (*writer)->DeleteSealedSegments(
      std::numeric_limits<int64_t>::max(), lsn, PosixEnv());
  EXPECT_EQ(deleted, 1u);  // only segments strictly below the LSN's
  EXPECT_TRUE(PosixEnv()->FileExists(boundary.path));

  WalScanStats stats;
  size_t delivered = 0;
  ASSERT_TRUE(ScanWal(PosixEnv(), dir, options, lsn,
                      [&](const WalFrame&) { ++delivered; }, &stats)
                  .ok());
  EXPECT_FALSE(stats.seq_gap);
  EXPECT_FALSE(stats.stopped_early);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 30u);
}

// --- Checkpoints -----------------------------------------------------------

CheckpointData SmallCheckpoint() {
  CheckpointData data;
  data.lsn = WalPosition{3, 4096};
  data.service.processed_any = true;
  data.service.last_processed_sec = 1234;
  data.service.seconds_processed = 42;
  data.service.archive_records = {Rec(1'200'000, 1), Rec(1'201'000, 2)};
  repair::RepairEvent event;
  event.time_ms = 1'234'000.0;
  event.kind = repair::RepairEventKind::kApplied;
  event.action = repair::ActionType::kThrottle;
  event.sql_id = 9;
  data.audit.push_back(event);
  return data;
}

TEST(CheckpointTest, BodyRoundTrip) {
  const CheckpointData data = SmallCheckpoint();
  auto decoded = DecodeCheckpointBody(EncodeCheckpointBody(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, data.lsn);
  EXPECT_EQ(decoded->service.last_processed_sec, 1234);
  ASSERT_EQ(decoded->service.archive_records.size(), 2u);
  EXPECT_EQ(decoded->service.archive_records[1].sql_id, 2u);
  ASSERT_EQ(decoded->audit.size(), 1u);
  EXPECT_EQ(decoded->audit[0].kind, repair::RepairEventKind::kApplied);
}

TEST(CheckpointTest, NewestValidWinsAndCorruptNewestFallsBack) {
  const std::string dir = MakeTempDir();
  Env* env = PosixEnv();
  EXPECT_EQ(LoadLatestCheckpoint(env, dir).status().code(),
            StatusCode::kNotFound);

  CheckpointData old_data = SmallCheckpoint();
  old_data.service.last_processed_sec = 1000;
  ASSERT_TRUE(WriteCheckpoint(env, dir, 3, old_data).ok());
  CheckpointData new_data = SmallCheckpoint();
  new_data.service.last_processed_sec = 2000;
  ASSERT_TRUE(WriteCheckpoint(env, dir, 4, new_data).ok());

  auto loaded = LoadLatestCheckpoint(env, dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->counter, 4u);
  EXPECT_EQ(loaded->data.service.last_processed_sec, 2000);
  EXPECT_EQ(loaded->corrupt_skipped, 0u);

  // Flip a byte in the newest file: recovery must fall back to counter 3,
  // counting the skip, and housekeeping must delete the corrupt sibling —
  // not the good fallback.
  const std::string newest = dir + "/" + CheckpointFileName(4);
  std::string bytes;
  ASSERT_TRUE(env->ReadFile(newest, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto fallback = LoadLatestCheckpoint(env, dir);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->counter, 3u);
  EXPECT_EQ(fallback->data.service.last_processed_sec, 1000);
  EXPECT_EQ(fallback->corrupt_skipped, 1u);

  EXPECT_EQ(DeleteOtherCheckpoints(env, dir, 3), 1u);
  EXPECT_FALSE(env->FileExists(newest));
  auto survivor = LoadLatestCheckpoint(env, dir);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->counter, 3u);
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
  CheckpointData old_data = SmallCheckpoint();
  old_data.service.last_processed_sec = 1000;
  ASSERT_TRUE(WriteCheckpoint(env, dir, 3, old_data).ok());
  CheckpointData new_data = SmallCheckpoint();
  new_data.service.last_processed_sec = 2000;
  ASSERT_TRUE(WriteCheckpoint(env, dir, 4, new_data).ok());

  // Version 2 predates the v3 ingestor layout: the otherwise intact newest
  // file fails the version check and recovery falls back, counting it.
  const std::string newest = dir + "/" + CheckpointFileName(4);
  const uint32_t current = RewriteCheckpointVersion(newest, 2);
  EXPECT_EQ(current, 3u);
  auto loaded = LoadLatestCheckpoint(env, dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->counter, 3u);
  EXPECT_EQ(loaded->data.service.last_processed_sec, 1000);
  EXPECT_EQ(loaded->corrupt_skipped, 1u);

  // Only the version differed: restoring it makes the file win again.
  RewriteCheckpointVersion(newest, current);
  auto restored = LoadLatestCheckpoint(env, dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->counter, 4u);
  EXPECT_EQ(restored->corrupt_skipped, 0u);
}

TEST(CheckpointTest, PruneKeepsNewestAndSweepsTempFiles) {
  const std::string dir = MakeTempDir();
  Env* env = PosixEnv();
  for (uint64_t c = 1; c <= 4; ++c) {
    ASSERT_TRUE(WriteCheckpoint(env, dir, c, SmallCheckpoint()).ok());
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

// --- Durable service: graceful restart ------------------------------------

TEST(DurableServiceTest, UninterruptedRunMatchesReplayFingerprint) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  auto service = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(service.ok());
  RegisterCatalog(service->get());
  Feed(service->get(), log, 0, 1'000'000);
  ASSERT_TRUE((*service)->Stop().ok());
  ASSERT_FALSE((*service)->outcomes().empty()) << "the incident must trigger";
  EXPECT_EQ((*service)->Fingerprint(), ReferenceFingerprint(log));
}

TEST(DurableServiceTest, GracefulRestartMidStreamIsByteIdentical) {
  const online::ReplayLog log = SyntheticIncident();
  const int64_t split = log.samples[log.samples.size() / 2].sec + 1;
  const std::string dir = MakeTempDir();
  {
    auto service = DurableOnlineService::Open(DurableOpts(), dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, split);
    ASSERT_TRUE((*service)->Stop().ok());
  }
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE((*resumed)->recovery().checkpoint_loaded);
  Feed(resumed->get(), log, split, 1'000'000);
  ASSERT_TRUE((*resumed)->Stop().ok());
  ASSERT_FALSE((*resumed)->outcomes().empty());
  EXPECT_EQ((*resumed)->Fingerprint(), ReferenceFingerprint(log));

  // Catalog survived: templates were journaled, not just kept in memory.
  EXPECT_NE((*resumed)->archive()->FindTemplate(9), nullptr);
}

// --- Durable service: recovery edge cases (satellite 3) --------------------

TEST(DurableServiceTest, EmptyDataDirStartsClean) {
  const std::string dir = MakeTempDir();
  auto service = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->recovery().checkpoint_loaded);
  EXPECT_EQ((*service)->recovery().wal.frames_valid, 0u);
  EXPECT_FALSE((*service)->recovery().wal.seq_gap);
  Feed(service->get(), SyntheticIncident(), 0, 100'010);
  ASSERT_TRUE((*service)->Stop().ok());
}

TEST(DurableServiceTest, CheckpointOnlyRecoveryRestoresState) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    auto service = DurableOnlineService::Open(DurableOpts(), dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, 1'000'000);
    ASSERT_TRUE((*service)->Stop().ok());
  }
  // Remove every WAL segment: Stop()'s final checkpoint alone must carry
  // the full state.
  auto names = PosixEnv()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0) {
      ASSERT_TRUE(PosixEnv()->DeleteFile(dir + "/" + name).ok());
    }
  }
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE((*resumed)->recovery().checkpoint_loaded);
  EXPECT_EQ((*resumed)->recovery().wal.frames_valid, 0u);
  ASSERT_TRUE((*resumed)->Stop().ok());
  EXPECT_EQ((*resumed)->Fingerprint(), ReferenceFingerprint(log));
}

TEST(DurableServiceTest, WalOnlyRecoveryReplaysEverything) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    DurableServiceOptions options = DurableOpts();
    options.checkpoint_every_sec = 0;  // no periodic checkpoints
    auto service = DurableOnlineService::Open(options, dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, 1'000'000);
    ASSERT_TRUE((*service)->Stop().ok());
  }
  // Remove every checkpoint: recovery must rebuild purely from the WAL.
  auto names = PosixEnv()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      ASSERT_TRUE(PosixEnv()->DeleteFile(dir + "/" + name).ok());
    }
  }
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE((*resumed)->recovery().checkpoint_loaded);
  EXPECT_GT((*resumed)->recovery().wal.samples, 0u);
  EXPECT_FALSE((*resumed)->recovery().wal.seq_gap);
  ASSERT_TRUE((*resumed)->Stop().ok());
  EXPECT_EQ((*resumed)->Fingerprint(), ReferenceFingerprint(log));
}

TEST(DurableServiceTest, OlderFormatCheckpointsFallBackToWalReplay) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    auto service = DurableOnlineService::Open(DurableOpts(), dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, 1'000'000);
    ASSERT_TRUE((*service)->Stop().ok());
  }
  // Every checkpoint claims version 2: none is usable, so recovery must
  // replay the WAL alone into the current format.
  auto names = PosixEnv()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  size_t rewritten = 0;
  for (const std::string& name : *names) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      RewriteCheckpointVersion(dir + "/" + name, 2);
      ++rewritten;
    }
  }
  ASSERT_GT(rewritten, 0u);
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE((*resumed)->recovery().checkpoint_loaded);
  EXPECT_EQ((*resumed)->recovery().checkpoints_corrupt_skipped, rewritten);
  EXPECT_GT((*resumed)->recovery().wal.samples, 0u);
  ASSERT_TRUE((*resumed)->Stop().ok());
  EXPECT_EQ((*resumed)->Fingerprint(), ReferenceFingerprint(log));
}

TEST(DurableServiceTest, DuplicateSegmentSequenceIsCountedOnRecovery) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  {
    auto service = DurableOnlineService::Open(DurableOpts(), dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, 1'000'000);
    ASSERT_TRUE((*service)->Stop().ok());
  }
  std::string seg1;
  ASSERT_TRUE(
      PosixEnv()->ReadFile(dir + "/" + SegmentFileName(1), &seg1).ok());
  {
    std::ofstream dup(dir + "/" + SegmentFileName(77), std::ios::binary);
    dup.write(seg1.data(), static_cast<std::streamsize>(seg1.size()));
  }
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->recovery().wal.segments_duplicate_seq, 1u);
  ASSERT_TRUE((*resumed)->Stop().ok());
  EXPECT_EQ((*resumed)->Fingerprint(), ReferenceFingerprint(log));
}

// --- Storage fault injection (always detected, never silently ingested) ---

TEST(StorageFaultTest, SeverityZeroIsAPassThrough) {
  const online::ReplayLog log = SyntheticIncident();
  const std::string dir = MakeTempDir();
  faults::StorageFaultPlan plan;  // severity 0
  plan.seed = 7;
  faults::StorageFaultInjector env(PosixEnv(), plan);
  {
    auto service = DurableOnlineService::Open(DurableOpts(), dir, &env);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, 1'000'000);
    ASSERT_TRUE((*service)->Stop().ok());
    EXPECT_EQ((*service)->Fingerprint(), ReferenceFingerprint(log));
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
  auto service = DurableOnlineService::Open(DurableOpts(), dir, &env);
  ASSERT_TRUE(service.ok());
  RegisterCatalog(service->get());
  Feed(service->get(), log, 0, 1'000'000);
  (*service)->Stop();
  EXPECT_GT(env.stats().writes_torn + env.stats().fsyncs_failed, 0u)
      << "fault plan did not fire";
  // Write-path faults degrade durability, counted — they never kill the
  // stream. (Injector totals include checkpoint temp files, so the WAL's
  // own counters are a subset.)
  const DurableStats stats = (*service)->stats();
  EXPECT_LE(stats.wal.fsync_failures, env.stats().fsyncs_failed);
  EXPECT_GT(stats.service.seconds_processed, 0);
  // A recovery over what the torn disk retained must succeed, and any
  // data the faults destroyed must be *flagged* — a seq gap is only ever
  // reported alongside the corruption that caused it, never silently.
  auto resumed = DurableOnlineService::Open(DurableOpts(), dir);
  ASSERT_TRUE(resumed.ok());
  const WalScanStats& wal = (*resumed)->recovery().wal;
  if (wal.seq_gap) {
    EXPECT_GT(wal.segments_invalid_header + wal.frames_corrupt +
                  wal.frames_malformed,
              0u);
  }
  ASSERT_TRUE((*resumed)->Stop().ok());
}

TEST(StorageFaultTest, ReadPathBitFlipsAreAlwaysDetected) {
  const online::ReplayLog log = SyntheticIncident();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::string dir = MakeTempDir();
    {
      auto service = DurableOnlineService::Open(DurableOpts(), dir);
      ASSERT_TRUE(service.ok());
      RegisterCatalog(service->get());
      Feed(service->get(), log, 0, 1'000'000);
      ASSERT_TRUE((*service)->Stop().ok());
    }
    faults::StorageFaultPlan plan;
    plan.seed = seed;
    plan.severity = 1.0;
    plan.bit_flip_rate = 1.0;  // every read flips one random bit
    plan.torn_write_rate = 0;
    plan.short_read_rate = 0;
    plan.fsync_failure_rate = 0;
    faults::StorageFaultInjector env(PosixEnv(), plan);
    auto resumed = DurableOnlineService::Open(DurableOpts(), dir, &env);
    ASSERT_TRUE(resumed.ok());
    ASSERT_GT(env.stats().reads_bit_flipped, 0u);
    const RecoveryStats& recovery = (*resumed)->recovery();
    // Every flipped file must have been caught by a CRC or header check —
    // a corrupt checkpoint skipped, a corrupt frame counted, or an invalid
    // segment header. Nothing corrupt is ever silently ingested.
    EXPECT_GT(recovery.checkpoints_corrupt_skipped +
                  recovery.wal.frames_corrupt +
                  recovery.wal.frames_malformed +
                  recovery.wal.frames_time_rejected +
                  recovery.wal.segments_invalid_header,
              0u)
        << "seed " << seed;
    (*resumed)->Stop();
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

  CheckpointData data = SmallCheckpoint();
  data.service.detector = detector.ExportState();
  auto decoded = DecodeCheckpointBody(EncodeCheckpointBody(data));
  ASSERT_TRUE(decoded.ok());

  const auto& want = data.service.detector.ensemble;
  const auto& got = decoded->service.detector.ensemble;
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
  resumed.ImportState(decoded->service.detector);
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

TEST(DurableServiceTest, RestartMidDriftResumesForecastersByteIdentically) {
  // Kill the service mid-ramp — after CUSUM evidence accumulated, before
  // the drift confirms — and require the recovered run to finish the
  // incident exactly like an uninterrupted replay, attributed to the
  // forecaster member. This is the durable-recovery contract for the new
  // detector state (block CUSUM progress included).
  const online::ReplayLog log = DriftIncident();
  // The drift confirms at ~sample 960 with this realization; stop at 900 —
  // CUSUM evidence accumulated, trigger still ahead.
  const int64_t split = log.samples[900].sec + 1;
  DurableServiceOptions options = DurableOpts();
  options.service.detector.forecasters = detect::DefaultEnsembleForecasters();
  const std::string dir = MakeTempDir();
  {
    auto service = DurableOnlineService::Open(options, dir);
    ASSERT_TRUE(service.ok());
    RegisterCatalog(service->get());
    Feed(service->get(), log, 0, split);
    EXPECT_TRUE((*service)->outcomes().empty()) << "must stop pre-trigger";
    ASSERT_TRUE((*service)->Stop().ok());
  }
  auto resumed = DurableOnlineService::Open(options, dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE((*resumed)->recovery().checkpoint_loaded);
  Feed(resumed->get(), log, split, 1'000'000);
  ASSERT_TRUE((*resumed)->Stop().ok());
  ASSERT_FALSE((*resumed)->outcomes().empty()) << "drift must trigger";
  EXPECT_EQ((*resumed)->outcomes()[0].trigger.source, "ewma");

  online::ReplayOptions reference;
  reference.service.detector.forecasters =
      detect::DefaultEnsembleForecasters();
  const std::string want =
      RunReplay(log, SyntheticCatalog(), reference).Fingerprint();
  EXPECT_EQ((*resumed)->Fingerprint(), want);
}

}  // namespace
}  // namespace pinsql::store
