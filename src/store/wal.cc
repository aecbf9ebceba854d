#include "store/wal.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "store/codec.h"
#include "store/crc32c.h"

namespace pinsql::store {

namespace {

constexpr char kSegmentMagic[8] = {'P', 'S', 'Q', 'L', 'W', 'A', 'L', '1'};
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderSize = 24;  // magic(8) + ver(4) + seq(8) + crc(4)
constexpr size_t kFrameHeaderSize = 8;     // len(4) + crc(4)

std::string EncodeSegmentHeader(uint64_t seq) {
  std::string out;
  codec::Writer w(&out);
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  w.U32(kSegmentVersion);
  w.U64(seq);
  w.U32(Crc32c(out.data(), out.size()));
  return out;
}

/// Returns the segment sequence, or nullopt when the header is invalid.
std::optional<uint64_t> DecodeSegmentHeader(std::string_view data) {
  if (data.size() < kSegmentHeaderSize) return std::nullopt;
  if (std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return std::nullopt;
  }
  codec::Reader r(data.substr(sizeof(kSegmentMagic),
                              kSegmentHeaderSize - sizeof(kSegmentMagic)));
  uint32_t version = 0;
  uint64_t seq = 0;
  uint32_t crc = 0;
  if (!r.U32(&version) || !r.U64(&seq) || !r.U32(&crc)) return std::nullopt;
  if (version != kSegmentVersion) return std::nullopt;
  if (crc != Crc32c(data.data(), kSegmentHeaderSize - 4)) return std::nullopt;
  return seq;
}

/// Event-time span of one frame in milliseconds. Used both for the
/// recovery range check and for the sealed-segment retention metadata.
struct EventSpan {
  int64_t lo_ms;
  int64_t hi_ms;
};

enum class SpanStatus {
  kNone,     // untimestamped kind (templates)
  kOk,       // *span holds the frame's event-time range
  kInvalid,  // timestamp cannot be represented in int64 milliseconds
};

/// A double bound strictly inside int64 range (a CRC-valid but corrupt
/// frame can carry any bit pattern; the arithmetic must reject it before
/// UB).
constexpr double kMaxEventMsDouble = 9.0e18;

SpanStatus FrameEventSpan(const WalFrame& frame, EventSpan* span) {
  switch (frame.kind) {
    case FrameKind::kRecordBatch: {
      if (frame.records.empty()) return SpanStatus::kNone;
      int64_t lo = frame.records.front().arrival_ms;
      int64_t hi = lo;
      for (const QueryLogRecord& record : frame.records) {
        lo = std::min(lo, record.arrival_ms);
        hi = std::max(hi, record.arrival_ms);
      }
      *span = EventSpan{lo, hi};
      return SpanStatus::kOk;
    }
    case FrameKind::kSample: {
      const int64_t sec = frame.sample.sec;
      if (sec < -kMaxEventSec || sec > kMaxEventSec) {
        return SpanStatus::kInvalid;
      }
      *span = EventSpan{sec * 1000, sec * 1000};
      return SpanStatus::kOk;
    }
    case FrameKind::kRepairEvent: {
      const double time_ms = frame.event.time_ms;
      // The negated comparison also rejects NaN.
      if (!(time_ms >= -kMaxEventMsDouble && time_ms <= kMaxEventMsDouble)) {
        return SpanStatus::kInvalid;
      }
      const int64_t ms = static_cast<int64_t>(time_ms);
      *span = EventSpan{ms, ms};
      return SpanStatus::kOk;
    }
    case FrameKind::kTemplate:
      return SpanStatus::kNone;
  }
  return SpanStatus::kNone;
}

void EncodeRecord(codec::Writer* w, const QueryLogRecord& record) {
  w->I64(record.arrival_ms);
  w->F64(record.response_ms);
  w->U64(record.sql_id);
  w->I64(record.examined_rows);
}

bool DecodeRecord(codec::Reader* r, QueryLogRecord* record) {
  return r->I64(&record->arrival_ms) && r->F64(&record->response_ms) &&
         r->U64(&record->sql_id) && r->I64(&record->examined_rows);
}

void EncodeSample(codec::Writer* w, const online::PerfSample& sample) {
  w->I64(sample.sec);
  w->F64(sample.active_session);
  w->F64(sample.cpu_usage);
  w->F64(sample.iops_usage);
  w->F64(sample.row_lock_waits);
  w->F64(sample.mdl_waits);
}

bool DecodeSample(codec::Reader* r, online::PerfSample* sample) {
  return r->I64(&sample->sec) && r->F64(&sample->active_session) &&
         r->F64(&sample->cpu_usage) && r->F64(&sample->iops_usage) &&
         r->F64(&sample->row_lock_waits) && r->F64(&sample->mdl_waits);
}

// A repair event's kind and action travel as their stable names, so a
// decode validates them against the enums instead of trusting a raw byte.
void EncodeRepairEvent(codec::Writer* w, const repair::RepairEvent& event) {
  w->F64(event.time_ms);
  w->Str(repair::RepairEventKindName(event.kind));
  w->Str(repair::ActionTypeName(event.action));
  w->U64(event.sql_id);
  w->U64(event.ticket);
  w->I64(event.attempt);
  w->Str(event.detail);
}

bool DecodeRepairEvent(codec::Reader* r, repair::RepairEvent* event) {
  std::string kind_name, action_name;
  int64_t attempt = 0;
  if (!r->F64(&event->time_ms) || !r->Str(&kind_name) ||
      !r->Str(&action_name) || !r->U64(&event->sql_id) ||
      !r->U64(&event->ticket) || !r->I64(&attempt) || !r->Str(&event->detail)) {
    return false;
  }
  event->attempt = static_cast<int>(attempt);
  return repair::RepairEventKindFromName(kind_name, &event->kind) &&
         repair::ActionTypeFromName(action_name, &event->action);
}

}  // namespace

bool SegmentEventClock::Admits(int64_t lo_ms, int64_t hi_ms,
                               const WalOptions& options) const {
  if (!has_t0) return true;
  const int64_t lo_sec = lo_ms / 1000;
  const int64_t hi_sec = hi_ms / 1000;
  return lo_sec >= t0_sec - options.time_grace_sec &&
         hi_sec <= t0_sec + options.max_segment_span_sec &&
         lo_sec >= prev_hi_sec - options.time_grace_sec;
}

void SegmentEventClock::Note(int64_t lo_ms, int64_t hi_ms) {
  if (!has_t0) {
    has_t0 = true;
    t0_sec = lo_ms / 1000;
    prev_hi_sec = hi_ms / 1000;
  } else {
    prev_hi_sec = std::max(prev_hi_sec, hi_ms / 1000);
  }
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryBatch:
      return "every_batch";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

std::string SegmentFileName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

void EncodeTemplate(codec::Writer* w, uint64_t sql_id,
                    const TemplateCatalogEntry& entry) {
  w->U64(sql_id);
  w->Str(entry.template_text);
  w->U8(static_cast<uint8_t>(entry.kind));
  w->U32(static_cast<uint32_t>(entry.tables.size()));
  for (const std::string& table : entry.tables) w->Str(table);
}

bool DecodeTemplate(codec::Reader* r, uint64_t* sql_id,
                    TemplateCatalogEntry* entry) {
  uint8_t kind = 0;
  uint32_t num_tables = 0;
  if (!r->U64(sql_id) || !r->Str(&entry->template_text) || !r->U8(&kind) ||
      kind > static_cast<uint8_t>(sqltpl::StatementKind::kOther) ||
      !r->U32(&num_tables) ||
      // 8 bytes per table at least: reject counts the payload cannot hold
      // before reserving anything.
      static_cast<uint64_t>(num_tables) * 8 > r->remaining()) {
    return false;
  }
  entry->kind = static_cast<sqltpl::StatementKind>(kind);
  entry->tables.resize(num_tables);
  for (std::string& table : entry->tables) {
    if (!r->Str(&table)) return false;
  }
  return true;
}

std::string EncodeFramePayload(const WalFrame& frame) {
  std::string out;
  codec::Writer w(&out);
  w.U8(static_cast<uint8_t>(frame.kind));
  switch (frame.kind) {
    case FrameKind::kRecordBatch:
      w.U32(static_cast<uint32_t>(frame.records.size()));
      for (const QueryLogRecord& record : frame.records) {
        EncodeRecord(&w, record);
      }
      break;
    case FrameKind::kSample:
      EncodeSample(&w, frame.sample);
      break;
    case FrameKind::kTemplate:
      EncodeTemplate(&w, frame.template_id, frame.template_entry);
      break;
    case FrameKind::kRepairEvent:
      EncodeRepairEvent(&w, frame.event);
      break;
  }
  return out;
}

std::string WrapFrame(std::string payload) {
  std::string out;
  codec::Writer w(&out);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32c(payload));
  out += payload;
  return out;
}

StatusOr<WalFrame> DecodeFramePayload(std::string_view payload) {
  codec::Reader r(payload);
  uint8_t kind = 0;
  if (!r.U8(&kind)) return Status::ParseError("empty frame payload");
  WalFrame frame;
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kRecordBatch: {
      frame.kind = FrameKind::kRecordBatch;
      uint32_t n = 0;
      if (!r.U32(&n)) return Status::ParseError("record batch: no count");
      // 32 bytes per record: reject counts the payload cannot hold before
      // reserving anything.
      if (static_cast<uint64_t>(n) * 32 > r.remaining()) {
        return Status::ParseError("record batch: count exceeds payload");
      }
      frame.records.resize(n);
      for (QueryLogRecord& record : frame.records) {
        if (!DecodeRecord(&r, &record)) {
          return Status::ParseError("record batch: truncated record");
        }
      }
      break;
    }
    case FrameKind::kSample:
      frame.kind = FrameKind::kSample;
      if (!DecodeSample(&r, &frame.sample)) {
        return Status::ParseError("sample: truncated");
      }
      break;
    case FrameKind::kTemplate:
      frame.kind = FrameKind::kTemplate;
      if (!DecodeTemplate(&r, &frame.template_id, &frame.template_entry)) {
        return Status::ParseError(
            "template: truncated, unknown statement kind or table count "
            "exceeds payload");
      }
      break;
    case FrameKind::kRepairEvent:
      frame.kind = FrameKind::kRepairEvent;
      if (!DecodeRepairEvent(&r, &frame.event)) {
        return Status::ParseError(
            "repair event: truncated, or unknown kind or action");
      }
      break;
    default:
      return Status::ParseError("unknown frame kind " + std::to_string(kind));
  }
  if (!r.exhausted()) {
    return Status::ParseError("frame payload has trailing bytes");
  }
  return frame;
}

// --------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(Env* env, std::string dir, const WalOptions& options)
    : env_(env), dir_(std::move(dir)), options_(options) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env, std::string dir,
                                                     const WalOptions& options,
                                                     uint64_t first_seq) {
  std::unique_ptr<WalWriter> writer(
      new WalWriter(env, std::move(dir), options));
  // Sequence 0 is the scanner's "no segment" sentinel; real segments start
  // at 1.
  if (first_seq == 0) first_seq = 1;
  if (Status status = writer->OpenSegment(first_seq); !status.ok()) {
    return status;
  }
  return writer;
}

Status WalWriter::OpenSegment(uint64_t seq) {
  const std::string path = dir_ + "/" + SegmentFileName(seq);
  auto file = env_->NewWritableFile(path);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  current_seq_ = seq;
  current_offset_ = 0;
  current_max_event_ms_ = 0;
  current_clock_ = SegmentEventClock{};
  const std::string header = EncodeSegmentHeader(seq);
  if (Status status = file_->Append(header); !status.ok()) return status;
  current_offset_ = header.size();
  stats_.bytes_written += header.size();
  return Status::OK();
}

void WalWriter::SealCurrent() {
  if (file_ == nullptr) return;
  file_->Close();
  SealedSegment sealed;
  sealed.seq = current_seq_;
  sealed.path = dir_ + "/" + SegmentFileName(current_seq_);
  sealed.max_event_ms = current_clock_.has_t0
                            ? current_max_event_ms_
                            : std::numeric_limits<int64_t>::min();
  sealed.size = current_offset_;
  sealed_.push_back(std::move(sealed));
  ++stats_.segments_sealed;
  PINSQL_OBS_COUNT("store.wal_segments_sealed", 1);
  file_ = nullptr;
}

Status WalWriter::AppendWrapped(const std::string& wrapped, int64_t lo_ms,
                                int64_t hi_ms) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  const bool timed = hi_ms != std::numeric_limits<int64_t>::min();
  // A frame the scan would reject in this segment (e.g. records dated days
  // before the samples that follow them) starts the next one instead: the
  // scan checks event times per segment.
  if ((current_offset_ + wrapped.size() > options_.segment_bytes ||
       (timed && !current_clock_.Admits(lo_ms, hi_ms, options_))) &&
      current_offset_ > kSegmentHeaderSize) {
    SealCurrent();
    if (Status status = OpenSegment(current_seq_ + 1); !status.ok()) {
      return status;
    }
  }
  Status status = file_->Append(wrapped);
  if (!status.ok()) {
    // The segment tail is now suspect (possibly torn). Seal it at the last
    // known-good offset and retry the whole frame on a fresh segment:
    // recovery truncates the torn bytes and the stream stays contiguous.
    ++stats_.append_failures;
    SealCurrent();
    if (Status reopen = OpenSegment(current_seq_ + 1); !reopen.ok()) {
      return reopen;
    }
    status = file_->Append(wrapped);
    if (!status.ok()) return status;
  }
  current_offset_ += wrapped.size();
  stats_.bytes_written += wrapped.size();
  ++stats_.frames_appended;
  if (timed) {
    current_max_event_ms_ = current_clock_.has_t0
                                ? std::max(current_max_event_ms_, hi_ms)
                                : hi_ms;
    current_clock_.Note(lo_ms, hi_ms);
  }
  PINSQL_OBS_COUNT("store.wal_bytes_written",
                   static_cast<uint64_t>(wrapped.size()));
  return MaybeSync();
}

Status WalWriter::AppendFrame(const WalFrame& frame) {
  // Frames whose time the scan cannot represent are untimed here: no
  // retention metadata, no segment clock.
  EventSpan span{0, std::numeric_limits<int64_t>::min()};
  if (FrameEventSpan(frame, &span) != SpanStatus::kOk) {
    span = EventSpan{0, std::numeric_limits<int64_t>::min()};
  }
  return AppendWrapped(WrapFrame(EncodeFramePayload(frame)), span.lo_ms,
                       span.hi_ms);
}

Status WalWriter::AppendRecordBatch(
    const std::vector<QueryLogRecord>& records) {
  if (records.empty()) return Status::OK();
  WalFrame frame;
  frame.kind = FrameKind::kRecordBatch;
  frame.records = records;
  return AppendFrame(frame);
}

Status WalWriter::AppendSample(const online::PerfSample& sample) {
  WalFrame frame;
  frame.kind = FrameKind::kSample;
  frame.sample = sample;
  return AppendFrame(frame);
}

Status WalWriter::AppendTemplate(uint64_t sql_id,
                                 const TemplateCatalogEntry& entry) {
  WalFrame frame;
  frame.kind = FrameKind::kTemplate;
  frame.template_id = sql_id;
  frame.template_entry = entry;
  return AppendFrame(frame);
}

Status WalWriter::AppendRepairEvent(const repair::RepairEvent& event) {
  WalFrame frame;
  frame.kind = FrameKind::kRepairEvent;
  frame.event = event;
  return AppendFrame(frame);
}

Status WalWriter::MaybeSync() {
  bool want_sync = false;
  switch (options_.fsync) {
    case FsyncPolicy::kEveryBatch:
      want_sync = true;
      break;
    case FsyncPolicy::kInterval:
      want_sync = ++frames_since_sync_ >= options_.fsync_interval_frames;
      break;
    case FsyncPolicy::kNever:
      break;
  }
  if (!want_sync) return Status::OK();
  return Sync();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::OK();
  frames_since_sync_ = 0;
  ++stats_.fsyncs;
  PINSQL_OBS_COUNT("store.wal_fsyncs", 1);
  Status status = file_->Sync();
  if (!status.ok()) {
    // Degraded durability, not a stream error: the bytes are written and
    // survive process death; only power-loss durability weakened. Counted,
    // surfaced in stats, and the caller's data path keeps flowing.
    ++stats_.fsync_failures;
    PINSQL_OBS_COUNT("store.wal_fsync_failures", 1);
  }
  return status;
}

void WalWriter::AdoptSealed(const std::vector<SealedSegment>& segments) {
  for (const SealedSegment& segment : segments) {
    if (segment.seq >= current_seq_) continue;
    sealed_.push_back(segment);
  }
}

size_t WalWriter::DeleteSealedSegments(uint64_t first_needed_seq, Env* env) {
  size_t deleted = 0;
  std::vector<SealedSegment> kept;
  kept.reserve(sealed_.size());
  for (SealedSegment& segment : sealed_) {
    if (segment.seq < first_needed_seq && env->DeleteFile(segment.path).ok()) {
      ++deleted;
      PINSQL_OBS_COUNT("store.wal_segments_deleted", 1);
      continue;
    }
    kept.push_back(std::move(segment));
  }
  sealed_ = std::move(kept);
  return deleted;
}

Status WalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status status = Sync();
  SealCurrent();
  return status;
}

// --------------------------------------------------------------------------
// ScanWal

Status LoadWal(Env* env, const std::string& dir, LoadedWal* out) {
  *out = LoadedWal{};
  out->dir = dir;
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::string> candidates;
  for (const std::string& name : *names) {
    if (name.size() == SegmentFileName(0).size() &&
        name.compare(0, 4, "wal-") == 0 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      candidates.push_back(name);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  out->files.reserve(candidates.size());
  for (std::string& name : candidates) {
    LoadedWal::File& file = out->files.emplace_back();
    file.read_ok = env->ReadFile(dir + "/" + name, &file.data).ok();
    if (!file.read_ok) file.data.clear();
    file.name = std::move(name);
  }
  return Status::OK();
}

Status ScanWal(Env* env, const std::string& dir, const WalOptions& options,
               const WalPosition& start, const WalFrameFn& fn,
               WalScanStats* stats) {
  LoadedWal wal;
  if (Status status = LoadWal(env, dir, &wal); !status.ok()) {
    *stats = WalScanStats{};
    return status;
  }
  if (auto truncation = ParseWal(wal, options, start, fn, stats);
      truncation.has_value()) {
    env->TruncateFile(truncation->path, truncation->size);
  }
  return Status::OK();
}

std::optional<WalTruncation> ParseWal(const LoadedWal& wal,
                                      const WalOptions& options,
                                      const WalPosition& start,
                                      const WalFrameFn& fn,
                                      WalScanStats* stats) {
  *stats = WalScanStats{};
  std::optional<WalTruncation> truncation;

  // Map sequence -> file, validating headers. Duplicate sequences keep the
  // lexicographically first name; the rest are counted and ignored.
  std::map<uint64_t, const LoadedWal::File*> by_seq;
  for (const LoadedWal::File& file : wal.files) {
    if (!file.read_ok) {
      ++stats->segments_invalid_header;
      continue;
    }
    const auto seq = DecodeSegmentHeader(file.data);
    if (!seq.has_value() || *seq == 0) {
      ++stats->segments_invalid_header;
      stats->bytes_discarded += file.data.size();
      continue;
    }
    if (by_seq.count(*seq) != 0) {
      ++stats->segments_duplicate_seq;
      stats->bytes_discarded += file.data.size();
      continue;
    }
    by_seq[*seq] = &file;
  }

  // A start below the oldest surviving segment, or a start when no segment
  // survives, means a deletion outran the checkpoint we recovered from
  // (data loss, counted as a gap). Likewise a from-scratch scan ({0,0}: no
  // checkpoint) that finds no segment 1: the stream's base is gone — only
  // a checkpoint's deletion rule may legitimately remove it.
  if (by_seq.empty()) {
    stats->seq_gap = !(start == WalPosition{});
    return truncation;
  }
  stats->last_seq = by_seq.rbegin()->first;
  if (start == WalPosition{}) {
    if (by_seq.begin()->first != 1) stats->seq_gap = true;
  } else if (start.segment_seq < by_seq.begin()->first) {
    stats->seq_gap = true;
  }

  uint64_t prev_seq = 0;
  bool aborted = false;
  for (auto it = by_seq.begin(); it != by_seq.end(); ++it) {
    const uint64_t seq = it->first;
    const std::string& data = it->second->data;
    if (aborted) {
      stats->bytes_discarded += data.size();
      continue;
    }
    if (prev_seq != 0 && seq != prev_seq + 1) {
      // A hole in the sequence: everything after it cannot be trusted to be
      // contiguous with the replayed prefix.
      stats->seq_gap = true;
      stats->stopped_early = true;
      aborted = true;
      stats->bytes_discarded += data.size();
      continue;
    }
    prev_seq = seq;
    ++stats->segments_scanned;
    const bool last_segment = std::next(it) == by_seq.end();
    const std::string path = wal.dir + "/" + it->second->name;

    uint64_t off = kSegmentHeaderSize;
    if (seq == start.segment_seq && start.offset > off) {
      off = std::min<uint64_t>(start.offset, data.size());
    }
    // Event-time validation state, per segment.
    SegmentEventClock clock;
    // Retention metadata for the segment record below.
    int64_t seg_max_event_ms = 0;
    bool seg_done = false;
    while (!seg_done && off < data.size()) {
      const uint64_t remaining = data.size() - off;
      uint32_t len = 0, crc = 0;
      bool frame_ok = remaining >= kFrameHeaderSize;
      if (frame_ok) {
        codec::Reader r(std::string_view(data).substr(off, kFrameHeaderSize));
        r.U32(&len);
        r.U32(&crc);
        frame_ok = len > 0 && len <= options.max_frame_bytes &&
                   kFrameHeaderSize + len <= remaining;
      }
      std::string_view payload;
      if (frame_ok) {
        payload = std::string_view(data).substr(off + kFrameHeaderSize, len);
        frame_ok = Crc32c(payload) == crc;
      }
      if (!frame_ok) {
        // Torn or corrupt frame. In the newest segment this is the normal
        // kill -9 tail: physically truncate so a later recovery starts
        // clean. Mid-WAL, the writer re-appended any torn frame to the next
        // segment, so skipping the rest of this one keeps the stream
        // contiguous; a genuine mid-segment bit flip costs the rest of the
        // segment, counted.
        ++stats->frames_corrupt;
        if (last_segment) {
          stats->torn_tail_bytes_truncated += remaining;
          truncation = WalTruncation{path, off};
        } else {
          stats->bytes_discarded += remaining;
        }
        seg_done = true;
        break;
      }

      auto decoded = DecodeFramePayload(payload);
      if (!decoded.ok()) {
        ++stats->frames_malformed;
        stats->bytes_discarded += remaining;
        seg_done = true;
        break;
      }
      const WalFrame& frame = *decoded;

      EventSpan span{0, 0};
      const SpanStatus span_status = FrameEventSpan(frame, &span);
      if (span_status != SpanStatus::kNone) {
        if (span_status != SpanStatus::kOk ||
            !clock.Admits(span.lo_ms, span.hi_ms, options)) {
          // CRC-valid but chronologically impossible — out of the segment's
          // plausible window, or a timestamp that doesn't even fit int64
          // milliseconds: reject the frame and abandon the rest of the
          // segment (counted, never replayed).
          ++stats->frames_time_rejected;
          stats->bytes_discarded += remaining;
          stats->stopped_early = true;
          seg_done = true;
          break;
        }
        seg_max_event_ms = clock.has_t0
                               ? std::max(seg_max_event_ms, span.hi_ms)
                               : span.hi_ms;
        clock.Note(span.lo_ms, span.hi_ms);
      }

      off += kFrameHeaderSize + len;
      ++stats->frames_valid;
      switch (frame.kind) {
        case FrameKind::kRecordBatch:
          stats->records += frame.records.size();
          break;
        case FrameKind::kSample:
          ++stats->samples;
          break;
        case FrameKind::kTemplate:
          ++stats->templates;
          break;
        case FrameKind::kRepairEvent:
          ++stats->repair_events;
          break;
      }
      const WalPosition pos{seq, off};
      if (start < pos) fn(frame, pos);
    }
    SealedSegment meta;
    meta.seq = seq;
    meta.path = path;
    meta.max_event_ms = clock.has_t0 ? seg_max_event_ms
                                     : std::numeric_limits<int64_t>::min();
    meta.size = off;
    stats->segments.push_back(std::move(meta));
  }
  return truncation;
}

}  // namespace pinsql::store
